// Minimal leveled logger. Printf-style, single global sink, mutex-guarded.
// Messages below kWarn are dropped, so measurement loops stay quiet.
#pragma once

#include <cstdarg>

namespace nagano {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

// Core entry point; prefer the LOG_* macros below.
void LogV(LogLevel level, const char* file, int line, const char* fmt,
          va_list args);
void Log(LogLevel level, const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));

}  // namespace nagano

#define NAGANO_LOG(level, ...) \
  ::nagano::Log((level), __FILE__, __LINE__, __VA_ARGS__)
#define LOG_DEBUG(...) NAGANO_LOG(::nagano::LogLevel::kDebug, __VA_ARGS__)
#define LOG_INFO(...) NAGANO_LOG(::nagano::LogLevel::kInfo, __VA_ARGS__)
#define LOG_WARN(...) NAGANO_LOG(::nagano::LogLevel::kWarn, __VA_ARGS__)
#define LOG_ERROR(...) NAGANO_LOG(::nagano::LogLevel::kError, __VA_ARGS__)
