#include "common/logging.h"

#include <cstdio>
#include <cstring>
#include <mutex>

namespace nagano {
namespace {

constexpr LogLevel kMinLevel = LogLevel::kWarn;
std::mutex g_mutex;

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

char LevelChar(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return 'D';
    case LogLevel::kInfo: return 'I';
    case LogLevel::kWarn: return 'W';
    case LogLevel::kError: return 'E';
    case LogLevel::kOff: return '?';
  }
  return '?';
}

}  // namespace

void LogV(LogLevel level, const char* file, int line, const char* fmt,
          va_list args) {
  if (level < kMinLevel) return;
  char body[1024];
  std::vsnprintf(body, sizeof(body), fmt, args);
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[%c %s:%d] %s\n", LevelChar(level), Basename(file), line,
               body);
}

void Log(LogLevel level, const char* file, int line, const char* fmt, ...) {
  if (level < kMinLevel) return;
  va_list args;
  va_start(args, fmt);
  LogV(level, file, line, fmt, args);
  va_end(args);
}

}  // namespace nagano
