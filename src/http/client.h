// Blocking HTTP/1.1 client with keep-alive connection reuse, used by tests,
// examples, the benches and the dispatcher's advisor prober. Reuse is
// observable (connects()/reuses()), and every socket operation can carry a
// timeout: the advisor must never let a wedged backend hold it hostage.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/options.h"
#include "common/result.h"
#include "http/message.h"

namespace nagano::http {

class HttpClient {
 public:
  struct Options : OptionsBase {
    // Bound on establishing the TCP connection (non-blocking connect +
    // poll). 0 = the kernel's default (minutes) — fine for tests, wrong
    // for a dispatcher probing a dead backend.
    TimeNs connect_timeout = 0;
    // Bound on each individual read/write once connected (SO_RCVTIMEO /
    // SO_SNDTIMEO). A stalled socket surfaces as kUnavailable. 0 = block.
    TimeNs io_timeout = 0;

    Status Validate() const;
  };

  HttpClient(std::string host, uint16_t port)
      : HttpClient(std::move(host), port, Options()) {}
  HttpClient(std::string host, uint16_t port, Options options);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Connects (or reuses the persistent connection), sends the request, and
  // reads one response. Reconnects transparently if the server closed the
  // persistent connection (stale keep-alive socket) — at most one retry, so
  // a genuinely dead server still fails fast.
  Result<HttpResponse> Roundtrip(const HttpRequest& request);

  // Convenience GET against the persistent connection.
  Result<HttpResponse> Get(std::string_view target);

  // One-shot GET on a fresh connection.
  static Result<HttpResponse> FetchOnce(const std::string& host, uint16_t port,
                                        std::string_view target);

  void Close();

  // True while the persistent connection is open — the next Roundtrip will
  // reuse it rather than pay a connect.
  bool connected() const { return fd_ >= 0; }

  // Connection-reuse accounting: TCP connects paid, roundtrips that reused
  // the persistent socket, and reconnects forced by a stale keep-alive
  // socket (the server closed it between requests).
  uint64_t connects() const { return connects_; }
  uint64_t reuses() const { return reuses_; }
  uint64_t stale_reconnects() const { return stale_reconnects_; }

 private:
  Status EnsureConnected();
  Result<HttpResponse> RoundtripOnce(const HttpRequest& request);

  std::string host_;
  uint16_t port_;
  Options options_;
  int fd_ = -1;
  // Kept across exchanges so its buffers are reused, not reallocated.
  ResponseParser parser_;
  bool used_ = false;  // a roundtrip completed on the current connection
  uint64_t connects_ = 0;
  uint64_t reuses_ = 0;
  uint64_t stale_reconnects_ = 0;
};

}  // namespace nagano::http
