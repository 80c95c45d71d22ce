#include "http/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace nagano::http {
namespace {

timeval ToTimeval(TimeNs ns) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ns / kSecond);
  tv.tv_usec = static_cast<suseconds_t>((ns % kSecond) / 1000);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  return tv;
}

}  // namespace

Status HttpClient::Options::Validate() const {
  if (connect_timeout < 0 || io_timeout < 0) {
    return InvalidArgumentError("HttpClient::Options timeouts must be >= 0");
  }
  return Status::Ok();
}

HttpClient::HttpClient(std::string host, uint16_t port, Options options)
    : host_(std::move(host)), port_(port), options_(options) {
  ValidateOrDie(options_, "HttpClient::Options");
}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  used_ = false;
}

Status HttpClient::EnsureConnected() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Close();
    return InvalidArgumentError("bad host " + host_);
  }
  if (options_.connect_timeout > 0) {
    // Bounded connect: non-blocking connect, poll for writability, read
    // SO_ERROR for the verdict, then return the socket to blocking mode.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      if (errno != EINPROGRESS) {
        Close();
        return UnavailableError(std::string("connect: ") +
                                std::strerror(errno));
      }
      pollfd pfd{fd_, POLLOUT, 0};
      const int timeout_ms =
          static_cast<int>(std::max<TimeNs>(1, options_.connect_timeout / 1'000'000));
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) {
        Close();
        return UnavailableError("connect: timed out after " +
                                std::to_string(timeout_ms) + " ms");
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        Close();
        return UnavailableError(std::string("connect: ") + std::strerror(err));
      }
    }
    ::fcntl(fd_, F_SETFL, flags);
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    Close();
    return UnavailableError(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.io_timeout > 0) {
    const timeval tv = ToTimeval(options_.io_timeout);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  ++connects_;
  used_ = false;
  return Status::Ok();
}

Result<HttpResponse> HttpClient::RoundtripOnce(const HttpRequest& request) {
  const bool reused = fd_ >= 0 && used_;
  if (Status s = EnsureConnected(); !s.ok()) return s;

  const std::string wire = request.Serialize();
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd_, wire.data() + sent, wire.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      Close();
      return UnavailableError(timed_out
                                  ? std::string("write: timed out")
                                  : std::string("write: ") +
                                        std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }

  parser_.Reset();  // bytes left from an earlier exchange answer nothing
  char buf[16 * 1024];
  for (;;) {
    if (auto response = parser_.Next()) {
      if (reused) ++reuses_;
      used_ = true;
      return std::move(*response);
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      Close();
      return UnavailableError(timed_out ? std::string("read: timed out")
                                        : std::string("read: ") +
                                              std::strerror(errno));
    }
    if (n == 0) {
      Close();
      return UnavailableError("connection closed mid-response");
    }
    if (Status s = parser_.Feed(std::string_view(buf, size_t(n))); !s.ok()) {
      Close();
      return s;
    }
  }
}

Result<HttpResponse> HttpClient::Roundtrip(const HttpRequest& request) {
  const bool had_connection = fd_ >= 0;
  Result<HttpResponse> r = RoundtripOnce(request);
  if (!r.ok() && had_connection &&
      r.status().code() == ErrorCode::kUnavailable) {
    // The server may have expired the idle keep-alive connection; retry on
    // a fresh one.
    ++stale_reconnects_;
    r = RoundtripOnce(request);
  }
  if (r.ok()) {
    auto it = r.value().headers.find("Connection");
    if (it != r.value().headers.end() && it->second == "close") Close();
  }
  return r;
}

Result<HttpResponse> HttpClient::Get(std::string_view target) {
  HttpRequest req;
  req.method = "GET";
  req.target = std::string(target);
  req.headers["Host"] = host_;
  return Roundtrip(req);
}

Result<HttpResponse> HttpClient::FetchOnce(const std::string& host,
                                           uint16_t port,
                                           std::string_view target) {
  HttpClient client(host, port);
  HttpRequest req;
  req.method = "GET";
  req.target = std::string(target);
  req.headers["Host"] = host;
  req.headers["Connection"] = "close";
  return client.Roundtrip(req);
}

}  // namespace nagano::http
