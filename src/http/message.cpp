#include "http/message.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace nagano::http {
namespace {

// ASCII-only case folding: header names are tokens, so no locale applies.
char FoldCase(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

bool FoldedLess(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const char x = FoldCase(a[i]);
    const char y = FoldCase(b[i]);
    if (x != y) return x < y;
  }
  return a.size() < b.size();
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (FoldCase(a[i]) != FoldCase(b[i])) return false;
  }
  return true;
}

// Parses "Name: value" lines from `block` (without the trailing empty line).
Status ParseHeaders(std::string_view block, HeaderMap& out) {
  size_t pos = 0;
  while (pos < block.size()) {
    size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return InvalidArgumentError("malformed header line");
    }
    const std::string_view name = line.substr(0, colon);
    if (name.find(' ') != std::string_view::npos) {
      return InvalidArgumentError("whitespace in header name");
    }
    out[name] = TrimOws(line.substr(colon + 1));
  }
  return Status::Ok();
}

// Exact byte count of the "Name: value\r\n" lines for `headers`, skipping
// Content-Length when told to (the serializer computes its own).
size_t HeaderBlockSize(const HeaderMap& headers, bool skip_content_length) {
  size_t total = 0;
  for (const auto& [name, value] : headers) {
    if (skip_content_length && IEquals(name, "Content-Length")) continue;
    total += name.size() + 2 + value.size() + 2;
  }
  return total;
}

// Room for "Content-Length: " + a 20-digit size_t + CRLF.
using LengthLineBuffer = char[48];

// Formats "Content-Length: N\r\n" into `buf` and returns it.
std::string_view ContentLengthLine(size_t length, LengthLineBuffer& buf) {
  constexpr std::string_view kName = "Content-Length: ";
  char* p = std::copy(kName.begin(), kName.end(), buf);
  p = std::to_chars(p, buf + sizeof(buf) - 2, length).ptr;
  *p++ = '\r';
  *p++ = '\n';
  return {buf, static_cast<size_t>(p - buf)};
}

void AppendHeaders(const HeaderMap& headers, bool skip_content_length,
                   std::string& out) {
  for (const auto& [name, value] : headers) {
    if (skip_content_length && IEquals(name, "Content-Length")) continue;
    out.append(name);
    out.append(": ", 2);
    out.append(value);
    out.append("\r\n", 2);
  }
}

}  // namespace

std::vector<HeaderMap::value_type>::iterator HeaderMap::LowerBound(
    std::string_view name) {
  return std::lower_bound(entries_.begin(), entries_.end(), name,
                          [](const value_type& entry, std::string_view key) {
                            return FoldedLess(entry.first, key);
                          });
}

std::string& HeaderMap::operator[](std::string_view name) {
  // Headers arrive one at a time (a parsed head's lines, a handler's
  // Content-Type then X-Cache): start with room for a typical set instead
  // of regrowing per header.
  constexpr size_t kTypicalHeaders = 8;
  if (entries_.capacity() == 0) entries_.reserve(kTypicalHeaders);
  auto it = LowerBound(name);
  if (it == entries_.end() || !IEquals(it->first, name)) {
    it = entries_.emplace(it, std::string(name), std::string());
  }
  return it->second;
}

const std::string& HeaderMap::at(std::string_view name) const {
  const auto it = find(name);
  if (it == end()) throw std::out_of_range("no header " + std::string(name));
  return it->second;
}

HeaderMap::const_iterator HeaderMap::find(std::string_view name) const {
  // Linear: a message has a handful of headers, and the length check
  // rejects most of them before a byte is folded.
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (IEquals(it->first, name)) return it;
  }
  return entries_.end();
}

std::string_view HttpRequest::Path() const {
  const std::string_view t(target);
  return t.substr(0, t.find('?'));
}

bool HttpRequest::KeepAlive() const {
  auto it = headers.find("Connection");
  if (it != headers.end()) {
    if (IEquals(it->second, "close")) return false;
    if (IEquals(it->second, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";  // 1.1 default: persistent
}

std::string HttpRequest::Serialize() const {
  const bool needs_length =
      !body.empty() || method == "POST" || method == "PUT";
  LengthLineBuffer buf;
  const std::string_view length_line =
      needs_length ? ContentLengthLine(body.size(), buf) : std::string_view();
  std::string out;
  out.reserve(method.size() + 1 + target.size() + 1 + version.size() + 2 +
              HeaderBlockSize(headers, needs_length) + length_line.size() + 2 +
              body.size());
  out.append(method);
  out.push_back(' ');
  out.append(target);
  out.push_back(' ');
  out.append(version);
  out.append("\r\n", 2);
  AppendHeaders(headers, needs_length, out);
  out.append(length_line);
  out.append("\r\n", 2);
  out.append(body);
  return out;
}

HttpResponse HttpResponse::Ok(std::string body, std::string content_type) {
  HttpResponse r;
  r.body = std::move(body);
  r.headers["Content-Type"] = std::move(content_type);
  return r;
}

HttpResponse HttpResponse::NotFound(std::string message) {
  HttpResponse r;
  r.status = 404;
  r.reason = "Not Found";
  r.body = std::move(message);
  r.headers["Content-Type"] = "text/plain";
  return r;
}

HttpResponse HttpResponse::ServerError(std::string message) {
  HttpResponse r;
  r.status = 500;
  r.reason = "Internal Server Error";
  r.body = std::move(message);
  r.headers["Content-Type"] = "text/plain";
  return r;
}

void HttpResponse::SerializeHeaders(std::string& out,
                                    std::string_view extra_lines) const {
  char status_buf[16];
  const char* status_end =
      std::to_chars(status_buf, status_buf + sizeof(status_buf), status).ptr;
  const std::string_view status_str(
      status_buf, static_cast<size_t>(status_end - status_buf));
  // header_ref (the cache's pre-serialized entity prefix) already carries
  // Content-Length; otherwise compute one from the entity, overriding any
  // stale map entry (e.g. a parsed response being re-serialized).
  LengthLineBuffer length_buf;
  const std::string_view length_line =
      header_ref == nullptr ? ContentLengthLine(BodySize(), length_buf)
                            : std::string_view();
  out.reserve(out.size() + version.size() + 1 + status_str.size() + 1 +
              reason.size() + 2 + extra_lines.size() +
              HeaderBlockSize(headers, true) +
              (header_ref != nullptr ? header_ref->size() : 0) +
              length_line.size() + 2);
  out.append(version);
  out.push_back(' ');
  out.append(status_str);
  out.push_back(' ');
  out.append(reason);
  out.append("\r\n", 2);
  out.append(extra_lines);
  AppendHeaders(headers, /*skip_content_length=*/true, out);
  if (header_ref != nullptr) {
    out.append(*header_ref);
  } else {
    out.append(length_line);
  }
  out.append("\r\n", 2);
}

namespace {

// Splits the start line into up to 3 space-separated tokens.
Status SplitStartLine(std::string_view line, std::string_view out[3]) {
  size_t first = line.find(' ');
  if (first == std::string_view::npos) {
    return InvalidArgumentError("malformed start line");
  }
  size_t second = line.find(' ', first + 1);
  out[0] = line.substr(0, first);
  if (second == std::string_view::npos) {
    out[1] = line.substr(first + 1);
    out[2] = {};
  } else {
    out[1] = line.substr(first + 1, second - first - 1);
    out[2] = line.substr(second + 1);
  }
  if (out[0].empty() || out[1].empty()) {
    return InvalidArgumentError("empty start-line token");
  }
  return Status::Ok();
}

Status FillStartLine(HttpRequest& msg, std::string_view line) {
  std::string_view tok[3];
  if (Status s = SplitStartLine(line, tok); !s.ok()) return s;
  if (tok[2].empty()) return InvalidArgumentError("missing HTTP version");
  if (!tok[2].starts_with("HTTP/")) {
    return InvalidArgumentError("bad HTTP version");
  }
  msg.method = tok[0];
  msg.target = tok[1];
  msg.version = tok[2];
  return Status::Ok();
}

Status FillStartLine(HttpResponse& msg, std::string_view line) {
  std::string_view tok[3];
  if (Status s = SplitStartLine(line, tok); !s.ok()) return s;
  if (!tok[0].starts_with("HTTP/")) {
    return InvalidArgumentError("bad HTTP version");
  }
  int status = 0;
  const auto [ptr, ec] =
      std::from_chars(tok[1].data(), tok[1].data() + tok[1].size(), status);
  if (ec != std::errc{} || ptr != tok[1].data() + tok[1].size() ||
      status < 100 || status > 599) {
    return InvalidArgumentError("bad status code");
  }
  msg.version = tok[0];
  msg.status = status;
  msg.reason = tok[2];
  return Status::Ok();
}

}  // namespace

template <typename Message>
Status MessageParser<Message>::Feed(std::string_view bytes) {
  if (head_.empty()) return Consume(bytes);
  // Finish the buffered head first; its blank line may straddle the
  // previous Feed, so the search backs up three bytes.
  const size_t scan_from = head_.size() < 3 ? 0 : head_.size() - 3;
  head_.append(bytes);
  const size_t head_end = head_.find("\r\n\r\n", scan_from);
  if (head_end == std::string::npos) {
    if (head_.size() > kMaxHeaderBytes) {
      return ResourceExhaustedError("header block too large");
    }
    return Status::Ok();
  }
  // Parse out of a local so head_ is free to buffer the next partial head.
  const std::string held = std::move(head_);
  head_.clear();
  const std::string_view rest(held);
  if (Status s = ParseHead(rest.substr(0, head_end)); !s.ok()) return s;
  return Consume(rest.substr(head_end + 4));
}

template <typename Message>
Status MessageParser<Message>::Consume(std::string_view bytes) {
  for (;;) {
    if (partial_) {
      const size_t take = std::min(body_remaining_, bytes.size());
      partial_->body.append(bytes.data(), take);
      bytes.remove_prefix(take);
      body_remaining_ -= take;
      if (body_remaining_ > 0) return Status::Ok();
      ready_.push_back(std::move(*partial_));
      partial_.reset();
    }
    if (bytes.empty()) return Status::Ok();
    const size_t head_end = bytes.find("\r\n\r\n");
    if (head_end == std::string_view::npos) {
      if (bytes.size() > kMaxHeaderBytes) {
        return ResourceExhaustedError("header block too large");
      }
      head_.assign(bytes);
      return Status::Ok();
    }
    if (Status s = ParseHead(bytes.substr(0, head_end)); !s.ok()) return s;
    bytes.remove_prefix(head_end + 4);
  }
}

template <typename Message>
Status MessageParser<Message>::ParseHead(std::string_view head) {
  const size_t line_end = head.find("\r\n");
  const std::string_view start_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  Message msg;
  if (Status s = FillStartLine(msg, start_line); !s.ok()) return s;
  const std::string_view header_block =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  if (Status s = ParseHeaders(header_block, msg.headers); !s.ok()) return s;

  size_t body_len = 0;
  if (auto it = msg.headers.find("Content-Length"); it != msg.headers.end()) {
    const auto [ptr, ec] = std::from_chars(
        it->second.data(), it->second.data() + it->second.size(), body_len);
    if (ec != std::errc{} || ptr != it->second.data() + it->second.size()) {
      return InvalidArgumentError("bad Content-Length");
    }
    if (body_len > kMaxBodyBytes) {
      return ResourceExhaustedError("body too large");
    }
  }
  if (body_len == 0) {
    ready_.push_back(std::move(msg));
    return Status::Ok();
  }
  // Reserve what a peer has declared, up to a bound: a lying Content-Length
  // must not buy a 64 MiB allocation before its bytes arrive.
  constexpr size_t kMaxEagerReserve = 1024 * 1024;
  msg.body.reserve(std::min(body_len, kMaxEagerReserve));
  partial_ = std::move(msg);
  body_remaining_ = body_len;
  return Status::Ok();
}

template <typename Message>
void MessageParser<Message>::Reset() {
  head_.clear();
  partial_.reset();
  body_remaining_ = 0;
  ready_.clear();
}

template <typename Message>
std::optional<Message> MessageParser<Message>::Next() {
  if (ready_.empty()) return std::nullopt;
  Message msg = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return msg;
}

template class MessageParser<HttpRequest>;
template class MessageParser<HttpResponse>;

}  // namespace nagano::http
