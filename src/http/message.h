// HTTP/1.1 message model and incremental parser (RFC 7230 subset:
// request-line/status-line, headers, Content-Length bodies, keep-alive).
// Enough protocol for a FastCGI-era dynamic-page server; chunked encoding
// and trailers are out of scope.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace nagano::http {

// Header map with case-insensitive names (RFC 7230). A message carries a
// handful of headers, so they live in one flat vector kept sorted by ASCII
// case-folded name — the order the serializer writes them in. Lookups take
// a string_view and fold only ASCII letters, so no locale is consulted and
// no key string is built. Assigning through [] to a name already present
// in any case keeps the first spelling and replaces the value (last value
// wins). Iteration is read-only so the order cannot be broken.
class HeaderMap {
 public:
  using value_type = std::pair<std::string, std::string>;
  using const_iterator = std::vector<value_type>::const_iterator;

  // The value for `name`, inserted empty in sorted position if absent.
  std::string& operator[](std::string_view name);
  // The value for `name`; throws std::out_of_range if absent.
  const std::string& at(std::string_view name) const;
  const_iterator find(std::string_view name) const;
  size_t count(std::string_view name) const { return find(name) != end(); }

  size_t size() const { return entries_.size(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  // First entry whose name does not sort before `name`.
  std::vector<value_type>::iterator LowerBound(std::string_view name);

  std::vector<value_type> entries_;
};

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // origin-form, e.g. "/day/7?lang=en"
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  // Path without the query string; "/day/7" for the target above. A view
  // into `target`, valid while the request is unchanged.
  std::string_view Path() const;
  bool KeepAlive() const;

  std::string Serialize() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  // Zero-copy entity: when set, the referenced string is the response body
  // and `body` is ignored. The shared_ptr typically aliases a cached
  // object's body (cache/object_cache.h), so a hit hands the stored bytes
  // straight to the socket without copying — the writer holds the ref until
  // the last byte is flushed, keeping the entity alive even if the cache
  // entry is replaced mid-write.
  std::shared_ptr<const std::string> body_ref;

  // Scatter-gather entity: when non-empty, the concatenation of these
  // strings is the response body and both `body` and `body_ref` are
  // ignored. Each ref aliases a cached object (a composition plan's static
  // chunk or a pinned fragment snapshot), so a composed page is written one
  // chunk at a time without ever assembling it — the writer holds the refs
  // until the last byte is flushed.
  std::vector<std::shared_ptr<const std::string>> body_chunks;

  // Pre-serialized entity-header lines ("Content-Length: N\r\n...", each
  // CRLF-terminated) owned by the cache entry and appended verbatim to the
  // header block. When set, the serializer must NOT emit its own
  // Content-Length — the prefix already carries one.
  std::shared_ptr<const std::string> header_ref;

  // The entity when a single backing string carries it. A scatter-gather
  // response (body_chunks) has no one span — callers must check
  // body_chunks first, as BodySize does.
  const std::string& BodyView() const {
    return body_ref != nullptr ? *body_ref : body;
  }
  size_t BodySize() const {
    if (body_chunks.empty()) return BodyView().size();
    size_t total = 0;
    for (const auto& chunk : body_chunks) total += chunk->size();
    return total;
  }

  static HttpResponse Ok(std::string body,
                         std::string content_type = "text/html");
  static HttpResponse NotFound(std::string message = "not found");
  static HttpResponse ServerError(std::string message = "internal error");

  // Serializes everything up to and including the blank line — the flat
  // header block the scatter-gather write path pairs with the body ref.
  // Appends to `out`. `extra_lines` is a pre-serialized CRLF-terminated
  // block (e.g. the server's cached "Date: ...\r\n" line) spliced in right
  // after the status line.
  void SerializeHeaders(std::string& out,
                        std::string_view extra_lines = {}) const;
};

// Incremental parser: feed bytes as they arrive; complete messages queue up
// for Next(). Handles pipelined messages. A message's head is parsed once,
// when its blank line arrives; body bytes then go straight into the
// message's body, which Next() hands over by move. Only an incomplete head
// is ever buffered.
template <typename Message>
class MessageParser {
 public:
  // Consumes bytes. Returns an error on malformed input (the connection
  // should be dropped).
  Status Feed(std::string_view bytes);

  // Extracts the next complete message, if any.
  std::optional<Message> Next();

  // Bytes held for messages not yet complete (for tests / flow control).
  size_t buffered() const {
    return head_.size() + (partial_ ? partial_->body.size() : 0);
  }

  // Drops every buffered byte and queued message, keeping the storage for
  // reuse (a client reusing one parser across exchanges).
  void Reset();

  // Maximum header block / body sizes; exceeding either is a parse error
  // (defense against unbounded memory growth from a bad peer).
  static constexpr size_t kMaxHeaderBytes = 64 * 1024;
  static constexpr size_t kMaxBodyBytes = 64 * 1024 * 1024;

 private:
  // Consumes `bytes` from a message boundary or from inside partial_'s body.
  Status Consume(std::string_view bytes);
  // Parses one head (start line + headers, without the blank line) into a
  // message that is queued, or held as partial_ until its body arrives.
  Status ParseHead(std::string_view head);

  std::string head_;                // an incomplete head, across Feed calls
  std::optional<Message> partial_;  // head parsed, body still arriving
  size_t body_remaining_ = 0;       // bytes partial_ still needs
  std::vector<Message> ready_;
};

using RequestParser = MessageParser<HttpRequest>;
using ResponseParser = MessageParser<HttpResponse>;

}  // namespace nagano::http
