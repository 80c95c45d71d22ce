#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "http/client.h"
#include "http/message.h"
#include "http/server.h"

namespace nagano::http {
namespace {

// The bytes the server's write path sends for `r`: the header block, then
// the entity (body_chunks, else body_ref, else body).
std::string Wire(const HttpResponse& r) {
  std::string out;
  r.SerializeHeaders(out);
  if (r.body_chunks.empty()) return out + r.BodyView();
  for (const auto& chunk : r.body_chunks) out += *chunk;
  return out;
}

// --- message model -------------------------------------------------------------

TEST(HttpMessageTest, RequestPathStripsQuery) {
  HttpRequest req;
  req.target = "/day/7?lang=en&x=1";
  EXPECT_EQ(req.Path(), "/day/7");
  req.target = "/plain";
  EXPECT_EQ(req.Path(), "/plain");
}

TEST(HttpMessageTest, KeepAliveDefaults) {
  HttpRequest req;
  req.version = "HTTP/1.1";
  EXPECT_TRUE(req.KeepAlive());
  req.version = "HTTP/1.0";
  EXPECT_FALSE(req.KeepAlive());
  req.headers["Connection"] = "keep-alive";
  EXPECT_TRUE(req.KeepAlive());
  req.version = "HTTP/1.1";
  req.headers["Connection"] = "close";
  EXPECT_FALSE(req.KeepAlive());
}

TEST(HttpMessageTest, HeaderMapCaseInsensitive) {
  HttpRequest req;
  req.headers["content-type"] = "text/html";
  EXPECT_EQ(req.headers.count("Content-Type"), 1u);
  EXPECT_EQ(req.headers.at("CONTENT-TYPE"), "text/html");
}

TEST(HttpMessageTest, ResponseFactories) {
  const auto ok = HttpResponse::Ok("body");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "body");
  EXPECT_EQ(HttpResponse::NotFound().status, 404);
  EXPECT_EQ(HttpResponse::ServerError().status, 500);
}

TEST(HttpMessageTest, SerializeSetsContentLength) {
  auto r = HttpResponse::Ok("12345");
  const std::string wire = Wire(r);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n12345"));
}

// --- zero-copy serialization -----------------------------------------------------

TEST(HttpMessageTest, SerializeUsesBodyRef) {
  HttpResponse r;
  r.body_ref = std::make_shared<const std::string>("shared-entity-bytes");
  const std::string wire = Wire(r);
  EXPECT_NE(wire.find("Content-Length: 19\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\nshared-entity-bytes"));
  EXPECT_EQ(r.BodySize(), 19u);
  EXPECT_EQ(&r.BodyView(), r.body_ref.get());
}

TEST(HttpMessageTest, SerializeUsesHeaderRefVerbatim) {
  HttpResponse r;
  r.body_ref = std::make_shared<const std::string>("abc");
  r.header_ref = std::make_shared<const std::string>(
      "Content-Length: 3\r\nX-Nagano-Version: 9\r\n");
  const std::string wire = Wire(r);
  // Exactly one Content-Length — the one the prefix carries.
  EXPECT_EQ(wire.find("Content-Length: 3\r\n"),
            wire.rfind("Content-Length:"));
  EXPECT_NE(wire.find("X-Nagano-Version: 9\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\nabc"));
}

TEST(HttpMessageTest, SerializeHeadersSplicesExtraLines) {
  auto r = HttpResponse::Ok("hello");
  std::string head;
  r.SerializeHeaders(head, "Date: Thu, 06 Aug 2026 00:00:00 GMT\r\n");
  EXPECT_TRUE(head.starts_with(
      "HTTP/1.1 200 OK\r\nDate: Thu, 06 Aug 2026 00:00:00 GMT\r\n"));
  EXPECT_NE(head.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_TRUE(head.ends_with("\r\n\r\n"));
}

TEST(HttpMessageTest, ReserializeDoesNotDuplicateContentLength) {
  // A parsed response carries Content-Length in its header map; writing it
  // back out must not emit a second copy.
  ResponseParser parser;
  ASSERT_TRUE(
      parser.Feed("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody").ok());
  auto resp = parser.Next();
  ASSERT_TRUE(resp.has_value());
  const std::string wire = Wire(*resp);
  EXPECT_EQ(wire.find("Content-Length:"), wire.rfind("Content-Length:"));
  EXPECT_TRUE(wire.ends_with("\r\nbody"));
}

// --- parser ---------------------------------------------------------------------

TEST(RequestParserTest, ParsesSimpleGet) {
  RequestParser parser;
  ASSERT_TRUE(parser.Feed("GET /day/7 HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  auto req = parser.Next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/day/7");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->headers.at("Host"), "x");
  EXPECT_FALSE(parser.Next().has_value());
}

TEST(RequestParserTest, ParsesBodyByContentLength) {
  RequestParser parser;
  ASSERT_TRUE(
      parser.Feed("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").ok());
  auto req = parser.Next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "hello");
}

TEST(RequestParserTest, IncrementalFeed) {
  RequestParser parser;
  const std::string wire = "GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
  for (char c : wire) {
    ASSERT_TRUE(parser.Feed(std::string_view(&c, 1)).ok());
  }
  auto req = parser.Next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/a");
}

TEST(RequestParserTest, PipelinedRequests) {
  RequestParser parser;
  ASSERT_TRUE(parser
                  .Feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
                        "GET /c HTTP/1.1\r\n\r\n")
                  .ok());
  EXPECT_EQ(parser.Next()->target, "/a");
  EXPECT_EQ(parser.Next()->target, "/b");
  EXPECT_EQ(parser.Next()->target, "/c");
  EXPECT_FALSE(parser.Next().has_value());
}

TEST(RequestParserTest, IncompleteBodyWaits) {
  RequestParser parser;
  ASSERT_TRUE(
      parser.Feed("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel").ok());
  EXPECT_FALSE(parser.Next().has_value());
  ASSERT_TRUE(parser.Feed("lo world").ok());
  EXPECT_EQ(parser.Next()->body, std::string("hello world").substr(0, 10));
}

TEST(RequestParserTest, MalformedStartLine) {
  RequestParser parser;
  EXPECT_FALSE(parser.Feed("GARBAGE\r\n\r\n").ok());
}

TEST(RequestParserTest, MissingVersionRejected) {
  RequestParser parser;
  EXPECT_FALSE(parser.Feed("GET /x\r\n\r\n").ok());
}

TEST(RequestParserTest, BadVersionRejected) {
  RequestParser parser;
  EXPECT_FALSE(parser.Feed("GET /x SMTP/1.0\r\n\r\n").ok());
}

TEST(RequestParserTest, MalformedHeaderRejected) {
  RequestParser parser;
  EXPECT_FALSE(parser.Feed("GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n").ok());
  RequestParser parser2;
  EXPECT_FALSE(parser2.Feed("GET /x HTTP/1.1\r\n: empty\r\n\r\n").ok());
  RequestParser parser3;
  EXPECT_FALSE(
      parser3.Feed("GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n").ok());
}

TEST(RequestParserTest, BadContentLengthRejected) {
  RequestParser parser;
  EXPECT_FALSE(
      parser.Feed("POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n").ok());
}

TEST(RequestParserTest, OversizedHeaderRejected) {
  RequestParser parser;
  std::string huge = "GET /x HTTP/1.1\r\nX-Big: ";
  huge.append(RequestParser::kMaxHeaderBytes, 'a');
  EXPECT_FALSE(parser.Feed(huge).ok());
}

TEST(RequestParserTest, HeaderValueTrimmed) {
  RequestParser parser;
  ASSERT_TRUE(parser.Feed("GET /x HTTP/1.1\r\nHost:   spaced   \r\n\r\n").ok());
  EXPECT_EQ(parser.Next()->headers.at("Host"), "spaced");
}

TEST(ResponseParserTest, ParsesResponse) {
  ResponseParser parser;
  ASSERT_TRUE(parser
                  .Feed("HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n"
                        "\r\ngone")
                  .ok());
  auto resp = parser.Next();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(resp->reason, "Not Found");
  EXPECT_EQ(resp->body, "gone");
}

TEST(ResponseParserTest, BadStatusRejected) {
  ResponseParser parser;
  EXPECT_FALSE(parser.Feed("HTTP/1.1 9999 Weird\r\n\r\n").ok());
  ResponseParser parser2;
  EXPECT_FALSE(parser2.Feed("HTTP/1.1 abc Oops\r\n\r\n").ok());
}

// --- parser: split-invariance, header semantics, golden bytes -------------------

// Everything a parse produced, in one comparable string.
std::string Describe(const HttpRequest& m) {
  std::string out = m.method + "|" + m.target + "|" + m.version + "|";
  for (const auto& [name, value] : m.headers) out += name + "=" + value + ";";
  return out + "|" + m.body;
}

std::string Describe(const HttpResponse& m) {
  std::string out =
      m.version + "|" + std::to_string(m.status) + "|" + m.reason + "|";
  for (const auto& [name, value] : m.headers) out += name + "=" + value + ";";
  return out + "|" + m.body;
}

// Feeds `pieces` in order and describes every message that came out.
template <typename Parser>
std::vector<std::string> ParsePieces(
    const std::vector<std::string_view>& pieces) {
  Parser parser;
  std::vector<std::string> out;
  for (const std::string_view piece : pieces) {
    const Status s = parser.Feed(piece);
    EXPECT_TRUE(s.ok()) << s.ToString();
    while (auto m = parser.Next()) out.push_back(Describe(*m));
  }
  EXPECT_EQ(parser.buffered(), 0u);
  return out;
}

// The fixture parses identically whole, byte by byte, and split in two at
// every offset.
template <typename Parser>
void ExpectSplitInvariant(const std::string& wire, size_t messages) {
  const std::vector<std::string> whole = ParsePieces<Parser>({wire});
  ASSERT_EQ(whole.size(), messages);
  std::vector<std::string_view> bytes;
  for (size_t i = 0; i < wire.size(); ++i) {
    bytes.push_back(std::string_view(wire).substr(i, 1));
  }
  EXPECT_EQ(ParsePieces<Parser>(bytes), whole) << "byte by byte";
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    const std::string_view v(wire);
    ASSERT_EQ(ParsePieces<Parser>({v.substr(0, cut), v.substr(cut)}), whole)
        << "split at " << cut;
  }
}

// Bigger than the 16 KiB read buffer of the server and the client, so on a
// socket the body always spans several reads.
const std::string& BigBody() {
  static const std::string body = [] {
    std::string b;
    for (int i = 0; b.size() < 20000; ++i) {
      b += "row " + std::to_string(i) + "\n";
    }
    return b;
  }();
  return body;
}

TEST(ParserFixtureTest, RequestsParseIdenticallyAtEverySplit) {
  ExpectSplitInvariant<RequestParser>(
      "GET /day/7?lang=en HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n", 1);
  ExpectSplitInvariant<RequestParser>(
      "POST /feed HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n"
      "hello world",
      1);
  // A pipelined pair.
  ExpectSplitInvariant<RequestParser>(
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
      2);
  // A large body, then a pipelined request behind it.
  ExpectSplitInvariant<RequestParser>(
      "POST /bulk HTTP/1.1\r\nContent-Length: " +
          std::to_string(BigBody().size()) + "\r\n\r\n" + BigBody() +
          "GET /after HTTP/1.1\r\nHost: x\r\n\r\n",
      2);
}

TEST(ParserFixtureTest, ResponsesParseIdenticallyAtEverySplit) {
  ExpectSplitInvariant<ResponseParser>(
      "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nX-Cache: HIT\r\n"
      "Content-Length: 5\r\n\r\nhello",
      1);
  // A pipelined pair, the first without a body.
  ExpectSplitInvariant<ResponseParser>(
      "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n"
      "HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\ngone",
      2);
  ExpectSplitInvariant<ResponseParser>(
      "HTTP/1.1 200 OK\r\nContent-Length: " +
          std::to_string(BigBody().size()) + "\r\nX-Cache: HIT\r\n\r\n" +
          BigBody(),
      1);
}

TEST(ParserFixtureTest, RepeatedHeaderLastValueWins) {
  RequestParser parser;
  ASSERT_TRUE(parser
                  .Feed("GET / HTTP/1.1\r\nX-Dup: first\r\nHost: h\r\n"
                        "x-dup: second\r\n\r\n")
                  .ok());
  auto req = parser.Next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->headers.size(), 2u);
  EXPECT_EQ(req->headers.at("X-Dup"), "second");
  // The first spelling is the one kept (and later serialized).
  EXPECT_EQ(req->headers.find("x-dup")->first, "X-Dup");
}

TEST(ParserFixtureTest, MixedCaseLookupsMatch) {
  ResponseParser parser;
  ASSERT_TRUE(parser
                  .Feed("HTTP/1.1 200 OK\r\ncontent-TYPE: text/plain\r\n"
                        "X-NAGANO-version: 7\r\nContent-Length: 0\r\n\r\n")
                  .ok());
  auto resp = parser.Next();
  ASSERT_TRUE(resp.has_value());
  for (const char* name :
       {"Content-Type", "content-type", "CONTENT-TYPE", "cOnTeNt-TyPe"}) {
    EXPECT_EQ(resp->headers.count(name), 1u) << name;
    EXPECT_EQ(resp->headers.at(name), "text/plain") << name;
  }
  EXPECT_EQ(resp->headers.at("x-nagano-version"), "7");
  EXPECT_EQ(resp->headers.find("X-Nagano-Versio"), resp->headers.end());
  EXPECT_EQ(resp->headers.count("X-Nagano-Versio"), 0u);
  EXPECT_THROW(resp->headers.at("X-Nagano-Versio"), std::out_of_range);
}

// Pins the serialized bytes: header order is case-insensitive name order,
// a later differently-cased assignment keeps the first spelling, and a
// stale Content-Length in the map gives way to the computed one. The
// expected strings are the output of the std::map-based serializer this
// one replaced.
TEST(ParserFixtureTest, SerializeHeadersGoldenBytes) {
  HttpResponse r = HttpResponse::Ok("hello");
  r.headers["x-nagano-backend"] = "b1";
  r.headers["X-Cache"] = "MISS";
  r.headers["Retry-After"] = "5";
  r.headers["X_Under"] = "u";
  r.headers["X-CACHE"] = "HIT";
  r.headers["Content-Length"] = "999";
  std::string head;
  r.SerializeHeaders(head, "Date: Thu, 06 Aug 2026 00:00:00 GMT\r\n");
  EXPECT_EQ(head,
            "HTTP/1.1 200 OK\r\n"
            "Date: Thu, 06 Aug 2026 00:00:00 GMT\r\n"
            "Content-Type: text/html\r\n"
            "Retry-After: 5\r\n"
            "X-Cache: HIT\r\n"
            "x-nagano-backend: b1\r\n"
            "X_Under: u\r\n"
            "Content-Length: 5\r\n"
            "\r\n");

  HttpResponse cached;
  cached.status = 503;
  cached.reason = "Service Unavailable";
  cached.headers["Content-Type"] = "text/plain";
  cached.header_ref = std::make_shared<const std::string>(
      "Content-Length: 3\r\nX-Nagano-Version: 12\r\n");
  cached.body_ref = std::make_shared<const std::string>("abc");
  EXPECT_EQ(Wire(cached),
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Length: 3\r\nX-Nagano-Version: 12\r\n"
            "\r\nabc");

  HttpRequest req;
  req.method = "POST";
  req.target = "/feed?x=1";
  req.headers["Host"] = "nagano";
  req.headers["connection"] = "close";
  req.headers["Content-Length"] = "1";
  req.body = "payload";
  EXPECT_EQ(req.Serialize(),
            "POST /feed?x=1 HTTP/1.1\r\n"
            "connection: close\r\n"
            "Host: nagano\r\n"
            "Content-Length: 7\r\n"
            "\r\npayload");
}

// Round-trip property: serialize then parse reproduces the message.
class RoundtripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundtripTest, RequestSurvivesWire) {
  HttpRequest req;
  req.method = GetParam() % 2 ? "GET" : "POST";
  req.target = "/page/" + std::to_string(GetParam());
  req.headers["Host"] = "nagano.olympic.org";
  req.headers["X-Trace"] = std::to_string(GetParam() * 7);
  if (req.method == "POST") req.body = std::string(GetParam() * 10, 'b');

  RequestParser parser;
  ASSERT_TRUE(parser.Feed(req.Serialize()).ok());
  auto out = parser.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->method, req.method);
  EXPECT_EQ(out->target, req.target);
  EXPECT_EQ(out->body, req.body);
  EXPECT_EQ(out->headers.at("Host"), "nagano.olympic.org");
}

TEST_P(RoundtripTest, ResponseSurvivesWire) {
  HttpResponse resp;
  resp.status = 200 + GetParam();
  resp.reason = "Custom Reason";
  resp.body = std::string(GetParam() * 100, 'x');
  resp.headers["X-Cache"] = "HIT";

  ResponseParser parser;
  ASSERT_TRUE(parser.Feed(Wire(resp)).ok());
  auto out = parser.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, resp.status);
  EXPECT_EQ(out->reason, "Custom Reason");
  EXPECT_EQ(out->body, resp.body);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoundtripTest, ::testing::Values(0, 1, 3, 17, 64));

// --- live server ---------------------------------------------------------------------

class LiveServerTest : public ::testing::Test {
 protected:
  void StartEcho() {
    server_ = std::make_unique<HttpServer>([](const HttpRequest& req) {
      if (req.Path() == "/hello") return HttpResponse::Ok("world");
      if (req.Path() == "/echo") return HttpResponse::Ok(req.body);
      return HttpResponse::NotFound();
    });
    ASSERT_TRUE(server_->Start().ok());
  }
  std::unique_ptr<HttpServer> server_;
};

TEST_F(LiveServerTest, ServesGet) {
  StartEcho();
  auto resp = HttpClient::FetchOnce("127.0.0.1", server_->port(), "/hello");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "world");
}

TEST_F(LiveServerTest, Returns404) {
  StartEcho();
  auto resp = HttpClient::FetchOnce("127.0.0.1", server_->port(), "/ghost");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 404);
}

TEST_F(LiveServerTest, KeepAliveServesManyOnOneConnection) {
  StartEcho();
  HttpClient client("127.0.0.1", server_->port());
  for (int i = 0; i < 20; ++i) {
    auto resp = client.Get("/hello");
    ASSERT_TRUE(resp.ok()) << i;
    EXPECT_EQ(resp.value().body, "world");
  }
  // All twenty went over one accepted connection.
  EXPECT_EQ(server_->stats().connections_accepted, 1u);
  EXPECT_EQ(server_->stats().requests_served, 20u);
}

TEST_F(LiveServerTest, ClientReuseAccountingAndStaleReconnect) {
  StartEcho();
  HttpClient client("127.0.0.1", server_->port());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Get("/hello").ok()) << i;
  }
  // One connect paid, four roundtrips rode the pooled socket.
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(client.reuses(), 4u);
  EXPECT_EQ(client.stale_reconnects(), 0u);

  // The server goes away and comes back (same situation as a keep-alive
  // socket expired server-side): the client's next roundtrip finds the
  // stale socket, reconnects transparently, and still answers.
  const uint16_t port = server_->port();
  server_->Stop();
  server_ = std::make_unique<HttpServer>(
      [](const HttpRequest&) { return HttpResponse::Ok("back"); },
      [port] {
        HttpServer::Options options;
        options.port = port;
        return options;
      }());
  ASSERT_TRUE(server_->Start().ok());

  auto resp = client.Get("/hello");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().body, "back");
  EXPECT_EQ(client.stale_reconnects(), 1u);
  EXPECT_EQ(client.connects(), 2u);
}

TEST_F(LiveServerTest, ClientHonorsConnectTimeoutAgainstDeadPort) {
  // A port with (almost certainly) no listener: the bounded connect must
  // fail fast with kUnavailable instead of hanging for the kernel default.
  HttpClient::Options options;
  options.connect_timeout = 50 * kMillisecond;
  options.io_timeout = 50 * kMillisecond;
  HttpClient client("127.0.0.1", 1, options);
  const auto t0 = std::chrono::steady_clock::now();
  auto resp = client.Get("/hello");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), ErrorCode::kUnavailable);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST_F(LiveServerTest, PostBodyEchoed) {
  StartEcho();
  HttpClient client("127.0.0.1", server_->port());
  HttpRequest req;
  req.method = "POST";
  req.target = "/echo";
  req.body = "payload-data";
  auto resp = client.Roundtrip(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().body, "payload-data");
}

TEST_F(LiveServerTest, ConcurrentClients) {
  StartEcho();
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < 25; ++i) {
        auto resp = client.Get("/hello");
        if (resp.ok() && resp.value().body == "world") ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients * 25);
}

TEST_F(LiveServerTest, MalformedRequestGets400) {
  StartEcho();
  HttpClient raw("127.0.0.1", server_->port());
  HttpRequest bad;
  bad.method = "GET";
  bad.target = "/x";
  // Send raw garbage via a hand-rolled request. Use the client socket by
  // crafting an invalid serialized form through a custom header name with a
  // space (serializer emits it verbatim; server parser must reject).
  bad.headers["Bad Header"] = "v";
  auto resp = raw.Roundtrip(bad);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 400);
}

TEST_F(LiveServerTest, StopIsIdempotent) {
  StartEcho();
  server_->Stop();
  server_->Stop();
}

TEST_F(LiveServerTest, PortIsKernelAssigned) {
  StartEcho();
  EXPECT_GT(server_->port(), 0);
}

// --- connection handoff and drain ---------------------------------------------------

// A connected loopback TCP pair, {client end, accepted end}: the accepted
// end stands for a socket another component accepted and hands over.
std::pair<int, int> LoopbackPair() {
  uint16_t port = 0;
  Result<int> listener = Listen("127.0.0.1", 0, &port);
  EXPECT_TRUE(listener.ok());
  if (!listener.ok()) return {-1, -1};
  const int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  pollfd pfd{listener.value(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 2000), 1);
  const int accepted =
      ::accept4(listener.value(), nullptr, nullptr, SOCK_CLOEXEC);
  EXPECT_GE(accepted, 0);
  ::close(listener.value());
  return {client, accepted};
}

// One GET over a raw client socket.
std::optional<HttpResponse> RawGet(int fd, const std::string& target) {
  const std::string wire = "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  if (::write(fd, wire.data(), wire.size()) != ssize_t(wire.size())) {
    return std::nullopt;
  }
  ResponseParser parser;
  char buf[4096];
  for (;;) {
    if (auto response = parser.Next()) return response;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return std::nullopt;
    if (!parser.Feed(std::string_view(buf, size_t(n))).ok()) return std::nullopt;
  }
}

// Polls `done` for up to two seconds.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST_F(LiveServerTest, AdoptedConnectionIsServed) {
  StartEcho();
  auto [client, accepted] = LoopbackPair();
  ASSERT_GE(accepted, 0);
  ASSERT_TRUE(server_->Adopt(accepted).ok());
  // Counted like a connection the server accepted itself.
  EXPECT_EQ(server_->stats().connections_accepted, 1u);
  EXPECT_EQ(server_->adopted_connections(), 1u);
  for (int i = 0; i < 3; ++i) {
    const auto response = RawGet(client, "/hello");
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, "world");
  }
  EXPECT_EQ(server_->stats().requests_served, 3u);
  // The client hangs up; the server closes its end and stops counting it.
  ::close(client);
  EXPECT_TRUE(WaitFor([&] { return server_->adopted_connections() == 0; }));
  EXPECT_EQ(server_->stats().connections_closed, 1u);
}

TEST(HttpServerTest, AdoptOnStoppedServerLeavesFdWithCaller) {
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok(""); });
  auto [client, accepted] = LoopbackPair();
  ASSERT_GE(accepted, 0);
  // Never started, then started and stopped: both refuse the fd.
  EXPECT_EQ(server.Adopt(accepted).code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  EXPECT_EQ(server.Adopt(accepted).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.stats().connections_accepted, 0u);
  EXPECT_EQ(server.adopted_connections(), 0u);
  // The fd is still open and still the caller's to close.
  EXPECT_NE(::fcntl(accepted, F_GETFD), -1);
  EXPECT_EQ(::close(accepted), 0);
  ::close(client);
}

TEST(HttpServerTest, AdoptRacingStopNeitherLeaksNorDoubleClosesAnFd) {
  constexpr int kRounds = 10;
  constexpr int kPairs = 16;
  for (int round = 0; round < kRounds; ++round) {
    HttpServer server([](const HttpRequest&) { return HttpResponse::Ok(""); });
    ASSERT_TRUE(server.Start().ok());
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < kPairs; ++i) pairs.push_back(LoopbackPair());
    std::vector<bool> taken(kPairs, false);
    std::thread adopter([&] {
      for (int i = 0; i < kPairs; ++i) {
        taken[i] = server.Adopt(pairs[i].second).ok();
      }
    });
    server.Stop();
    adopter.join();
    uint64_t adopted = 0;
    for (int i = 0; i < kPairs; ++i) {
      const auto [client, accepted] = pairs[i];
      if (taken[i]) {
        // The server owned it and closed it: the client sees EOF.
        ++adopted;
        pollfd pfd{client, POLLIN, 0};
        ASSERT_EQ(::poll(&pfd, 1, 2000), 1) << "round " << round;
        char byte;
        EXPECT_EQ(::read(client, &byte, 1), 0) << "round " << round;
      } else {
        // Refused: still open, and still the caller's to close.
        EXPECT_NE(::fcntl(accepted, F_GETFD), -1) << "round " << round;
        EXPECT_EQ(::close(accepted), 0);
      }
      ::close(client);
    }
    EXPECT_EQ(server.stats().connections_accepted, adopted);
    EXPECT_EQ(server.stats().connections_closed, adopted);
    EXPECT_EQ(server.adopted_connections(), 0u);
  }
}

TEST_F(LiveServerTest, DrainModeClosesAfterNextResponseAndReapsIdle) {
  StartEcho();
  HttpClient active("127.0.0.1", server_->port());
  HttpClient idle("127.0.0.1", server_->port());
  ASSERT_TRUE(idle.Get("/hello").ok());
  auto before = active.Get("/hello");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().headers.count("Connection"), 0u);

  server_->BeginDrain(50 * kMillisecond);
  EXPECT_TRUE(server_->draining());
  // The next response on a keep-alive connection tells the client to go.
  auto during = active.Get("/hello");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during.value().body, "world");
  EXPECT_EQ(during.value().headers.at("Connection"), "close");
  EXPECT_FALSE(active.connected());
  // The idle connection never speaks again; the sweep closes it.
  EXPECT_TRUE(WaitFor([&] {
    const ServerStats stats = server_->stats();
    return stats.connections_closed == stats.connections_accepted;
  }));
  EXPECT_GE(server_->stats().idle_closed, 1u);

  server_->EndDrain();
  EXPECT_FALSE(server_->draining());
  HttpClient after("127.0.0.1", server_->port());
  auto resumed = after.Get("/hello");
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.value().headers.count("Connection"), 0u);
}

TEST(HttpServerTest, DoubleStartRejected) {
  HttpServer server([](const HttpRequest&) { return HttpResponse::Ok(""); });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
}

TEST(HttpClientTest, ConnectToClosedPortFails) {
  auto resp = HttpClient::FetchOnce("127.0.0.1", 1, "/x");
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), ErrorCode::kUnavailable);
}

// --- multi-reactor serving -------------------------------------------------------

HttpServer::Options ReactorOptions(size_t reactors) {
  HttpServer::Options options;
  options.reactors = reactors;
  return options;
}

HttpResponse RouteAb(const HttpRequest& req) {
  if (req.Path() == "/a") return HttpResponse::Ok("alpha");
  if (req.Path() == "/b") return HttpResponse::Ok("bravo");
  return HttpResponse::NotFound();
}

// Two pipelined requests in one TCP segment; both responses must come back
// in order on the same connection.
void ExpectPipelinedPair(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string wire =
      "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  ResponseParser parser;
  std::vector<HttpResponse> responses;
  char buf[4096];
  while (responses.size() < 2) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    ASSERT_TRUE(parser.Feed(std::string_view(buf, size_t(n))).ok());
    while (auto r = parser.Next()) responses.push_back(*r);
  }
  ::close(fd);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "alpha");
  EXPECT_EQ(responses[1].body, "bravo");
}

TEST(MultiReactorTest, PipelinedPairAtEveryReactorCount) {
  for (const size_t reactors : {size_t{1}, size_t{2}, size_t{8}}) {
    HttpServer server(RouteAb, ReactorOptions(reactors));
    ASSERT_TRUE(server.Start().ok()) << "reactors=" << reactors;
    // Several connections, so in round-robin mode the pair lands on
    // different reactors across iterations.
    for (int i = 0; i < 4; ++i) ExpectPipelinedPair(server.port());
    server.Stop();
  }
}

TEST(MultiReactorTest, RoundRobinDealsConnectionsEvenly) {
  HttpServer server(RouteAb, ReactorOptions(4));
  ASSERT_TRUE(server.Start().ok());
  // Eight sequential one-shot connections: the round-robin acceptor deals
  // exactly two to each reactor.
  for (int i = 0; i < 8; ++i) {
    auto resp = HttpClient::FetchOnce("127.0.0.1", server.port(), "/a");
    ASSERT_TRUE(resp.ok()) << i;
    EXPECT_EQ(resp.value().body, "alpha");
  }
  const auto per_reactor = server.reactor_requests();
  ASSERT_EQ(per_reactor.size(), 4u);
  uint64_t total = 0;
  for (uint64_t count : per_reactor) {
    EXPECT_EQ(count, 2u);
    total += count;
  }
  EXPECT_EQ(total, server.stats().requests_served);
  server.Stop();
}

TEST(MultiReactorTest, ZeroReactorsRejected) {
  HttpServer::Options options;
  options.reactors = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(MultiReactorTest, BodyCopyCounterSeparatesRefsFromOwned) {
  auto shared = std::make_shared<const std::string>("ref-counted-page");
  HttpServer server(
      [shared](const HttpRequest& req) {
        if (req.Path() == "/ref") {
          HttpResponse r;
          r.body_ref = shared;
          return r;
        }
        return HttpResponse::Ok("owned-body");
      },
      HttpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    auto resp = client.Get("/ref");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().body, "ref-counted-page");
  }
  // A reference-served body is never materialized into the write path.
  EXPECT_EQ(server.stats().body_copies, 0u);
  auto owned = client.Get("/owned");
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(owned.value().body, "owned-body");
  EXPECT_EQ(server.stats().body_copies, 1u);
  server.Stop();
}

TEST(MultiReactorTest, ResponsesCarryDateHeader) {
  HttpServer server(RouteAb, HttpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  auto resp = HttpClient::FetchOnce("127.0.0.1", server.port(), "/a");
  ASSERT_TRUE(resp.ok());
  auto it = resp.value().headers.find("Date");
  ASSERT_NE(it, resp.value().headers.end());
  EXPECT_TRUE(it->second.ends_with(" GMT"));
  // Calendar time, not monotonic uptime rendered as an epoch date.
  tm now_utc{};
  const time_t now = ::time(nullptr);
  gmtime_r(&now, &now_utc);
  EXPECT_NE(it->second.find(std::to_string(1900 + now_utc.tm_year)),
            std::string::npos)
      << it->second;
  server.Stop();
}

// --- write-stall guard -----------------------------------------------------------

// Slow-client flood: connections that request huge pages and never read a
// byte must be paused at the pending-write cap — without starving fast
// clients sharing the same reactor.
TEST(WriteStallTest, SlowClientFloodBoundedWithoutStarvingFastClients) {
  // Bigger than the kernel's maximum send buffer (tcp_wmem max), so a
  // non-draining peer is guaranteed to leave unflushed bytes queued.
  const std::string big(6 << 20, 'B');
  HttpServer::Options options;
  options.reactors = 1;  // flooders and fast clients share one event loop
  options.max_pending_write_bytes = 64 * 1024;
  HttpServer server(
      [&big](const HttpRequest& req) {
        if (req.Path() == "/big") return HttpResponse::Ok(big);
        return HttpResponse::Ok("tiny");
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kFlooders = 3;
  std::vector<int> flood_fds;
  for (int i = 0; i < kFlooders; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int rcvbuf = 4096;  // tiny receive window: the server backs up fast
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // Pipeline several huge requests, then never read.
    std::string wire;
    for (int j = 0; j < 4; ++j) wire += "GET /big HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_EQ(::write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    flood_fds.push_back(fd);
  }

  // Every flooder should trip the stall guard once its queue tops the cap.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().write_stalls < kFlooders &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().write_stalls, static_cast<uint64_t>(kFlooders));

  // Fast clients on the same (stalled) reactor are served promptly.
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    auto resp = client.Get("/hello");
    ASSERT_TRUE(resp.ok()) << i;
    EXPECT_EQ(resp.value().body, "tiny");
  }

  // A paused flooder stops being answered: of the 4 pipelined requests,
  // only the head of each queue was turned into a response.
  EXPECT_EQ(server.stats().requests_served,
            static_cast<uint64_t>(kFlooders + 20));

  for (int fd : flood_fds) ::close(fd);
  server.Stop();
}

// --- idle sweep ------------------------------------------------------------------

// The sweep runs on a timer, not after every epoll batch; a connection that
// keeps the reactor busy must not keep an idle neighbour alive.
TEST(IdleSweepTest, IdleConnectionReapedWhileReactorBusy) {
  HttpServer::Options options;
  options.reactors = 1;
  options.idle_timeout = 150 * kMillisecond;
  HttpServer server(RouteAb, options);
  ASSERT_TRUE(server.Start().ok());

  const int idle_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(idle_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Keep the one reactor busy with back-to-back requests until the sweep
  // has reaped the silent connection.
  HttpClient busy("127.0.0.1", server.port());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t served = 0;
  while (server.stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    auto resp = busy.Get("/a");
    ASSERT_TRUE(resp.ok());
    ++served;
  }
  EXPECT_EQ(server.stats().idle_closed, 1u);
  EXPECT_GT(served, 0u);

  // The server closed the idle socket: the client reads EOF.
  char byte;
  EXPECT_EQ(::read(idle_fd, &byte, 1), 0);
  ::close(idle_fd);
  // The busy connection was active throughout and is still open.
  EXPECT_EQ(busy.connects(), 1u);
  server.Stop();
}

}  // namespace
}  // namespace nagano::http
