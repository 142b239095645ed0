#pragma once

/// \file http.h
/// Minimal, dependency-free HTTP/1.1 server for ringclu_simd.
///
/// Scope is deliberately tiny — exactly what the daemon's JSON API needs
/// and nothing more: request line + headers + Content-Length bodies in,
/// fixed or chunked responses out, keep-alive, loopback by default.  No
/// TLS, no compression, no request chunking, no URL decoding beyond the
/// path/query split (the API uses plain ASCII paths).
///
/// Every request is parsed under hard resource limits (header bytes, body
/// bytes, I/O timeout) because the peer is untrusted: oversized or
/// malformed input gets a clean 4xx JSON error, never an unbounded
/// allocation.  The JSON *bodies* are bounded separately by the
/// JsonParseLimits the server layer passes to json_parse.
///
/// Threading: one accept thread plus one thread per live connection.
/// The accept loop joins the threads of closed connections as it accepts
/// new ones, so a long-running daemon holds threads only for the
/// connections that are still open.  The handler is invoked concurrently
/// from connection threads and must be thread-safe.  stop() unblocks
/// every connection's reads (shutdown(2) of the read side), lets a
/// response already being written finish, and joins all threads; see
/// DESIGN.md §13.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ringclu {

/// One parsed request.  Header names are lower-cased; values are
/// whitespace-trimmed.  \c target is the raw request target (path plus
/// optional "?query"); the server layer splits it.
struct HttpRequest {
  std::string method;
  std::string target;
  // Keyed lookups only (the parser lower-cases names); std::map keeps any
  // future iteration deterministic for free.
  std::map<std::string, std::string> headers;
  std::string body;
};

/// A chunk writer: sends one chunk of a streaming response body.  Returns
/// false when the peer is gone (the streamer should stop producing).
using ChunkWriter = std::function<bool(std::string_view)>;

/// One response.  Set \c body for a fixed response (Content-Length), or
/// \c streamer for Transfer-Encoding: chunked — the streamer is called
/// once on the connection thread and pushes chunks until it returns; the
/// connection closes after a streamed response.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::function<void(const ChunkWriter&)> streamer;
};

/// The reason phrase for \p status ("OK", "Not Found", ...).
[[nodiscard]] std::string_view http_status_reason(int status);

struct HttpServerOptions {
  /// Bind address.  Loopback by default: the daemon is a local service;
  /// exposing it wider is an explicit operator decision.
  std::string address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (query it via port()).
  int port = 0;
  /// Request line + headers budget; beyond it the request is rejected
  /// with 431 before any allocation proportional to the excess.
  std::size_t max_header_bytes = 16 * 1024;
  /// Body budget (413 beyond it).  The daemon's largest legitimate body
  /// is an inline-config sweep spec, far below 1 MiB.
  std::size_t max_body_bytes = 1 << 20;
  /// Per-read and per-write socket timeout (SO_RCVTIMEO, SO_SNDTIMEO),
  /// seconds: a stalled or idle keep-alive connection, or a peer that
  /// stops reading a response, releases its thread after this long.
  int io_timeout_seconds = 30;
};

/// The socket server.  Construct, start(), handle requests via the
/// callback, stop() (or destroy) to shut down.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(HttpServerOptions options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and starts the accept thread.  Returns false (with a
  /// message in \p error) when the socket cannot be bound.
  [[nodiscard]] bool start(std::string* error);

  /// Stops accepting, lets responses being written finish, unblocks and
  /// joins every connection thread.  Idempotent.
  void stop();

  /// The bound port (resolves option port 0).  \pre start() succeeded.
  [[nodiscard]] int port() const { return port_; }

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Reads one request off \p fd.  Returns 0 on success, -1 on EOF /
  /// error / timeout (close silently), or an HTTP status code for a
  /// malformed request (the caller sends the error and closes).
  int read_request(int fd, HttpRequest* request);
  void send_response(int fd, const HttpRequest& request,
                     const HttpResponse& response, bool keep_alive);

  HttpServerOptions options_;
  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;

  std::mutex mutex_;
  bool stopping_ = false;
  /// Live connection sockets: stop() shuts their read sides so blocked
  /// reads return immediately.
  std::set<int> open_fds_;
  /// Connection threads by serial number, and the serials of those that
  /// have returned and wait to be joined by the accept loop.
  std::map<std::uint64_t, std::thread> connection_threads_;
  std::vector<std::uint64_t> finished_connections_;
  std::uint64_t next_connection_ = 0;
};

}  // namespace ringclu
