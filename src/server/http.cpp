#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

#include "util/format.h"

namespace ringclu {

namespace {

/// Sends all of \p data (MSG_NOSIGNAL: a vanished peer must surface as an
/// error return, never SIGPIPE).  Returns false on any send failure.
bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& ch : out) {
    ch = static_cast<char>(
        std::tolower(static_cast<unsigned char>(ch)));
  }
  return out;
}

/// Strict non-negative decimal parse for Content-Length; nullopt on
/// anything else (signs, blanks, overflow).
std::optional<std::size_t> parse_content_length(std::string_view text) {
  if (text.empty() || text.size() > 12) return std::nullopt;
  std::size_t value = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(ch - '0');
  }
  return value;
}

}  // namespace

std::string_view http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(HttpServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
    return false;
  }
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.address.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad address: " + options_.address;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) {
      *error = str_format("bind %s:%d: %s", options_.address.c_str(),
                          options_.port, strerror(errno));
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    // Unblock every connection read/write in flight.  The fds stay open
    // (their threads own the close) — shutdown only kicks the blockers.
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) {
    // shutdown (not just close) is what actually unblocks a pending
    // accept(2) on Linux.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::map<std::uint64_t, std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(connection_threads_);
    finished_connections_.clear();
  }
  for (auto& [serial, thread] : threads) {
    if (thread.joinable()) thread.join();
  }
}

void HttpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
      if (fd >= 0) open_fds_.insert(fd);
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket gone
    }
    // Per-read timeout so an idle keep-alive peer cannot pin the thread
    // forever.
    timeval timeout = {};
    timeout.tv_sec = options_.io_timeout_seconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::vector<std::thread> finished;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const std::uint64_t serial : finished_connections_) {
        auto node = connection_threads_.extract(serial);
        if (node) finished.push_back(std::move(node.mapped()));
      }
      finished_connections_.clear();
      const std::uint64_t serial = next_connection_++;
      // The thread's exit step takes mutex_, so it cannot record itself
      // as finished before it is in connection_threads_.
      auto serve = [this, fd, serial] {
        serve_connection(fd);
        const std::lock_guard<std::mutex> inner(mutex_);
        open_fds_.erase(fd);
        ::close(fd);
        finished_connections_.push_back(serial);
      };
      connection_threads_.emplace(serial, std::thread(std::move(serve)));
    }
    // These threads have returned (or are about to); joining them
    // releases their stacks.
    for (std::thread& thread : finished) thread.join();
  }
}

int HttpServer::read_request(int fd, HttpRequest* request) {
  std::string buffer;
  std::size_t header_end = std::string::npos;
  for (;;) {
    header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    if (buffer.size() > options_.max_header_bytes) return 431;
    char chunk[4096];
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) return -1;  // EOF, timeout or reset: close silently
    buffer.append(chunk, static_cast<std::size_t>(got));
  }

  // Request line: METHOD SP TARGET SP HTTP/1.x
  const std::string_view head = std::string_view(buffer).substr(0, header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return 400;
  request->method = std::string(line.substr(0, sp1));
  request->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = line.substr(sp2 + 1);
  if (request->method.empty() || request->target.empty() ||
      request->target.front() != '/') {
    return 400;
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return 505;

  // Headers.
  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view()
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view header =
        rest.substr(0, eol == std::string_view::npos ? rest.size() : eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 2);
    const std::size_t colon = header.find(':');
    if (colon == std::string_view::npos) return 400;
    request->headers[lower(trim(header.substr(0, colon)))] =
        std::string(trim(header.substr(colon + 1)));
  }

  // Body (Content-Length only; request chunking is out of scope).
  if (request->headers.count("transfer-encoding") != 0) return 501;
  std::size_t content_length = 0;
  const auto it = request->headers.find("content-length");
  if (it != request->headers.end()) {
    const std::optional<std::size_t> parsed =
        parse_content_length(it->second);
    if (!parsed) return 400;
    content_length = *parsed;
  }
  if (content_length > options_.max_body_bytes) return 413;
  request->body = buffer.substr(header_end + 4);
  while (request->body.size() < content_length) {
    char chunk[4096];
    const std::size_t want = std::min(
        sizeof(chunk), content_length - request->body.size());
    const ssize_t got = ::recv(fd, chunk, want, 0);
    if (got <= 0) return -1;
    request->body.append(chunk, static_cast<std::size_t>(got));
  }
  if (request->body.size() > content_length) return 400;  // pipelining: no
  return 0;
}

void HttpServer::send_response(int fd, const HttpRequest& request,
                               const HttpResponse& response,
                               bool keep_alive) {
  (void)request;
  std::string head = str_format(
      "HTTP/1.1 %d %.*s\r\nContent-Type: %s\r\n", response.status,
      static_cast<int>(http_status_reason(response.status).size()),
      http_status_reason(response.status).data(),
      response.content_type.c_str());
  if (response.streamer) {
    head += "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    if (!send_all(fd, head)) return;
    const ChunkWriter write_chunk = [fd](std::string_view chunk) {
      if (chunk.empty()) return true;  // "0\r\n" would end the stream
      std::string framed =
          str_format("%zx\r\n", chunk.size());
      framed.append(chunk);
      framed += "\r\n";
      return send_all(fd, framed);
    };
    response.streamer(write_chunk);
    send_all(fd, "0\r\n\r\n");
    return;
  }
  head += str_format("Content-Length: %zu\r\nConnection: %s\r\n\r\n",
                     response.body.size(),
                     keep_alive ? "keep-alive" : "close");
  // One send for head and body: two small writes let Nagle's algorithm
  // hold the body until the peer's delayed ACK of the head, which stalls
  // every keep-alive response by tens of milliseconds.
  head += response.body;
  send_all(fd, head);
}

void HttpServer::serve_connection(int fd) {
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    HttpRequest request;
    const int parse = read_request(fd, &request);
    if (parse < 0) return;
    if (parse > 0) {
      HttpResponse error;
      error.status = parse;
      error.body = str_format(
          "{\"error\":\"%.*s\"}",
          static_cast<int>(http_status_reason(parse).size()),
          http_status_reason(parse).data());
      send_response(fd, request, error, /*keep_alive=*/false);
      return;
    }
    const bool keep_alive =
        request.headers.count("connection") == 0 ||
        lower(request.headers.at("connection")) != "close";
    const HttpResponse response = handler_(request);
    send_response(fd, request, response, keep_alive);
    // Streamed responses always close (the stream has no length marker
    // beyond the final chunk, and the metrics stream is one-shot anyway).
    if (response.streamer || !keep_alive) return;
  }
}

}  // namespace ringclu
