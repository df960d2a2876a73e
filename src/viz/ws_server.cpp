#include "viz/ws_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "viz/websocket.hpp"

namespace ruru {

namespace {

/// Bound on each read of a client's upgrade request.
constexpr timeval kHandshakeTimeout{1, 0};

bool send_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until "\r\n\r\n" or `max` bytes; returns the header block.
Result<std::string> read_http_headers(int fd, std::size_t max = 8192) {
  std::string buf;
  char chunk[512];
  while (buf.size() < max) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return make_error("ws: connection closed during handshake");
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.find("\r\n\r\n") != std::string::npos) return buf;
  }
  return make_error("ws: oversized handshake request");
}

/// Case-insensitive lookup of header field `name` in a raw HTTP block.
/// Only a header line that starts with the name matches, so
/// "X-Upgrade: websocket" is not an Upgrade header.
std::string find_header(const std::string& block, std::string_view name) {
  const auto same = [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) ==
           std::tolower(static_cast<unsigned char>(b));
  };
  // Header lines follow the request line and end at the blank line.
  for (std::size_t start = block.find("\r\n"); start != std::string::npos;) {
    start += 2;
    const std::size_t end = block.find("\r\n", start);
    if (end == std::string::npos || end == start) break;
    const std::string_view line(block.data() + start, end - start);
    start = end;
    if (line.size() <= name.size() || line[name.size()] != ':' ||
        !std::equal(name.begin(), name.end(), line.begin(), same)) {
      continue;
    }
    const std::string_view value = line.substr(name.size() + 1);
    const std::size_t first = value.find_first_not_of(' ');
    if (first == std::string_view::npos) return {};
    return std::string(value.substr(first, value.find_last_not_of(' ') - first + 1));
  }
  return {};
}

}  // namespace

WsServer::~WsServer() { close(); }

Status WsServer::bind(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return make_error("ws: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return make_error("ws: bind/listen failed: " + std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
  return {};
}

void WsServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;
    }
    if (perform_upgrade(fd)) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      // A stalled browser tab must not stall the feed: bounded sends,
      // then the client is dropped.
      timeval send_timeout{0, 100'000};
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof send_timeout);
      std::lock_guard lock(mu_);
      clients_.push_back(fd);
      upgrades_.fetch_add(1);
    } else {
      rejected_.fetch_add(1);
      ::close(fd);
    }
  }
}

bool WsServer::perform_upgrade(int fd) {
  // One accept thread upgrades every client, so a client that connects
  // and stays silent must not hold it (or close()) for longer than this.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &kHandshakeTimeout, sizeof kHandshakeTimeout);
  auto request = read_http_headers(fd);
  if (!request) return false;
  const std::string& req = request.value();
  if (req.rfind("GET ", 0) != 0) return false;
  const std::string key = find_header(req, "Sec-WebSocket-Key");
  const std::string upgrade = find_header(req, "Upgrade");
  if (key.empty() || upgrade.find("websocket") == std::string::npos) {
    const char* bad = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
    send_all(fd, bad, std::strlen(bad));
    return false;
  }
  const std::string response = "HTTP/1.1 101 Switching Protocols\r\n"
                               "Upgrade: websocket\r\n"
                               "Connection: Upgrade\r\n"
                               "Sec-WebSocket-Accept: " +
                               websocket_accept_key(key) + "\r\n\r\n";
  return send_all(fd, response.data(), response.size());
}

std::size_t WsServer::broadcast_text(std::string_view payload) {
  const auto frame = ws_encode_text(payload);
  std::lock_guard lock(mu_);
  std::size_t reached = 0;
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (send_all(*it, frame.data(), frame.size())) {
      ++reached;
      ++it;
    } else {
      ::close(*it);
      it = clients_.erase(it);
    }
  }
  return reached;
}

std::size_t WsServer::client_count() const {
  std::lock_guard lock(mu_);
  return clients_.size();
}

void WsServer::close() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::lock_guard lock(mu_);
  for (const int fd : clients_) ::close(fd);
  clients_.clear();
  listen_fd_ = -1;
}

Result<int> ws_client_connect(const std::string& host, std::uint16_t port,
                              const std::string& key) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return make_error("ws-client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return make_error("ws-client: connect failed");
  }
  const std::string request = "GET /live HTTP/1.1\r\n"
                              "Host: " + host + "\r\n"
                              "Upgrade: websocket\r\n"
                              "Connection: Upgrade\r\n"
                              "Sec-WebSocket-Key: " + key + "\r\n"
                              "Sec-WebSocket-Version: 13\r\n\r\n";
  if (!send_all(fd, request.data(), request.size())) {
    ::close(fd);
    return make_error("ws-client: handshake send failed");
  }
  auto response = read_http_headers(fd);
  if (!response) {
    ::close(fd);
    return make_error(response.error());
  }
  const std::string expected = websocket_accept_key(key);
  if (response.value().find("101") == std::string::npos ||
      response.value().find(expected) == std::string::npos) {
    ::close(fd);
    return make_error("ws-client: upgrade rejected");
  }
  return fd;
}

Result<std::string> ws_client_recv_text(int fd, std::vector<std::uint8_t>& carry) {
  std::uint8_t chunk[4096];
  while (carry.size() < (1u << 20)) {
    if (auto frame = ws_decode_frame(carry)) {
      std::string payload(frame->payload.begin(), frame->payload.end());
      carry.erase(carry.begin(), carry.begin() + static_cast<std::ptrdiff_t>(frame->wire_size));
      return payload;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return make_error("ws-client: connection closed");
    }
    carry.insert(carry.end(), chunk, chunk + n);
  }
  return make_error("ws-client: frame too large");
}

}  // namespace ruru
