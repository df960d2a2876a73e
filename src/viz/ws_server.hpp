#pragma once
// Minimal WebSocket push server — the transport §2 uses to deliver
// enriched measurements "to the frontend (using WebSockets) that
// displays the results in real-time".
//
// Server-side only, push-only (the map never sends data back except
// pings): accepts TCP connections on loopback, performs the RFC 6455
// HTTP upgrade using websocket_accept_key(), then broadcast()s text
// frames to every upgraded client.  Clients that stall or disconnect
// are dropped, never waited on — same policy as the bus.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/result.hpp"

namespace ruru {

class WsServer {
 public:
  WsServer() = default;
  ~WsServer();
  WsServer(const WsServer&) = delete;
  WsServer& operator=(const WsServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start accepting +
  /// upgrading clients in a background thread.
  Status bind(std::uint16_t port);

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Send one text frame to every upgraded client. Returns clients
  /// reached.
  std::size_t broadcast_text(std::string_view payload);

  [[nodiscard]] std::size_t client_count() const;
  [[nodiscard]] std::uint64_t upgrades() const { return upgrades_.load(); }
  [[nodiscard]] std::uint64_t rejected_handshakes() const { return rejected_.load(); }

  void close();

 private:
  void accept_loop();
  /// Reads the HTTP request (each read bounded by a fixed receive
  /// timeout), validates the upgrade, replies 101.
  bool perform_upgrade(int fd);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex mu_;
  std::vector<int> clients_;
  std::atomic<std::uint64_t> upgrades_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// Client-side handshake helper for tests/tools: connects, sends the
/// upgrade request with `key`, verifies the accept header. Returns the
/// connected fd or an error.
Result<int> ws_client_connect(const std::string& host, std::uint16_t port,
                              const std::string& key = "dGhlIHNhbXBsZSBub25jZQ==");

/// Blocking read of one WebSocket frame's payload from `fd` (test
/// helper; assumes text frames < 1 MB).  `carry` holds bytes received
/// beyond the returned frame (TCP coalesces frames); pass the same
/// buffer to every call on one connection.
Result<std::string> ws_client_recv_text(int fd, std::vector<std::uint8_t>& carry);

}  // namespace ruru
