#include "viz/ws_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>

namespace ruru {
namespace {

void wait_for_clients(const WsServer& server, std::size_t n) {
  for (int i = 0; i < 1000 && server.client_count() < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.client_count(), n);
}

/// A plain TCP connection to the server; no handshake is sent.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Sends `request` on `fd` and returns the server's reply.
std::string exchange(int fd, const char* request) {
  EXPECT_GT(::send(fd, request, std::strlen(request), 0), 0);
  char buf[256];
  const ssize_t n = ::recv(fd, buf, sizeof buf - 1, 0);
  EXPECT_GT(n, 0);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

void wait_for_rejections(const WsServer& server, std::uint64_t n) {
  for (int i = 0; i < 500 && server.rejected_handshakes() < n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.rejected_handshakes(), n);
}

TEST(WsServer, UpgradeHandshakeAndPush) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto fd = ws_client_connect("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.error();
  wait_for_clients(server, 1);
  EXPECT_EQ(server.upgrades(), 1u);

  EXPECT_EQ(server.broadcast_text(R"({"type":"arc_frame"})"), 1u);
  std::vector<std::uint8_t> carry;
  const auto payload = ws_client_recv_text(fd.value(), carry);
  ASSERT_TRUE(payload.ok()) << payload.error();
  EXPECT_EQ(payload.value(), R"({"type":"arc_frame"})");
  ::close(fd.value());
  server.close();
}

TEST(WsServer, MultipleClientsAllReceive) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto a = ws_client_connect("127.0.0.1", server.port());
  auto b = ws_client_connect("127.0.0.1", server.port(), "AAAAAAAAAAAAAAAAAAAAAA==");
  ASSERT_TRUE(a.ok() && b.ok());
  wait_for_clients(server, 2);

  EXPECT_EQ(server.broadcast_text("frame1"), 2u);
  std::vector<std::uint8_t> carry_a, carry_b;
  EXPECT_EQ(ws_client_recv_text(a.value(), carry_a).value(), "frame1");
  EXPECT_EQ(ws_client_recv_text(b.value(), carry_b).value(), "frame1");
  ::close(a.value());
  ::close(b.value());
}

TEST(WsServer, RejectsNonWebsocketRequest) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  const int fd = raw_connect(server.port());
  // No upgrade headers.
  const std::string reply = exchange(fd, "GET / HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(reply.find("400"), std::string::npos) << reply;
  ::close(fd);
  wait_for_rejections(server, 1);
  EXPECT_EQ(server.client_count(), 0u);
}

TEST(WsServer, HeaderNameMustStartItsLine) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  const int fd = raw_connect(server.port());
  // "X-Upgrade" merely contains "Upgrade": there is no Upgrade header.
  const std::string reply = exchange(fd,
                                     "GET /live HTTP/1.1\r\n"
                                     "Host: x\r\n"
                                     "X-Upgrade: websocket\r\n"
                                     "Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n");
  EXPECT_NE(reply.find("400"), std::string::npos) << reply;
  EXPECT_EQ(reply.find("101"), std::string::npos) << reply;
  ::close(fd);
  wait_for_rejections(server, 1);
  EXPECT_EQ(server.upgrades(), 0u);
  EXPECT_EQ(server.client_count(), 0u);
}

TEST(WsServer, SilentClientDoesNotStallOtherUpgrades) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  const int silent = raw_connect(server.port());
  auto other = std::async(std::launch::async,
                          [&server] { return ws_client_connect("127.0.0.1", server.port()); });
  const bool in_time = other.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Hanging up frees a server stuck reading the silent client, so a
  // failure ends here instead of hanging.
  ::close(silent);
  EXPECT_TRUE(in_time) << "a silent client held the accept thread";
  auto fd = other.get();
  ASSERT_TRUE(fd.ok()) << fd.error();
  wait_for_clients(server, 1);
  ::close(fd.value());
  server.close();
}

TEST(WsServer, CloseIsNotHeldBySilentClient) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  const int silent = raw_connect(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let the server accept it
  auto closing = std::async(std::launch::async, [&server] { server.close(); });
  const bool in_time = closing.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  ::close(silent);  // as above: a failure ends instead of hanging
  closing.get();
  EXPECT_TRUE(in_time) << "close() waited on a silent client";
}

TEST(WsServer, DisconnectedClientPruned) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  {
    auto fd = ws_client_connect("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok());
    wait_for_clients(server, 1);
    ::close(fd.value());
  }
  for (int i = 0; i < 100 && server.client_count() > 0; ++i) {
    server.broadcast_text(std::string(2048, 'x'));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.client_count(), 0u);
}

TEST(WsServer, BroadcastWithNoClients) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  EXPECT_EQ(server.broadcast_text("nobody home"), 0u);
}

TEST(WsServer, ManyFramesInOrder) {
  WsServer server;
  ASSERT_TRUE(server.bind(0).ok());
  auto fd = ws_client_connect("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  wait_for_clients(server, 1);
  for (int i = 0; i < 100; ++i) server.broadcast_text("frame-" + std::to_string(i));
  std::vector<std::uint8_t> carry;
  for (int i = 0; i < 100; ++i) {
    const auto p = ws_client_recv_text(fd.value(), carry);
    ASSERT_TRUE(p.ok()) << i;
    EXPECT_EQ(p.value(), "frame-" + std::to_string(i));
  }
  ::close(fd.value());
}

}  // namespace
}  // namespace ruru
