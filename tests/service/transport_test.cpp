// Transport robustness: the byte-level contracts under the protocol —
// recv_line's size cap, structured error codes, client deadlines and
// connect retries. These are the pieces the fleet tier leans on when
// workers die mid-stream.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace am::service {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(RecvLine, ReadsLinesSplitAcrossWrites) {
  SocketPair sp;
  ASSERT_TRUE(write_all(sp.a, "hel"));
  ASSERT_TRUE(write_all(sp.a, "lo\nwor"));
  ASSERT_TRUE(write_all(sp.a, "ld\n"));
  std::string buffer, line;
  EXPECT_EQ(recv_line(sp.b, &buffer, &line), RecvStatus::kOk);
  EXPECT_EQ(line, "hello");
  EXPECT_EQ(recv_line(sp.b, &buffer, &line), RecvStatus::kOk);
  EXPECT_EQ(line, "world");
}

TEST(RecvLine, ReportsCleanCloseAsClosed) {
  SocketPair sp;
  ASSERT_TRUE(write_all(sp.a, "partial-without-newline"));
  ::close(sp.a);
  sp.a = -1;
  std::string buffer, line;
  EXPECT_EQ(recv_line(sp.b, &buffer, &line), RecvStatus::kClosed);
}

TEST(RecvLine, EnforcesByteCapAsTooLarge) {
  SocketPair sp;
  const std::string big(512, 'x');  // no newline: an unbounded-line attack
  ASSERT_TRUE(write_all(sp.a, big));
  std::string buffer, line;
  EXPECT_EQ(recv_line(sp.b, &buffer, &line, /*max_bytes=*/256),
            RecvStatus::kTooLarge);
  EXPECT_TRUE(buffer.empty());  // poisoned buffer is discarded, not kept
}

TEST(RecvLine, CapAllowsLinesUpToTheLimit) {
  SocketPair sp;
  const std::string line_in(100, 'y');
  ASSERT_TRUE(write_all(sp.a, line_in + "\n"));
  std::string buffer, line;
  EXPECT_EQ(recv_line(sp.b, &buffer, &line, /*max_bytes=*/256),
            RecvStatus::kOk);
  EXPECT_EQ(line, line_in);
}

TEST(WriteAll, GivesUpOneStallAfterATcpPeerStopsReading) {
  // A loopback TCP peer that never reads, and a non-blocking writer as the
  // server's workers hold. Once both buffers are full, the receiver's
  // window can reopen by a few bytes, which frees send-buffer space below
  // the writable mark: poll still times out, but a send would take those
  // bytes and restart the stall (unix sockets have no such slack). The
  // write must end one stall bound after its last progress, not two.
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 0;
  std::string error;
  const int lfd = listen_on(ep, &error);
  ASSERT_GE(lfd, 0) << error;
  ep.port = bound_port(lfd);
  const int reader = connect_to(ep, &error);
  ASSERT_GE(reader, 0) << error;
  const int writer = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK);
  ASSERT_GE(writer, 0) << std::strerror(errno);

  const std::string data(8 << 20, 'x');  // past any autotuned buffer pair
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(write_all(writer, data));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, kWriteStall);
  // Filling the buffers takes milliseconds; a restarted stall takes 2 s.
  EXPECT_LT(elapsed, kWriteStall + std::chrono::seconds(1))
      << std::chrono::duration<double>(elapsed).count() << " s";
  ::close(writer);
  ::close(reader);
  ::close(lfd);
}

TEST(Protocol, CodedErrorEnvelopeRoundTrips) {
  const std::string line =
      make_error_response("req-9", errcode::kUnavailable, "try later");
  EXPECT_EQ(response_error_code(line), errcode::kUnavailable);
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("\"id\":\"req-9\""), std::string::npos);
  EXPECT_NE(line.find("\"error\":\"try later\""), std::string::npos);
}

TEST(Protocol, LegacyErrorEnvelopeHasNoCode) {
  const std::string line = make_error_response("req-9", "plain message");
  EXPECT_EQ(response_error_code(line), "");
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
}

TEST(Protocol, SuccessEnvelopeHasNoCode) {
  EXPECT_EQ(response_error_code(
                R"({"v":"am-serve/1","ok":true,"result":{"pong":true}})"),
            "");
}

TEST(Server, OversizedRequestLineGetsStructuredTooLarge) {
  ServiceCore core({});
  ServerConfig config;
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 0;
  config.listen.push_back(ep);
  config.max_line_bytes = 1024;
  config.metrics = false;
  Server server(core, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ServiceClient client;
  ASSERT_TRUE(client.connect(server.bound_endpoints().front(), &error))
      << error;
  const std::string oversized =
      R"({"kind":"predict","junk":")" + std::string(4096, 'z') + "\"}";
  const auto response = client.roundtrip(oversized, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response_error_code(*response), errcode::kRequestTooLarge);

  Server::request_shutdown();
  server.wait();
}

TEST(Server, ByteCapCountsOneLineNotAPipelinedBurst) {
  // 200 pipelined pings are far more than the cap in one read, yet each
  // line is tiny; only a single line over the cap is refused.
  ServiceCore core({});
  ServerConfig config;
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 0;
  config.listen.push_back(ep);
  config.max_line_bytes = 1024;
  config.metrics = false;
  Server server(core, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ServiceClient client;
  client.set_timeout_ms(10000);
  ASSERT_TRUE(client.connect(server.bound_endpoints().front(), &error))
      << error;
  constexpr std::size_t kPings = 200;
  std::string burst;
  for (std::size_t i = 0; i < kPings; ++i) {
    burst += R"({"kind":"ping","id":"p)" + std::to_string(i) + "\"}\n";
  }
  ASSERT_GT(burst.size(), 2 * config.max_line_bytes);
  std::vector<std::string> replies;
  std::optional<std::string> refusal;
  if (client.send_line(burst)) {
    for (std::string reply; replies.size() < kPings &&
                            client.recv_line(&reply);) {
      replies.push_back(reply);
    }
    const std::string oversized =
        R"({"kind":"ping","junk":")" + std::string(2048, 'z') + "\"}";
    refusal = client.roundtrip(oversized, &error);
  }
  Server::request_shutdown();
  server.wait();

  ASSERT_EQ(replies.size(), kPings);
  for (std::size_t i = 0; i < kPings; ++i) {
    EXPECT_NE(replies[i].find("\"id\":\"p" + std::to_string(i) + "\""),
              std::string::npos)
        << replies[i];
    EXPECT_NE(replies[i].find("\"pong\":true"), std::string::npos)
        << replies[i];
  }
  ASSERT_TRUE(refusal.has_value()) << error;
  EXPECT_EQ(response_error_code(*refusal), errcode::kRequestTooLarge);
}

TEST(Server, MultiMegabyteRequestJustOverCapAnswersStructured) {
  // The am_client --file path ships whole request bodies from disk — a
  // run_guest line with a base64 ELF payload is naturally megabytes. Just
  // over the cap (overshoot small enough to sit in socket buffers) the
  // send completes and the structured answer must come back.
  ServiceCore core({});
  ServerConfig config;
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 0;
  config.listen.push_back(ep);
  config.max_line_bytes = 1 << 20;
  config.metrics = false;
  Server server(core, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ServiceClient client;
  client.set_timeout_ms(10000);
  ASSERT_TRUE(client.connect(server.bound_endpoints().front(), &error))
      << error;
  const std::string line = R"({"kind":"run_guest","elf":")" +
                           std::string((1 << 20) + (32 << 10), 'A') + "\"}";
  const auto response = client.roundtrip(line, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response_error_code(*response), errcode::kRequestTooLarge);

  Server::request_shutdown();
  server.wait();
}

TEST(Server, FourMegabyteRequestNeverWedgesTheServer) {
  // Far over the cap the server answers once and hangs up mid-send; the
  // client either reads the structured error or sees a clean transport
  // failure (never a hang — deadlines bound both sides), and the server
  // must keep serving new connections afterwards.
  ServiceCore core({});
  ServerConfig config;
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 0;
  config.listen.push_back(ep);
  config.max_line_bytes = 1 << 20;
  config.metrics = false;
  Server server(core, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ServiceClient big;
  big.set_timeout_ms(10000);
  ASSERT_TRUE(big.connect(server.bound_endpoints().front(), &error)) << error;
  const std::string line =
      R"({"kind":"run_guest","elf":")" + std::string(4 << 20, 'A') + "\"}";
  const auto response = big.roundtrip(line, &error);
  if (response.has_value()) {
    EXPECT_EQ(response_error_code(*response), errcode::kRequestTooLarge);
  }

  ServiceClient after;
  after.set_timeout_ms(10000);
  ASSERT_TRUE(after.connect(server.bound_endpoints().front(), &error))
      << error;
  const auto pong =
      after.roundtrip(R"({"v":"am-serve/1","kind":"ping"})", &error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_NE(pong->find("\"pong\":true"), std::string::npos);

  Server::request_shutdown();
  server.wait();
}

TEST(Client, ConnectRetrySucceedsWhenServerAppearsLate) {
  // Reserve a port, close it, then start the real server there after a
  // delay; the client must survive the gap via backoff retries.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  ServiceCore core({});
  ServerConfig config;
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = port;
  config.listen.push_back(ep);
  config.metrics = false;

  std::thread late_start([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    Server server(core, config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    Server::request_shutdown();
    server.wait();
  });

  ServiceClient client;
  client.set_timeout_ms(2000);
  std::string error;
  EXPECT_TRUE(client.connect_retry(ep, /*retries=*/20, /*backoff_ms=*/25,
                                   /*jitter_seed=*/1, &error))
      << error;
  const auto response = client.roundtrip(R"({"kind":"ping"})", &error);
  EXPECT_TRUE(response.has_value()) << error;
  late_start.join();
}

TEST(Client, DeadlineOnSilentPeerReportsTimeout) {
  // A listener that accepts and then says nothing: a hung worker, as seen
  // by a client with a deadline.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  std::thread silent([lfd] {
    const int conn = ::accept(lfd, nullptr, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    if (conn >= 0) ::close(conn);
  });

  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = ntohs(addr.sin_port);
  ServiceClient client;
  client.set_timeout_ms(100);
  std::string error;
  ASSERT_TRUE(client.connect(ep, &error)) << error;
  const auto t0 = std::chrono::steady_clock::now();
  const auto response = client.roundtrip(R"({"kind":"ping"})", &error);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(client.last_status(), RecvStatus::kTimeout);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
  silent.join();
  ::close(lfd);
}

}  // namespace
}  // namespace am::service
