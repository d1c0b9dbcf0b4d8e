// Socket-level tests of the slim_serve daemon loop (serve/server.h): a
// real AF_UNIX round trip against RunServer on a background thread —
// handshake, request/reply framing (byte-at-a-time and many lines per
// write), SUBSCRIBE event push, oversized-line recovery, and graceful
// shutdown via both SHUTDOWN and the stop flag.
#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "serve/protocol.h"

namespace slim {
namespace {

SlimConfig ServeTestConfig() {
  SlimConfig c;
  c.candidates = CandidateKind::kBruteForce;
  c.threads = 2;
  return c;
}

/// Blocking line-oriented client of one daemon socket.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The server thread may not have bound yet; retry briefly.
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        connected_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& line) { SendBytes(line + "\n"); }

  /// Writes `bytes` as they are (no terminator added).
  void SendBytes(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<size_t>(n);
    }
  }

  /// Next '\n'-terminated line; "" on EOF.
  std::string ReadLine() {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

  std::string Roundtrip(const std::string& line) {
    Send(line);
    return ReadLine();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// RunServer on a background thread, joined and cleaned up on scope exit.
class DaemonFixture {
 public:
  DaemonFixture() {
    socket_path_ = ::testing::TempDir() + "slim_serve_test_" +
                   std::to_string(::getpid()) + "_" +
                   std::to_string(counter_++) + ".sock";
    service_ = std::make_unique<LinkageService>(ServeTestConfig());
    ServeOptions options;
    options.socket_path = socket_path_;
    options.poll_interval_ms = 20;
    thread_ = std::thread([this, options] {
      status_ = RunServer(options, service_.get(), &stop_);
    });
  }
  ~DaemonFixture() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    ::unlink(socket_path_.c_str());
  }

  const std::string& socket_path() const { return socket_path_; }
  const Status& status() const { return status_; }
  void Join() { thread_.join(); }
  bool Joinable() const { return thread_.joinable(); }

 private:
  static inline std::atomic<int> counter_{0};
  std::string socket_path_;
  std::unique_ptr<LinkageService> service_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  Status status_;
};

TEST(ServeDaemon, HandshakeAndRequestReply) {
  DaemonFixture daemon;
  LineClient client(daemon.socket_path());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.ReadLine().rfind("HELLO slim-serve-v1 ", 0), 0u);

  EXPECT_EQ(client
                .Roundtrip("INGEST A 1 37.7749 -122.4194 600 "
                           "1 37.7755 -122.4180 1500")
                .rfind("OK ingested=2 ", 0),
            0u);
  EXPECT_EQ(client.Roundtrip("STATS").rfind("OK epoch=0 ", 0), 0u);
  EXPECT_EQ(client.Roundtrip("FROBNICATE").rfind("ERR bad-command ", 0), 0u);
}

TEST(ServeDaemon, SubscriberReceivesEpochEvents) {
  DaemonFixture daemon;
  LineClient subscriber(daemon.socket_path());
  LineClient worker(daemon.socket_path());
  ASSERT_TRUE(subscriber.connected() && worker.connected());
  subscriber.ReadLine();  // HELLO
  worker.ReadLine();      // HELLO
  EXPECT_EQ(subscriber.Roundtrip("SUBSCRIBE"), "OK subscribed epoch=0");

  // Two entities per side: with one entity per side every IDF is
  // log(1/1) = 0 and no score is positive. The decoys sit degrees away.
  worker.Send(
      "INGEST A 1 37.7749 -122.4194 600 1 37.7755 -122.4180 1500 "
      "1 37.7760 -122.4170 2400 2 36.0000 -120.0000 600");
  worker.ReadLine();
  worker.Send(
      "INGEST B 9 37.7749 -122.4194 620 9 37.7755 -122.4180 1520 "
      "9 37.7760 -122.4170 2420 8 39.0000 -124.5000 600");
  worker.ReadLine();
  EXPECT_EQ(worker.Roundtrip("LINK").rfind("OK epoch=1 ", 0), 0u);

  // The subscriber sees the delta feed, additions then the seal line.
  EXPECT_EQ(subscriber.ReadLine().rfind("EVENT epoch=1 link + 1 9 ", 0), 0u);
  EXPECT_EQ(subscriber.ReadLine(), "EVENT epoch=1 sealed links=1");
  // The issuing (non-subscribed) connection got only its reply: the next
  // round trip answers immediately, no stray events in between.
  EXPECT_EQ(worker.Roundtrip("TOPK 1 1").rfind("OK matches=1 9:", 0), 0u);
}

TEST(ServeDaemon, OversizedLineAnsweredAndRecovered) {
  DaemonFixture daemon;
  LineClient client(daemon.socket_path());
  ASSERT_TRUE(client.connected());
  client.ReadLine();  // HELLO

  // > 64 KiB without a newline: one ERR too-long, then the tail of the
  // oversized request is discarded and the session keeps working.
  client.Send(std::string(kMaxProtocolLineBytes + 100, 'A'));
  EXPECT_EQ(client.ReadLine().rfind("ERR too-long ", 0), 0u);
  EXPECT_EQ(client.Roundtrip("STATS").rfind("OK epoch=0 ", 0), 0u);
}

TEST(ServeDaemon, LineDeliveredOneByteAtATime) {
  DaemonFixture daemon;
  LineClient client(daemon.socket_path());
  ASSERT_TRUE(client.connected());
  client.ReadLine();  // HELLO

  // Every byte its own write, paced so the daemon frames across many
  // reads; the CRLF terminator is stripped as for a whole line.
  const std::string line =
      "INGEST A 1 37.7749 -122.4194 600 1 37.7755 -122.4180 1500\r\n";
  for (const char c : line) {
    client.SendBytes(std::string(1, c));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(client.ReadLine().rfind("OK ingested=2 ", 0), 0u);
  EXPECT_EQ(client.Roundtrip("STATS").rfind("OK epoch=0 ", 0), 0u);
}

TEST(ServeDaemon, SeveralLinesInOneWrite) {
  DaemonFixture daemon;
  LineClient client(daemon.socket_path());
  ASSERT_TRUE(client.connected());
  client.ReadLine();  // HELLO

  // Three requests and the head of a fourth in one write: three replies
  // in order, and the fourth completes with its next byte.
  client.SendBytes(
      "STATS\nFROBNICATE\nINGEST B 9 37.7749 -122.4194 620\nSTA");
  EXPECT_EQ(client.ReadLine().rfind("OK epoch=0 ", 0), 0u);
  EXPECT_EQ(client.ReadLine().rfind("ERR bad-command ", 0), 0u);
  EXPECT_EQ(client.ReadLine().rfind("OK ingested=1 ", 0), 0u);
  client.SendBytes("TS\n");
  EXPECT_EQ(client.ReadLine().rfind("OK epoch=0 ", 0), 0u);
}

TEST(ServeDaemon, ShutdownCommandStopsTheServer) {
  auto daemon = std::make_unique<DaemonFixture>();
  const std::string path = daemon->socket_path();
  {
    LineClient client(path);
    ASSERT_TRUE(client.connected());
    client.ReadLine();  // HELLO
    EXPECT_EQ(client.Roundtrip("SHUTDOWN"), "OK bye");
    // The server closes every connection and exits its loop.
    EXPECT_EQ(client.ReadLine(), "");
  }
  daemon->Join();
  EXPECT_TRUE(daemon->status().ok()) << daemon->status().ToString();
  // The socket file is gone: a fresh connect must fail.
  LineClient late(path);
  EXPECT_FALSE(late.connected());
  daemon.reset();
}

TEST(ServeDaemon, StopFlagShutsDownIdleServer) {
  {
    DaemonFixture daemon;
    LineClient client(daemon.socket_path());
    ASSERT_TRUE(client.connected());
    client.ReadLine();
    // Destructor raises the stop flag and joins — the poll loop must
    // notice within its interval even with a connection open.
  }
  SUCCEED();
}

}  // namespace
}  // namespace slim
