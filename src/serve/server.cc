#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace slim {
namespace {

/// Per-connection state. Connections are kept in accept order, which fixes
/// the order subscribers receive events in.
struct Connection {
  int fd = -1;
  std::string in;           // bytes received, not yet framed into lines
  size_t scanned = 0;       // prefix of `in` known to hold no '\n'
  bool discarding = false;  // oversized request: drop until next '\n'
  bool subscribed = false;
};

// Bytes one recv() may deliver: a full-size INGEST line arrives in a
// round or two instead of one per 4 KiB.
constexpr size_t kRecvBytes = size_t{64} << 10;

/// Blocking best-effort write of `line` + '\n'. Returns false when the peer
/// is gone (the caller drops the connection). MSG_NOSIGNAL keeps a dead
/// subscriber from killing the daemon with SIGPIPE.
bool WriteLine(int fd, std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

void CloseAll(int listen_fd, std::vector<Connection>* conns) {
  for (Connection& c : *conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns->clear();
  ::close(listen_fd);
}

}  // namespace

Status RunServer(const ServeOptions& options, LinkageService* service,
                 const std::atomic<bool>* stop) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options.socket_path);
  }
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::IoError("socket(): " + std::string(std::strerror(errno)));
  }
  ::unlink(options.socket_path.c_str());  // stale socket from a crash
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd);
    return Status::IoError("bind(" + options.socket_path +
                           "): " + std::string(std::strerror(err)));
  }
  if (::listen(listen_fd, 16) != 0) {
    const int err = errno;
    ::close(listen_fd);
    ::unlink(options.socket_path.c_str());
    return Status::IoError("listen(): " + std::string(std::strerror(err)));
  }

  std::vector<Connection> conns;
  std::vector<char> buf(kRecvBytes);
  bool shutting_down = false;
  while (!shutting_down && (stop == nullptr || !stop->load())) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd, POLLIN, 0});
    for (const Connection& c : conns) fds.push_back({c.fd, POLLIN, 0});

    const int ready =
        ::poll(fds.data(), fds.size(),
               options.poll_interval_ms > 0 ? options.poll_interval_ms : 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks `stop`
      CloseAll(listen_fd, &conns);
      ::unlink(options.socket_path.c_str());
      return Status::IoError("poll(): " + std::string(std::strerror(errno)));
    }
    if (ready == 0) continue;

    if (fds[0].revents & POLLIN) {
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client >= 0) {
        if (WriteLine(client, service->HelloLine())) {
          conns.push_back({client, {}, 0, false, false});
        } else {
          ::close(client);
        }
      }
    }

    // Read from ready connections; `conns` may gain members via accept
    // above but fds[i + 1] still pairs with the first conns.size() entries.
    for (size_t i = 0; i + 1 < fds.size(); ++i) {
      Connection& c = conns[i];
      if (!(fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        ::close(c.fd);
        c.fd = -1;  // reaped below
        continue;
      }
      c.in.append(buf.data(), static_cast<size_t>(n));

      // Frame complete lines. Executing here — inside the poll loop, in
      // fd order — is what makes a scripted session deterministic. Only
      // the bytes past `scanned` are searched, lines are consumed by
      // offset, and the consumed prefix is erased once.
      size_t begin = 0;
      size_t newline;
      while (c.fd >= 0 &&
             (newline = c.in.find('\n', c.scanned)) != std::string::npos) {
        std::string_view line(c.in.data() + begin, newline - begin);
        begin = c.scanned = newline + 1;
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (c.discarding) {
          c.discarding = false;  // tail of an oversized request
          continue;
        }
        const ServeReply reply = service->Execute(line);
        if (!WriteLine(c.fd, reply.line)) {
          ::close(c.fd);
          c.fd = -1;
          break;
        }
        if (reply.subscribe) c.subscribed = true;
        for (const std::string& event : reply.events) {
          for (Connection& sub : conns) {
            if (sub.fd < 0 || !sub.subscribed) continue;
            if (!WriteLine(sub.fd, event)) {
              ::close(sub.fd);
              sub.fd = -1;
            }
          }
        }
        if (reply.shutdown) {
          shutting_down = true;
          break;
        }
      }
      c.in.erase(0, begin);
      c.scanned = c.in.size();
      if (c.fd >= 0 && !c.discarding && c.in.size() > kMaxProtocolLineBytes) {
        // Request exceeds the line cap with no newline yet: answer once,
        // then drop bytes until the terminator shows up.
        if (!WriteLine(c.fd, FormatServeError(
                                 "too-long line exceeds " +
                                 std::to_string(kMaxProtocolLineBytes) +
                                 " bytes"))) {
          ::close(c.fd);
          c.fd = -1;
        } else {
          c.discarding = true;
        }
      }
      // While discarding, every pending byte belongs to the oversized
      // request, so none needs keeping.
      if (c.discarding) {
        c.in.clear();
        c.scanned = 0;
      }
    }

    std::vector<Connection> alive;
    alive.reserve(conns.size());
    for (Connection& c : conns) {
      if (c.fd >= 0) alive.push_back(std::move(c));
    }
    conns = std::move(alive);
  }

  CloseAll(listen_fd, &conns);
  ::unlink(options.socket_path.c_str());
  return Status::Ok();
}

}  // namespace slim
