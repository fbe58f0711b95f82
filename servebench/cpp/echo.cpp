// Echo floor: a poll() loop shaped like one AuthServer shard (non-blocking
// sockets, read until EAGAIN, answer, write) that does no protocol work.
// Each complete frame is located by its header and answered with a
// pre-encoded frame of the size the real server would send; v2 request ids
// are copied into the answer so the generator can match it. CRCs are left
// stale on purpose: no codec work may run here. Its CPU per request is the
// kernel-transport floor under any reactor change.
//
//   servebench echo --port-file F
//
// Runs until SIGINT/SIGTERM.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fixture.h"
#include "net/wire.h"

namespace servebench {
namespace {

using namespace ropuf;

std::atomic<bool> g_stop{false};

void on_stop(int) { g_stop.store(true, std::memory_order_relaxed); }

struct Peer {
  int fd = -1;
  std::string in;
  std::string out;
};

void set_nonblocking(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK); }

}  // namespace

int run_echo(const cli::Args& args) {
  const std::string v1_answer =
      net::encode_response_frame(net::WireResponse{net::WireStatus::kAccept, 0, 16});
  const std::string challenge = net::encode_challenge_frame(0, auth::Nonce{});
  const std::string v2_answer =
      net::encode_response_frame_v2(0, net::WireResponse{net::WireStatus::kAccept, 0, 16});
  const std::string hello = net::encode_server_hello(net::kWireVersionV2);

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error(std::string("echo listen: ") + std::strerror(errno));
  }
  set_nonblocking(listener);
  struct sigaction action {};
  action.sa_handler = on_stop;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  {
    std::ofstream port_file(required(args, "port-file"));
    port_file << ntohs(addr.sin_port) << "\n";
  }

  std::vector<Peer> peers;
  std::vector<pollfd> fds;
  char chunk[4096];  // the server's read chunk
  while (!g_stop.load(std::memory_order_relaxed)) {
    fds.clear();
    fds.push_back(pollfd{listener, POLLIN, 0});
    for (const Peer& p : peers) {
      fds.push_back(pollfd{p.fd, static_cast<short>(POLLIN | (p.out.empty() ? 0 : POLLOUT)), 0});
    }
    if (::poll(fds.data(), fds.size(), 50) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("echo poll: ") + std::strerror(errno));
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd >= 0) {
        set_nonblocking(fd);
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        peers.push_back(Peer{fd, {}, {}});
      }
    }
    for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
      Peer& p = peers[i];
      if (p.fd < 0 || (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (true) {
        const ssize_t n = ::recv(p.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          p.in.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          ::close(p.fd);
          p.fd = -1;
        }
        break;
      }
      std::size_t head = 0;
      while (p.in.size() - head >= net::kFrameHeaderBytes) {
        std::uint16_t version = 0;
        std::uint16_t type = 0;
        std::uint32_t length = 0;
        std::memcpy(&version, p.in.data() + head + 4, 2);
        std::memcpy(&type, p.in.data() + head + 6, 2);
        std::memcpy(&length, p.in.data() + head + 8, 4);
        if (p.in.size() - head < net::kFrameHeaderBytes + length) break;
        const char* rid = p.in.data() + head + net::kFrameHeaderBytes;
        const auto frame_type = static_cast<net::FrameType>(type);
        if (frame_type == net::FrameType::kClientHello) {
          p.out += hello;
        } else if (version == net::kWireVersion) {
          p.out += v1_answer;
        } else {
          const std::string& answer =
              frame_type == net::FrameType::kAuthRequest ? challenge : v2_answer;
          p.out += answer;
          if (length >= 8) {
            std::memcpy(p.out.data() + p.out.size() - answer.size() + net::kFrameHeaderBytes,
                        rid, 8);
          }
        }
        head += net::kFrameHeaderBytes + length;
      }
      p.in.erase(0, head);
    }
    for (Peer& p : peers) {
      if (p.fd < 0 || p.out.empty()) continue;
      const ssize_t n = ::send(p.fd, p.out.data(), p.out.size(), MSG_NOSIGNAL);
      if (n > 0) p.out.erase(0, static_cast<std::size_t>(n));
    }
  }
  for (const Peer& p : peers) {
    if (p.fd >= 0) ::close(p.fd);
  }
  ::close(listener);
  return 0;
}

}  // namespace servebench
