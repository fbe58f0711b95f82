// Load generator: one thread, kConnections pipelined connections, three
// phases.
//
//   warm-up  closed loop until every pool entry was answered once, so the
//            server's enrollment cache holds what the workload keeps hot;
//   closed   closed loop at kWindow requests in flight: throughput and the
//            server's CPU per request (read from /proc/<pid>/task/*/schedstat
//            at the slice edges);
//   open     the workload's light rate; each request is timed from the
//            moment it was due, so a stalled generator shows up as latency
//            rather than hiding it.
// --closed-seconds and --open-seconds are split into --rounds slices that
// alternate (closed, drain, open, drain, ...), so both loops sample the
// whole run.
//
// Every answer is checked against the fixture's offline verdict; a
// transport error, kBadFrame, kOverloaded or a verdict mismatch is a failed
// request, and so is a run cut short by any error. With --echo 1 the peer
// is the benchmark's echo floor (echo.cpp): frames are then located by
// header only and not checked.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "auth/auth.h"
#include "fixture.h"
#include "net/wire.h"

namespace servebench {
namespace {

using namespace ropuf;

constexpr std::size_t kConnections = 4;
/// Requests in flight over all connections together: ropuf_serve's default
/// max_pending, so kOverloaded cannot fire.
constexpr std::size_t kWindow = 1024;

/// Sum of on-CPU nanoseconds over every thread of a process. A thread that
/// exits between the directory listing and the read is skipped; any other
/// unreadable thread fails the run.
std::int64_t process_cpu_ns(int pid) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) throw std::runtime_error("cannot open " + task_dir);
  std::int64_t total = 0;
  std::size_t threads = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string path = task_dir + "/" + entry->d_name + "/schedstat";
    std::ifstream stat(path);
    long long on_cpu = 0;
    if (stat >> on_cpu) {
      total += on_cpu;
      ++threads;
    } else if (::access((task_dir + "/" + entry->d_name).c_str(), F_OK) == 0) {
      ::closedir(dir);
      throw std::runtime_error("cannot read " + path);
    }
  }
  ::closedir(dir);
  if (threads == 0) throw std::runtime_error("no thread of the server is readable");
  return total;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double percentile_us(std::vector<std::int64_t>& ns, double q) {
  if (ns.empty()) return 0.0;
  const std::size_t k = std::min(ns.size() - 1, static_cast<std::size_t>(q * static_cast<double>(ns.size())));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k), ns.end());
  return static_cast<double>(ns[k]) / 1000.0;
}

/// A frame located by its header alone (echo mode: no CRC, no decode).
struct RawFrame {
  std::uint16_t version = 0;
  net::FrameType type = net::FrameType::kAuthResponse;
  std::string_view payload;
  std::size_t frame_bytes = 0;
};

bool peek_frame(std::string_view buffer, RawFrame* frame) {
  if (buffer.size() < net::kFrameHeaderBytes) return false;
  std::uint32_t length = 0;
  std::uint16_t type = 0;
  std::memcpy(&frame->version, buffer.data() + 4, 2);
  std::memcpy(&type, buffer.data() + 6, 2);
  std::memcpy(&length, buffer.data() + 8, 4);
  if (buffer.size() < net::kFrameHeaderBytes + length) return false;
  frame->type = static_cast<net::FrameType>(type);
  frame->payload = buffer.substr(net::kFrameHeaderBytes, length);
  frame->frame_bytes = net::kFrameHeaderBytes + length;
  return true;
}

std::uint64_t payload_rid(std::string_view payload) {
  std::uint64_t rid = 0;
  if (payload.size() >= 8) std::memcpy(&rid, payload.data(), 8);
  return rid;
}

struct Outstanding {
  std::uint32_t index = 0;   ///< pool entry
  std::int64_t due_ns = 0;   ///< open loop: when it was due; else 0
};

struct Connection {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_head = 0;
  std::deque<Outstanding> fifo;                          ///< v1, send order
  std::unordered_map<std::uint64_t, Outstanding> by_rid;  ///< v2
  std::size_t in_flight = 0;
  bool ready = false;  ///< v2: server hello received
};

struct Options {
  std::uint16_t port = 0;
  int server_pid = 0;
  bool echo = false;
};

class Generator {
 public:
  Generator(const Fixture& fixture, const Options& options)
      : fx_(fixture), opt_(options), v2_(fixture.config.protocol == Protocol::kV2) {}

  ~Generator() {
    for (const Connection& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void connect_all() {
    conns_.resize(kConnections);
    for (Connection& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) throw std::runtime_error("socket failed");
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(opt_.port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
      }
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
      if (v2_) c.out += net::encode_client_hello(net::kWireVersionV2);
      else c.ready = true;
    }
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (!all_ready()) {
      if (now_ns() > deadline) throw std::runtime_error("hello handshake timed out");
      pump(1'000'000);
    }
  }

  /// Closed loop until `answers` more responses arrived.
  void closed_count(std::uint64_t answers) {
    const std::uint64_t target = completed_ + answers;
    while (completed_ < target) {
      fill_windows();
      pump(100'000'000);
    }
  }

  /// One closed-loop slice of `seconds`, added to the phase totals.
  void closed_slice(double seconds) {
    fill_windows();
    const std::int64_t t0 = now_ns();
    const std::int64_t server0 = process_cpu_ns(opt_.server_pid);
    const std::int64_t gen0 = thread_cpu_ns();
    const std::uint64_t done0 = completed_;
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t now = t0;
    while (now < end) {
      fill_windows();
      pump(end - now);
      now = now_ns();
    }
    ++closed_slices_;
    closed_completed_ += completed_ - done0;
    closed_server_cpu_ns_ += process_cpu_ns(opt_.server_pid) - server0;
    closed_gen_cpu_ns_ += thread_cpu_ns() - gen0;
    closed_wall_ns_ += now_ns() - t0;
  }

  /// Stops issuing and waits for every outstanding answer.
  void drain() {
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (in_flight() > 0) {
      if (now_ns() > deadline) throw std::runtime_error("answers missing after drain timeout");
      pump(10'000'000);
    }
  }

  /// One open-loop slice: `seconds` at the workload's rate, on a fixed
  /// schedule, each request timed from when it was due until its final
  /// answer.
  void open_slice(double seconds) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const double rate = fx_.config.open_rate;
    const auto total = static_cast<std::uint64_t>(seconds * rate);
    const double interval_ns = 1e9 / rate;
    const std::int64_t t0 = now_ns() + 1'000'000;
    const std::int64_t gen0 = thread_cpu_ns();
    const std::size_t first = latencies_.size();
    std::uint64_t sent = 0;
    std::size_t next_conn = 0;
    const auto due_at = [&](std::uint64_t k) {
      return t0 + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
    };
    while (sent < total || in_flight() > 0) {
      std::int64_t now = now_ns();
      while (sent < total && due_at(sent) <= now) {
        const std::int64_t due = due_at(sent);
        Connection& c = conns_[next_conn];
        next_conn = (next_conn + 1) % conns_.size();
        send_next(c, due);
        flush(c);
        now = now_ns();
        late_.push_back(now - due);
        ++sent;
      }
      std::int64_t timeout = 50'000'000;
      if (sent < total) {
        timeout = std::max<std::int64_t>(0, due_at(sent) - now);
      } else if (now - t0 > static_cast<std::int64_t>(seconds * 1e9) + 5'000'000'000) {
        throw std::runtime_error("open-loop answers missing");
      }
      pump(timeout);
    }
    open_completed_ += sent;
    open_gen_cpu_ns_ += thread_cpu_ns() - gen0;
    std::vector<std::int64_t> slice(latencies_.begin() + static_cast<std::ptrdiff_t>(first),
                                    latencies_.end());
    slice_p50_us_.push_back(percentile_us(slice, 0.50));
    slice_p90_us_.push_back(percentile_us(slice, 0.90));
  }

  /// Throughput and server CPU are whole-phase ratios over all closed
  /// slices. p50 and p90 are medians over the open slices, so a burst of
  /// host noise spoils a slice or two, not the run; p99 and max cover every
  /// sample.
  void print_json() {
    std::vector<std::int64_t> lat = latencies_;
    std::vector<std::int64_t> late = late_;
    const double p99 = percentile_us(lat, 0.99);
    const double lmax = lat.empty() ? 0.0 : static_cast<double>(*std::max_element(lat.begin(), lat.end())) / 1000.0;
    const double late99 = percentile_us(late, 0.99);
    std::printf(
        "{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"mismatches\": %" PRIu64
        ", \"bad_frames\": %" PRIu64 ", \"overloaded\": %" PRIu64 ", \"lost\": %" PRIu64
        ", \"aborted\": %" PRIu64 ", \"devices\": %zu, \"open_rate\": %.1f"
        ", \"slices\": %zu, \"throughput_rps\": %.4f, \"server_cpu_us_per_req\": %.6f"
        ", \"latency_p50_us\": %.4f, \"latency_p90_us\": %.4f"
        ", \"closed_completed\": %" PRIu64 ", \"closed_wall_s\": %.9f"
        ", \"closed_server_cpu_s\": %.9f, \"closed_gen_cpu_s\": %.9f"
        ", \"open_completed\": %" PRIu64 ", \"open_gen_cpu_s\": %.9f"
        ", \"latency_p99_us\": %.4f, \"latency_max_us\": %.4f, \"late_p99_us\": %.4f"
        ", \"latency_samples\": %zu}\n",
        attempted_, failed(), mismatches_, bad_frames_, overloaded_, lost_, aborted_,
        fx_.config.devices, fx_.config.open_rate, closed_slices_,
        static_cast<double>(closed_completed_) / (static_cast<double>(closed_wall_ns_) / 1e9),
        static_cast<double>(closed_server_cpu_ns_) / 1000.0 /
            static_cast<double>(std::max<std::uint64_t>(closed_completed_, 1)),
        median(slice_p50_us_), median(slice_p90_us_),
        closed_completed_, static_cast<double>(closed_wall_ns_) / 1e9,
        static_cast<double>(closed_server_cpu_ns_) / 1e9,
        static_cast<double>(closed_gen_cpu_ns_) / 1e9, open_completed_,
        static_cast<double>(open_gen_cpu_ns_) / 1e9, p99, lmax, late99, latencies_.size());
  }

  std::uint64_t failed() const {
    return mismatches_ + bad_frames_ + overloaded_ + lost_ + aborted_;
  }

  /// After any error: the run stops short, which fails it even when
  /// nothing was in flight, and whatever is outstanding never arrives.
  void abandon() {
    ++aborted_;
    lost_ += in_flight();
    for (Connection& c : conns_) c.in_flight = 0;
  }

 private:
  bool all_ready() const {
    for (const Connection& c : conns_) {
      if (!c.ready) return false;
    }
    return true;
  }

  std::size_t in_flight() const {
    std::size_t total = 0;
    for (const Connection& c : conns_) total += c.in_flight;
    return total;
  }

  void fill_windows() {
    const std::size_t per_conn = kWindow / conns_.size();
    for (Connection& c : conns_) {
      while (c.in_flight < per_conn) send_next(c, 0);
    }
  }

  /// Appends the next pool entry's first frame to the connection.
  void send_next(Connection& c, std::int64_t due) {
    const auto index = static_cast<std::uint32_t>(next_++ % kPoolRequests);
    ++attempted_;
    ++c.in_flight;
    if (!v2_) {
      c.out += fx_.request_frames[index];
      c.fifo.push_back(Outstanding{index, due});
      return;
    }
    const std::uint64_t rid = ++rid_;
    c.out += net::encode_request_frame_v2(rid, fx_.intents[index].device_id);
    c.by_rid.emplace(rid, Outstanding{index, due});
  }

  void flush(Connection& c) {
    while (c.out_head < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_head, c.out.size() - c.out_head,
                               MSG_NOSIGNAL);
      if (n > 0) {
        c.out_head += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    c.out.clear();
    c.out_head = 0;
  }

  /// Writes what is buffered, waits up to timeout_ns for input, and
  /// handles every complete frame that arrived.
  void pump(std::int64_t timeout_ns) {
    fds_.clear();
    for (Connection& c : conns_) {
      flush(c);
      short events = POLLIN;
      if (c.out_head < c.out.size()) events |= POLLOUT;
      fds_.push_back(pollfd{c.fd, events, 0});
    }
    timespec timeout{};
    timeout.tv_sec = timeout_ns / 1'000'000'000;
    timeout.tv_nsec = timeout_ns % 1'000'000'000;
    const int ready = ::ppoll(fds_.data(), fds_.size(), &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) return;
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    if (ready == 0) return;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds_[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_ready(conns_[i]);
    }
  }

  void read_ready(Connection& c) {
    char chunk[16384];
    while (true) {
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c.in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    std::size_t head = 0;
    while (true) {
      const std::string_view rest(c.in.data() + head, c.in.size() - head);
      if (opt_.echo) {
        RawFrame raw;
        if (!peek_frame(rest, &raw)) break;
        on_echo_frame(c, raw);
        head += raw.frame_bytes;
        continue;
      }
      const net::ExtractResult extracted = net::try_extract_frame(rest);
      if (extracted.status == net::ExtractResult::Status::kNeedMore) break;
      if (extracted.status == net::ExtractResult::Status::kDefect) {
        throw std::runtime_error("undecodable frame from the server");
      }
      on_frame(c, extracted.frame);
      head += extracted.frame.frame_bytes;
    }
    c.in.erase(0, head);
  }

  Outstanding take(Connection& c, std::uint64_t rid) {
    if (!v2_) {
      if (c.fifo.empty()) throw std::runtime_error("answer without a request");
      const Outstanding o = c.fifo.front();
      c.fifo.pop_front();
      return o;
    }
    const auto it = c.by_rid.find(rid);
    if (it == c.by_rid.end()) throw std::runtime_error("answer for an unknown request id");
    const Outstanding o = it->second;
    c.by_rid.erase(it);
    return o;
  }

  void finish(Connection& c, const Outstanding& o) {
    --c.in_flight;
    ++completed_;
    if (o.due_ns != 0) latencies_.push_back(now_ns() - o.due_ns);
  }

  void send_proof(Connection& c, std::uint64_t rid, const auth::Nonce& nonce) {
    const auto it = c.by_rid.find(rid);
    if (it == c.by_rid.end()) throw std::runtime_error("challenge for an unknown request id");
    const service::ProofIntent& intent = fx_.intents[it->second.index];
    auth::Tag tag{};  // a keyless prover sends zeros
    if (intent.has_key) tag = auth::prove(intent.key, nonce, rid, intent.device_id);
    c.out += net::encode_proof_frame(rid, tag);
  }

  void on_frame(Connection& c, const net::FrameView& frame) {
    switch (frame.type) {
      case net::FrameType::kServerHello:
        if (net::decode_hello_payload(frame.payload) != net::kWireVersionV2) {
          throw std::runtime_error("server did not pin protocol v2");
        }
        c.ready = true;
        return;
      case net::FrameType::kAuthChallenge: {
        const net::ChallengePayload challenge = net::decode_challenge_payload(frame.payload);
        send_proof(c, challenge.request_id, challenge.nonce);
        return;
      }
      case net::FrameType::kAuthResponse: {
        net::WireResponse got;
        std::uint64_t rid = 0;
        if (frame.version == net::kWireVersionV2) {
          const net::V2Response v2 = net::decode_response_payload_v2(frame.payload);
          rid = v2.request_id;
          got = v2.response;
        } else {
          got = net::decode_response_payload(frame.payload);
        }
        const Outstanding o = take(c, rid);
        check(o.index, got);
        finish(c, o);
        return;
      }
      default:
        throw std::runtime_error("unexpected frame type from the server");
    }
  }

  void on_echo_frame(Connection& c, const RawFrame& frame) {
    switch (frame.type) {
      case net::FrameType::kServerHello:
        c.ready = true;
        return;
      case net::FrameType::kAuthChallenge:
        send_proof(c, payload_rid(frame.payload), auth::Nonce{});
        return;
      default: {
        const Outstanding o = take(c, v2_ ? payload_rid(frame.payload) : 0);
        finish(c, o);
        return;
      }
    }
  }

  void check(std::uint32_t index, const net::WireResponse& got) {
    const net::WireResponse& want = fx_.expected[index];
    if (got.status == net::WireStatus::kBadFrame) {
      ++bad_frames_;
    } else if (got.status == net::WireStatus::kOverloaded) {
      ++overloaded_;
    } else if (got.status != want.status ||
               (!v2_ && (got.distance != want.distance ||
                         got.response_bits != want.response_bits))) {
      if (mismatches_ < 5) {
        std::fprintf(stderr, "verdict mismatch at pool entry %u: got %s, want %s\n", index,
                     net::wire_status_name(got.status), net::wire_status_name(want.status));
      }
      ++mismatches_;
    }
  }

  const Fixture& fx_;
  Options opt_;
  bool v2_;
  std::vector<Connection> conns_;
  std::vector<pollfd> fds_;
  std::uint64_t next_ = 0;
  std::uint64_t rid_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t bad_frames_ = 0;
  std::uint64_t overloaded_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t aborted_ = 0;
  std::size_t closed_slices_ = 0;
  std::uint64_t closed_completed_ = 0;
  std::int64_t closed_wall_ns_ = 0;
  std::int64_t closed_server_cpu_ns_ = 0;
  std::int64_t closed_gen_cpu_ns_ = 0;
  std::uint64_t open_completed_ = 0;
  std::int64_t open_gen_cpu_ns_ = 0;
  std::vector<double> slice_p50_us_;
  std::vector<double> slice_p90_us_;
  std::vector<std::int64_t> latencies_;
  std::vector<std::int64_t> late_;
};

}  // namespace

int run_load(const cli::Args& args) {
  const Fixture fixture =
      make_fixture(required(args, "workload"), required(args, "registry"),
                   static_cast<std::uint64_t>(required_number(args, "seed")));
  Options options;
  options.port = static_cast<std::uint16_t>(required_number(args, "port"));
  options.server_pid = static_cast<int>(required_number(args, "server-pid"));
  options.echo = args.number("echo", 0) != 0;
  const auto rounds = static_cast<int>(args.number("rounds", 1));
  const double closed_seconds = required_number(args, "closed-seconds") / rounds;
  const double open_seconds = args.number("open-seconds", 0.0) / rounds;

  // The two loops alternate slice by slice, so both sample the whole run.
  Generator generator(fixture, options);
  try {
    generator.connect_all();
    generator.closed_count(kPoolRequests);  // warm-up: every pool entry once
    for (int round = 0; round < rounds; ++round) {
      generator.closed_slice(closed_seconds);
      generator.drain();
      if (open_seconds > 0.0) generator.open_slice(open_seconds);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "load: %s\n", e.what());
    generator.abandon();
  }
  generator.print_json();
  return generator.failed() == 0 ? 0 : 3;
}

}  // namespace servebench
