#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <thread>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ropuf::net {
namespace {

constexpr std::size_t kReadChunkBytes = 4096;

/// fd_owner sentinels for the per-shard pollfd list (connection indexes are
/// always far below these).
constexpr std::size_t kListenerSlot = static_cast<std::size_t>(-1);
constexpr std::size_t kWakeSlot = static_cast<std::size_t>(-2);

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ROPUF_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
}

/// Global total plus the shard's own counter when per-shard metrics are on.
void bump(obs::Counter& global, obs::Counter* per_shard) {
  global.add(1);
  if (per_shard != nullptr) per_shard->add(1);
}

/// Pending-queue depth buckets: powers of two up to the default bound.
const std::vector<double>& queue_depth_bounds() {
  static const std::vector<double> bounds = {1,  2,   4,   8,   16,  32,
                                             64, 128, 256, 512, 1024, 4096};
  return bounds;
}

}  // namespace

AuthServer::AuthServer(const service::AuthService* service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      nonce_factory_(options_.nonce_seed) {
  ROPUF_REQUIRE(service_ != nullptr, "null auth service");
  ROPUF_REQUIRE(options_.max_batch > 0, "max_batch must be positive");
  ROPUF_REQUIRE(options_.max_pending > 0, "max_pending must be positive");
  ROPUF_REQUIRE(options_.max_sessions > 0, "max_sessions must be positive");
  ROPUF_REQUIRE(options_.max_connections > 0, "max_connections must be positive");
  ROPUF_REQUIRE(options_.max_read_per_sweep > 0, "max_read_per_sweep must be positive");
  // Misconfiguration fails here, eagerly, instead of producing a wedged
  // loop: a zero/negative poll interval would spin or block forever, a
  // non-positive deadline closes every connection on its first sweep, and
  // listen(2) treats a negative backlog as implementation-defined.
  ROPUF_REQUIRE(options_.backlog > 0, "backlog must be positive");
  ROPUF_REQUIRE(options_.max_write_buffer > 0, "max_write_buffer must be positive");
  ROPUF_REQUIRE(options_.read_deadline_ms > 0, "read_deadline_ms must be positive");
  ROPUF_REQUIRE(options_.accept_backoff_ms >= 0,
                "accept_backoff_ms must be non-negative");
  ROPUF_REQUIRE(options_.poll_interval_ms > 0, "poll_interval_ms must be positive");
  ROPUF_REQUIRE(options_.drain_timeout_ms >= 0,
                "drain_timeout_ms must be non-negative");
  ROPUF_REQUIRE(options_.shards > 0, "shards must be positive");
  // Every shard needs a nonzero connection share or it could only refuse.
  ROPUF_REQUIRE(options_.max_connections >= options_.shards,
                "max_connections must be at least the shard count");

  const std::size_t shard_count = options_.shards;
  const std::size_t base = options_.max_connections / shard_count;
  const std::size_t remainder = options_.max_connections % shard_count;
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->max_connections = base + (s < remainder ? 1 : 0);
    if (shard_count > 1) {
      obs::Registry& registry = obs::Registry::instance();
      const std::string prefix = "net.shard" + std::to_string(s) + ".";
      shard->metrics.accepted = &registry.counter(prefix + "connections_accepted");
      shard->metrics.closed = &registry.counter(prefix + "connections_closed");
      shard->metrics.frames_in = &registry.counter(prefix + "frames_in");
      shard->metrics.frames_out = &registry.counter(prefix + "frames_out");
      shard->metrics.enqueued = &registry.counter(prefix + "requests_enqueued");
      shard->metrics.batches = &registry.counter(prefix + "batches");
    }
    shards_.push_back(std::move(shard));
  }
}

AuthServer::~AuthServer() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const Connection& connection : shard->connections) {
      if (connection.alive) ::close(connection.fd);
    }
    if (shard->listen_fd >= 0) ::close(shard->listen_fd);
    if (shard->wake_read_fd >= 0) ::close(shard->wake_read_fd);
    if (shard->wake_write_fd >= 0) ::close(shard->wake_write_fd);
    for (const int fd : shard->handoff) ::close(fd);
  }
}

std::uint16_t AuthServer::bind_and_listen() {
  Shard& acceptor = *shards_[0];
  ROPUF_REQUIRE(acceptor.listen_fd < 0, "bind_and_listen() called twice");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ROPUF_REQUIRE(fd >= 0, std::string("socket: ") + std::strerror(errno));
  acceptor.listen_fd = fd;  // the destructor owns it even if a later step throws

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  ROPUF_REQUIRE(::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) == 1,
                "bad bind address '" + options_.bind_address + "'");
  ROPUF_REQUIRE(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
                std::string("bind ") + options_.bind_address + ":" +
                    std::to_string(options_.port) + ": " + std::strerror(errno));
  ROPUF_REQUIRE(::listen(fd, options_.backlog) == 0,
                std::string("listen: ") + std::strerror(errno));
  set_nonblocking(fd);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ROPUF_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0,
                std::string("getsockname: ") + std::strerror(errno));
  port_ = ntohs(bound.sin_port);

  // Shard 0 accepts for everyone and hands fds to the other shards through
  // their wake pipes.
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    int pipe_fds[2] = {-1, -1};
    ROPUF_REQUIRE(::pipe(pipe_fds) == 0, std::string("pipe: ") + std::strerror(errno));
    shards_[s]->wake_read_fd = pipe_fds[0];
    shards_[s]->wake_write_fd = pipe_fds[1];
    set_nonblocking(pipe_fds[0]);
    set_nonblocking(pipe_fds[1]);
  }
  return port_;
}

void AuthServer::adopt_fd(Shard& shard, int fd) {
  static obs::Counter& accepted =
      obs::Registry::instance().counter("net.connections_accepted");
  static obs::Counter& limit_closes =
      obs::Registry::instance().counter("net.connection_limit_closes");
  std::size_t live = 0;
  for (const Connection& connection : shard.connections) live += connection.alive ? 1 : 0;
  if (live >= shard.max_connections) {
    // At capacity the cheapest honest answer is an immediate close: the
    // peer sees a refused session rather than an unbounded accept queue.
    ::close(fd);
    limit_closes.add(1);
    return;
  }
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::size_t slot = shard.connections.size();
  for (std::size_t i = 0; i < shard.connections.size(); ++i) {
    if (!shard.connections[i].alive) {
      slot = i;
      break;
    }
  }
  if (slot == shard.connections.size()) shard.connections.emplace_back();
  Connection& connection = shard.connections[slot];
  connection = Connection{};
  connection.fd = fd;
  connection.last_read = std::chrono::steady_clock::now();
  bump(accepted, shard.metrics.accepted);
}

void AuthServer::accept_ready(Shard& shard) {
  static obs::Counter& backoffs =
      obs::Registry::instance().counter("net.accept_backoffs");
  static obs::Counter& handoffs =
      obs::Registry::instance().counter("net.shard_handoffs");
  while (true) {
    const int fd = ::accept(shard.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Descriptor/buffer exhaustion persists across sweeps while the
        // listener stays readable; without a backoff the loop busy-spins at
        // full CPU until a descriptor frees up.
        backoffs.add(1);
        shard.accept_backoff_until =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.accept_backoff_ms);
      }
      return;  // EAGAIN/EWOULDBLOCK or transient failure: next sweep
    }
    const std::size_t target = round_robin_next_++ % shards_.size();
    if (target == shard.index) {
      adopt_fd(shard, fd);
      continue;
    }
    Shard& owner = *shards_[target];
    {
      const std::lock_guard<std::mutex> lock(owner.handoff_mutex);
      owner.handoff.push_back(fd);
    }
    handoffs.add(1);
    // One byte per deposit; if the pipe is ever full the pending bytes
    // already keep the owner's poll() readable, so a failed write cannot
    // lose a wakeup.
    const char token = 1;
    [[maybe_unused]] const ssize_t written = ::write(owner.wake_write_fd, &token, 1);
  }
}

void AuthServer::adopt_handoff(Shard& shard) {
  char drain[64];
  while (::read(shard.wake_read_fd, drain, sizeof(drain)) > 0) {
  }
  std::vector<int> fds;
  {
    const std::lock_guard<std::mutex> lock(shard.handoff_mutex);
    fds.swap(shard.handoff);
  }
  for (const int fd : fds) adopt_fd(shard, fd);
}

void AuthServer::enqueue_frame(Shard& shard, std::size_t index,
                               std::string_view frame_bytes) {
  static obs::Counter& frames_out = obs::Registry::instance().counter("net.frames_out");
  static obs::Counter& slow_closes =
      obs::Registry::instance().counter("net.slow_consumer_closes");
  Connection& connection = shard.connections[index];
  if (!connection.alive) return;
  connection.out.append(frame_bytes);
  bump(frames_out, shard.metrics.frames_out);
  if (connection.out.size() > options_.max_write_buffer) {
    // The peer stopped reading its answers; dropping it is the bounded
    // alternative to buffering responses without limit.
    slow_closes.add(1);
    close_connection(shard, index);
  }
}

void AuthServer::handle_frame(Shard& shard, std::size_t index, const FrameView& frame) {
  static obs::Counter& frames_in = obs::Registry::instance().counter("net.frames_in");
  static obs::Counter& bad_frames =
      obs::Registry::instance().counter("net.bad_frame_answers");
  static obs::Counter& overloads =
      obs::Registry::instance().counter("net.overload_rejections");
  static obs::Counter& enqueued =
      obs::Registry::instance().counter("net.requests_enqueued");
  static obs::Counter& hellos = obs::Registry::instance().counter("net.hellos");
  static obs::Counter& challenges =
      obs::Registry::instance().counter("net.challenges_issued");
  static obs::Counter& replays =
      obs::Registry::instance().counter("net.replays_rejected");
  bump(frames_in, shard.metrics.frames_in);
  Connection& connection = shard.connections[index];

  // Every answer, whoever produces it, queues behind the answers owed to
  // earlier frames: per-connection answer order is frame-arrival order.
  const auto answer = [&](std::string frame_bytes) {
    shard.pending.push_back(PendingEntry{index, std::move(frame_bytes)});
  };
  const auto bad_frame = [&](std::string frame_bytes) {
    bad_frames.add(1);
    answer(std::move(frame_bytes));
  };
  const auto verify_later = [&](auto work) {
    shard.pending.push_back(PendingEntry{index, std::move(work)});
    ++shard.pending_unverified;
    bump(enqueued, shard.metrics.enqueued);
  };
  const WireResponse bad{WireStatus::kBadFrame, 0, 0};
  const WireResponse overloaded{WireStatus::kOverloaded, 0, 0};
  const bool full = shard.pending_unverified >= options_.max_pending;

  if (frame.type == FrameType::kClientHello) {
    // Capability negotiation: pin min(advertised, ours) and answer.
    std::uint16_t advertised = 0;
    try {
      advertised = decode_hello_payload(frame.payload);
    } catch (const WireError&) {
      bad_frame(encode_response_frame(bad));
      return;
    }
    connection.version = std::min(advertised, kWireMaxVersion);
    hellos.add(1);
    answer(encode_server_hello(connection.version));
    return;
  }

  const bool v2_request =
      frame.type == FrameType::kAuthRequest && frame.version == kWireVersionV2;
  if ((v2_request || frame.type == FrameType::kAuthProof) &&
      connection.version != kWireVersionV2) {
    bad_frame(encode_response_frame(bad));
    return;
  }

  if (v2_request) {
    // v2 request: remember the session and answer with a fresh challenge.
    // Admission does not apply (v2's defense is cryptographic — a
    // challenge is cheap and a harvested transcript is worthless).
    V2Request request;
    try {
      request = decode_request_payload_v2(frame.payload);
    } catch (const WireError&) {
      // No request id survived the decode; 0 marks an unattributable answer.
      bad_frame(encode_response_frame_v2(0, bad));
      return;
    }
    if (connection.sessions.size() >= options_.max_sessions) {
      overloads.add(1);
      answer(encode_response_frame_v2(request.request_id, overloaded));
      return;
    }
    const auth::Nonce nonce =
        nonce_factory_.next(request.device_id, request.request_id);
    // A repeated request id overwrites its session: the newest challenge is
    // the only one a proof can answer.
    connection.sessions[request.request_id] =
        PendingChallenge{request.device_id, nonce};
    challenges.add(1);
    answer(encode_challenge_frame(request.request_id, nonce));
    return;
  }

  if (frame.type == FrameType::kAuthProof) {
    ProofPayload proof;
    try {
      proof = decode_proof_payload(frame.payload);
    } catch (const WireError&) {
      bad_frame(encode_response_frame_v2(0, bad));
      return;
    }
    const auto session = connection.sessions.find(proof.request_id);
    if (session == connection.sessions.end()) {
      // No outstanding challenge for this id: a replayed or fabricated
      // proof. The nonce it was computed over is gone, so reject.
      replays.add(1);
      answer(encode_response_frame_v2(proof.request_id,
                                      WireResponse{WireStatus::kReject, 0, 0}));
      return;
    }
    service::ProofRequest request;
    request.request_id = proof.request_id;
    request.device_id = session->second.device_id;
    request.nonce = session->second.nonce;
    request.tag = proof.tag;
    // Consume the session before judging: even a valid proof verifies at
    // most once per challenge, and a refused one must start over.
    connection.sessions.erase(session);
    if (full) {
      overloads.add(1);
      answer(encode_response_frame_v2(request.request_id, overloaded));
      return;
    }
    verify_later(request);
    return;
  }

  if (frame.type != FrameType::kAuthRequest) {
    // A response/challenge/server-hello frame arriving at the server is
    // well-formed but nonsensical; answer and keep the (still framed)
    // connection.
    bad_frame(encode_response_frame(bad));
    return;
  }
  service::AuthRequest request;
  try {
    request = decode_request_payload(frame.payload);
  } catch (const WireError&) {
    bad_frame(encode_response_frame(bad));
    return;
  }
  if (full) {
    overloads.add(1);
    answer(encode_response_frame(overloaded));
    return;
  }
  verify_later(std::move(request));
}

void AuthServer::service_readable(Shard& shard, std::size_t index) {
  static obs::Counter& frame_errors =
      obs::Registry::instance().counter("net.frame_errors");
  Connection& connection = shard.connections[index];
  char chunk[kReadChunkBytes];
  std::size_t read_this_sweep = 0;
  while (connection.alive && !connection.close_after_flush &&
         read_this_sweep < options_.max_read_per_sweep) {
    const ssize_t n = ::recv(connection.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      connection.in.append(chunk, static_cast<std::size_t>(n));
      connection.last_read = std::chrono::steady_clock::now();
      read_this_sweep += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      // Peer finished sending: answer what already arrived, flush, close.
      connection.close_after_flush = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(shard, index);
    return;
  }

  // Walk the buffer by offset and compact once: erasing per frame would
  // shift the whole remaining buffer for every pipelined frame.
  std::size_t consumed = 0;
  while (true) {
    const ExtractResult extracted =
        try_extract_frame(std::string_view(connection.in).substr(consumed));
    if (extracted.status == ExtractResult::Status::kNeedMore) break;
    if (extracted.status == ExtractResult::Status::kDefect) {
      frame_errors.add(1);
      shard.pending.push_back(PendingEntry{
          index, encode_response_frame(WireResponse{WireStatus::kBadFrame, 0, 0})});
      if (frame_defect_is_fatal(extracted.defect)) {
        // Stream framing is lost: the buffered bytes are untrustworthy and
        // the only clean exit is answering, flushing and closing.
        consumed = connection.in.size();
        connection.close_after_flush = true;
        break;
      }
      consumed += extracted.consume;
      continue;
    }
    handle_frame(shard, index, extracted.frame);
    consumed += extracted.frame.frame_bytes;
  }
  connection.in.erase(0, consumed);
}

void AuthServer::drain_pending(Shard& shard) {
  if (shard.pending.empty()) return;
  static obs::Counter& batches = obs::Registry::instance().counter("net.batches");
  static obs::Counter& proofs_verified =
      obs::Registry::instance().counter("net.proofs_verified");
  static obs::Histogram& queue_depth =
      obs::Registry::instance().histogram("net.queue_depth", queue_depth_bounds());
  static obs::Histogram& batch_us =
      obs::Registry::instance().latency_histogram("net.batch_us");
  queue_depth.record(static_cast<double>(shard.pending.size()));
  const obs::TraceSpan span("net.drain");
  std::vector<service::AuthRequest> requests;
  std::vector<service::ProofRequest> proofs;
  while (!shard.pending.empty()) {
    // Take a front run holding at most max_batch unverified entries; the
    // encoded answers between them ride along, so every answer leaves in
    // the order its frame arrived.
    requests.clear();
    proofs.clear();
    std::size_t run = 0;
    while (run < shard.pending.size() &&
           requests.size() + proofs.size() < options_.max_batch) {
      auto& work = shard.pending[run++].work;
      if (auto* request = std::get_if<service::AuthRequest>(&work)) {
        requests.push_back(std::move(*request));
      } else if (const auto* proof = std::get_if<service::ProofRequest>(&work)) {
        proofs.push_back(*proof);
      }
    }
    std::vector<service::AuthVerdict> verdicts;
    std::vector<service::AuthVerdict> proof_verdicts;
    if (!requests.empty() || !proofs.empty()) {
      bump(batches, shard.metrics.batches);
      const obs::ScopedLatency batch_timer(batch_us);
      if (!requests.empty()) verdicts = service_->verify_batch(requests);
      if (!proofs.empty()) proof_verdicts = service_->verify_proof_batch(proofs);
      shard.pending_unverified -= requests.size() + proofs.size();
      shard.requests_served += requests.size() + proofs.size();
      proofs_verified.add(proofs.size());
    }
    std::size_t next_verdict = 0;
    std::size_t next_proof = 0;
    for (std::size_t written = 0; written < run; ++written) {
      const PendingEntry& entry = shard.pending.front();
      if (const auto* bytes = std::get_if<std::string>(&entry.work)) {
        enqueue_frame(shard, entry.connection, *bytes);
      } else if (const auto* proof = std::get_if<service::ProofRequest>(&entry.work)) {
        const WireResponse response = wire_response(proof_verdicts[next_proof++]);
        enqueue_frame(shard, entry.connection,
                      encode_response_frame_v2(proof->request_id, response));
      } else {
        enqueue_frame(shard, entry.connection,
                      encode_response_frame(wire_response(verdicts[next_verdict++])));
      }
      shard.pending.pop_front();
    }
  }
}

void AuthServer::flush_writable(Shard& shard, std::size_t index) {
  Connection& connection = shard.connections[index];
  while (connection.alive && !connection.out.empty()) {
    const ssize_t n = ::send(connection.fd, connection.out.data(),
                             connection.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      connection.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    close_connection(shard, index);
    return;
  }
  if (connection.alive && connection.out.empty() && connection.close_after_flush) {
    close_connection(shard, index);
  }
}

void AuthServer::close_connection(Shard& shard, std::size_t index) {
  static obs::Counter& closed =
      obs::Registry::instance().counter("net.connections_closed");
  Connection& connection = shard.connections[index];
  if (!connection.alive) return;
  ::close(connection.fd);
  connection = Connection{};
  connection.alive = false;
  bump(closed, shard.metrics.closed);
}

void AuthServer::close_idle_connections(Shard& shard) {
  static obs::Counter& deadline_closes =
      obs::Registry::instance().counter("net.deadline_closes");
  const auto now = std::chrono::steady_clock::now();
  const auto deadline = std::chrono::milliseconds(options_.read_deadline_ms);
  for (std::size_t i = 0; i < shard.connections.size(); ++i) {
    Connection& connection = shard.connections[i];
    // Anything with buffered output is still being answered; the read
    // deadline only reaps connections that are silent *and* owed nothing.
    if (!connection.alive || !connection.out.empty()) continue;
    if (now - connection.last_read > deadline) {
      deadline_closes.add(1);
      close_connection(shard, i);
    }
  }
}

bool AuthServer::draining_complete(const Shard& shard) const {
  if (!shard.pending.empty()) return false;
  for (const Connection& connection : shard.connections) {
    if (connection.alive && !connection.out.empty()) return false;
  }
  return true;
}

void AuthServer::set_reload_handler(std::function<void()> handler) {
  reload_handler_ = std::move(handler);
}

void AuthServer::apply_pending_reloads() {
  static obs::Counter& reloads = obs::Registry::instance().counter("net.reloads");
  static obs::Counter& failures =
      obs::Registry::instance().counter("net.reload_failures");
  const std::uint64_t wanted = reload_requested_.load(std::memory_order_relaxed);
  if (wanted == reloads_applied_.load(std::memory_order_relaxed)) return;
  // One handler invocation covers every request observed so far: a SIGHUP
  // burst reloads the files once, which is what the sender meant.
  if (reload_handler_) {
    try {
      reload_handler_();
    } catch (...) {
      // A reload that fails (corrupt or missing file mid-rewrite) keeps the
      // current generation serving; the operator retries after fixing it.
      failures.add(1);
    }
  }
  reloads.add(1);
  reloads_applied_.store(wanted, std::memory_order_relaxed);
}

void AuthServer::run_shard(Shard& shard) {
  bool draining = false;
  std::chrono::steady_clock::time_point drain_began;

  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_owner;  ///< connection index (or sentinel) per slot
  while (true) {
    // Reloads apply on shard 0's sweep (poll_interval_ms bounds latency
    // like stop requests); sibling shards see the published generation on
    // their next batch without any cross-shard coordination.
    if (shard.index == 0 && !draining) apply_pending_reloads();
    if (!draining && stop_.load(std::memory_order_relaxed)) {
      // Graceful drain: stop accepting and reading, answer everything that
      // was already read, flush, then leave the loop.
      draining = true;
      drain_began = std::chrono::steady_clock::now();
      if (shard.listen_fd >= 0) {
        ::close(shard.listen_fd);
        shard.listen_fd = -1;
      }
      // Handed-off fds never adopted would serve requests past the stop
      // request; refuse them instead. (Shard 0 stops dispatching on its own
      // next sweep; anything it deposits after this point is closed by the
      // destructor.)
      const std::lock_guard<std::mutex> lock(shard.handoff_mutex);
      for (const int fd : shard.handoff) ::close(fd);
      shard.handoff.clear();
    }
    if (draining) {
      const bool timed_out = std::chrono::steady_clock::now() - drain_began >
                             std::chrono::milliseconds(options_.drain_timeout_ms);
      if (draining_complete(shard) || timed_out) break;
    }

    fds.clear();
    fd_owner.clear();
    if (!draining && shard.listen_fd >= 0 &&
        std::chrono::steady_clock::now() >= shard.accept_backoff_until) {
      fds.push_back(pollfd{shard.listen_fd, POLLIN, 0});
      fd_owner.push_back(kListenerSlot);
    }
    if (!draining && shard.wake_read_fd >= 0) {
      fds.push_back(pollfd{shard.wake_read_fd, POLLIN, 0});
      fd_owner.push_back(kWakeSlot);
    }
    for (std::size_t i = 0; i < shard.connections.size(); ++i) {
      const Connection& connection = shard.connections[i];
      if (!connection.alive) continue;
      short events = 0;
      if (!draining && !connection.close_after_flush) events |= POLLIN;
      if (!connection.out.empty()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back(pollfd{connection.fd, events, 0});
      fd_owner.push_back(i);
    }

    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             options_.poll_interval_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      ROPUF_REQUIRE(false, std::string("poll: ") + std::strerror(errno));
    }

    for (std::size_t slot = 0; slot < fds.size(); ++slot) {
      if (fds[slot].revents == 0) continue;
      if (fd_owner[slot] == kListenerSlot) {
        accept_ready(shard);
        continue;
      }
      if (fd_owner[slot] == kWakeSlot) {
        adopt_handoff(shard);
        continue;
      }
      const std::size_t index = fd_owner[slot];
      if (!shard.connections[index].alive) continue;
      if ((fds[slot].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !draining) {
        service_readable(shard, index);
      }
    }

    drain_pending(shard);
    for (std::size_t i = 0; i < shard.connections.size(); ++i) {
      if (shard.connections[i].alive && (!shard.connections[i].out.empty() ||
                                         shard.connections[i].close_after_flush)) {
        flush_writable(shard, i);
      }
    }
    if (!draining) close_idle_connections(shard);
  }

  for (std::size_t i = 0; i < shard.connections.size(); ++i) close_connection(shard, i);
}

void AuthServer::run() {
  ROPUF_REQUIRE(shards_[0]->listen_fd >= 0, "run() called before bind_and_listen()");
  if (shards_.size() == 1) {
    run_shard(*shards_[0]);
    requests_served_.store(shards_[0]->requests_served, std::memory_order_relaxed);
    return;
  }

  // Shards 1..N-1 get their own reactor threads; the calling thread drives
  // shard 0, the acceptor. A shard that throws takes
  // the whole server down gracefully: it requests stop so its siblings
  // drain and join, then the first exception rethrows out of run().
  std::vector<std::exception_ptr> errors(shards_.size());
  std::vector<std::thread> threads;
  threads.reserve(shards_.size() - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    threads.emplace_back([this, s, &errors] {
      try {
        run_shard(*shards_[s]);
      } catch (...) {
        errors[s] = std::current_exception();
        request_stop();
      }
    });
  }
  try {
    run_shard(*shards_[0]);
  } catch (...) {
    errors[0] = std::current_exception();
    request_stop();
  }
  for (std::thread& thread : threads) thread.join();

  std::uint64_t served = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) served += shard->requests_served;
  requests_served_.store(served, std::memory_order_relaxed);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace ropuf::net
