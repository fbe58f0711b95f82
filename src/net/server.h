// Online authentication server: N sharded poll() event loops ("reactors")
// in front of service::AuthService (see docs/serving.md).
//
// Each shard is one single-threaded loop: it owns its connections,
// read/write buffers, bounded pending queue and accept backoff, and never
// blocks on any one socket. Sockets are non-blocking, reads buffer into
// per-connection byte streams, and complete frames (net/wire.h) are decoded
// as they arrive.
//
// Every frame takes one route. Decoding it updates the connection's state
// (version pin, v2 session map) and queues one pending entry per answer
// owed: the answer itself, already encoded (hello reply, v2 challenge,
// kBadFrame, kOverloaded, replay reject), or a v1 request or v2 proof to
// verify. Once per sweep the shard drains its queue: each front run of at
// most max_batch unverified entries goes through one
// AuthService::verify_batch call and one verify_proof_batch call on the
// deterministic parallel pool, then every answer in the run is written in
// frame-arrival order. That is the one ordering rule — a connection's
// answers leave in the order its frames arrived — so a v1 answer N always
// pairs with request N although the wire carries no request ids. Verdicts
// are bit-identical to an offline batch over the same requests at any
// thread budget and any shard count (connections never migrate between
// shards, so each connection's stream is one shard's arrival order).
//
// shards == 1 (the default) is one loop on the calling thread, no extra
// threads. shards > 1 spawns one reactor thread per further shard. Shard 0
// owns the only listener: it accepts and deals each new fd round-robin
// (next++ % shards), installing its own turns locally and handing the rest
// over through the owner's mutex-protected handoff vector plus a self-pipe
// wakeup. The listener is bound and listening when bind_and_listen()
// returns, so a port-file handshake written after it cannot race a
// connection against a half-started server.
//
// Protocol v2 (docs/protocol_v2.md) rides the same route. A kClientHello
// pins the connection's version. Each connection keeps a bounded session
// map of outstanding challenges (max_sessions; past it a v2 request answers
// kOverloaded with its request id), and a proof consumes its session on
// arrival (a replayed proof finds no session and answers kReject).
// Verification is pure HMAC recomputation with no admission counters, so
// the verdict for a given (device, nonce, tag) triple is bit-identical at
// any shard count and thread budget.
//
// Admission stays device-sticky under sharding: AuthService partitions its
// per-device admission states by device-id hash (admission_shards), NOT by
// reactor shard, so the same device hits the same token bucket no matter
// which reactor owns its connection.
//
// Adversary-facing behavior is explicit (all per shard):
//  * Every frame decode error maps to an error response or a clean close —
//    never a crash, never an exception escaping the loop. Recoverable
//    defects (bad CRC, bad type, bad payload) answer kBadFrame and keep
//    the connection; fatal ones (bad magic/version/oversized length) answer
//    kBadFrame and close, because stream framing is lost.
//  * The pending queue is bounded: past max_pending unverified requests and
//    proofs the shard answers kOverloaded (reject-with-status backpressure;
//    a refused proof has consumed its session and names its request id)
//    instead of buffering without bound. Write buffers are bounded too —
//    a peer that stops reading its responses is closed as a slow consumer.
//    Reads are bounded *per sweep* (max_read_per_sweep), so one fast
//    talker can neither grow its input buffer without limit nor starve the
//    other connections out of its shard's loop.
//  * max_connections splits evenly across shards; a shard at its share
//    closes new arrivals immediately rather than queueing them.
//  * Idle connections past the read deadline are closed.
//  * Descriptor exhaustion (accept() failing with EMFILE/ENFILE) backs the
//    accepting shard off for accept_backoff_ms instead of busy-spinning on
//    a level-triggered listener that stays readable.
//  * request_stop() (async-signal-safe; ropuf_serve wires SIGINT to it)
//    triggers a graceful drain on every shard: stop accepting, answer
//    everything already read, flush, then return from run() once all
//    shards have drained.
//
// Metrics land under "net.*" (totals across shards, merged by the shared
// registry instruments) plus "net.shard<i>.*" per-shard counters when
// shards > 1; spans under "net.*" (docs/observability.md has the
// catalogue). The loop is observational-only like every other layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "auth/auth.h"
#include "net/wire.h"
#include "service/auth_service.h"

namespace ropuf::obs {
class Counter;
}  // namespace ropuf::obs

namespace ropuf::net {

struct ServerOptions {
  /// Loopback by default: exposing a verifier beyond localhost is a
  /// deployment decision the operator makes explicitly.
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port
  int backlog = 64;
  std::size_t max_connections = 256;
  /// Bounded pending queue *per shard*: v1 requests and v2 proofs past
  /// this many awaiting verification answer kOverloaded.
  std::size_t max_pending = 1024;
  /// Requests plus proofs verified per drain step (one verify_batch and one
  /// verify_proof_batch call) when draining a shard's queue.
  std::size_t max_batch = 256;
  /// Per-connection write-buffer bound; a slower consumer is closed.
  std::size_t max_write_buffer = 1u << 20;
  /// Bytes read from one connection per poll sweep. Bounds how far the
  /// unparsed input buffer can grow between frame extractions and keeps a
  /// firehose peer from starving the rest of the loop (poll() stays
  /// level-triggered, so unread bytes re-arm the next sweep).
  std::size_t max_read_per_sweep = 64u << 10;
  /// Close a connection with no readable traffic for this long.
  int read_deadline_ms = 5000;
  /// Stop polling the listener for this long after accept() fails with
  /// descriptor/buffer exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM); the
  /// listener would otherwise stay readable and spin the loop at full CPU.
  int accept_backoff_ms = 100;
  /// poll() timeout: bounds stop-request and deadline-check latency.
  int poll_interval_ms = 50;
  /// Hard cap on the graceful drain after request_stop().
  int drain_timeout_ms = 2000;
  /// Seed for the v2 challenge-nonce stream (auth::NonceFactory). The
  /// deterministic default keeps tests and parity harnesses reproducible;
  /// a production deployment sets an unpredictable value.
  std::uint64_t nonce_seed = 0x520c0de5eedull;
  /// Outstanding v2 challenges per connection; a v2 request past this
  /// answers kOverloaded (the v2 analogue of the pending-queue bound).
  std::size_t max_sessions = 1024;
  /// Reactor shards. 1 = one loop on the calling thread, no extra threads.
  std::size_t shards = 1;
};

/// The sharded event loop. Construction does not touch the network;
/// bind_and_listen opens every listener and run() serves until
/// request_stop(). run()'s calling thread drives shard 0 and spawns one
/// thread per additional shard; request_stop() may be called from any
/// thread or signal handler.
class AuthServer {
 public:
  /// `service` must outlive the server.
  AuthServer(const service::AuthService* service, ServerOptions options);
  ~AuthServer();
  AuthServer(const AuthServer&) = delete;
  AuthServer& operator=(const AuthServer&) = delete;

  /// Binds and listens (shard 0's listener; the handoff pipes of the other
  /// shards); returns the bound port (resolves port 0). Throws ropuf::Error
  /// on any socket failure. When this returns, the listener accepts
  /// connections, so a readiness handshake (e.g. --port-file) written
  /// afterwards is sound at any shard count.
  std::uint16_t bind_and_listen();

  /// The bound port; 0 before bind_and_listen().
  std::uint16_t port() const { return port_; }

  std::size_t shard_count() const { return shards_.size(); }

  /// Serves until request_stop(), then drains every shard gracefully and
  /// returns.
  void run();

  /// Requests every shard to stop; one relaxed atomic store, safe from any
  /// thread and from signal handlers.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Requests a registry reload: one relaxed atomic increment, safe from
  /// any thread and from signal handlers (ropuf_serve wires SIGHUP here,
  /// the same pattern request_stop uses for SIGINT/SIGTERM). Shard 0's
  /// loop runs the reload handler on its next sweep; bursts coalesce into
  /// one application. Every shard picks the published generation up at its
  /// next batch — EpochRegistry readers pin snapshots, so nothing pauses.
  void request_reload() {
    reload_requested_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Installs the reload action (re-reading registry files and publishing
  /// them on the EpochRegistry, in ropuf_serve's case). Set before run().
  /// The handler runs on shard 0's reactor thread; an exception it throws
  /// is counted under net.reload_failures and swallowed — a bad file on
  /// disk must not take down a serving fleet.
  void set_reload_handler(std::function<void()> handler);

  /// Reload batches applied so far (requests coalesce, so <= requested).
  std::uint64_t reloads_applied() const {
    return reloads_applied_.load(std::memory_order_relaxed);
  }

  /// Requests and proofs verified over the server's lifetime, summed
  /// across shards; published when run() returns (0 before). Safe to read
  /// from any thread.
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  /// One outstanding v2 challenge: what the server must remember between
  /// issuing a nonce and judging the proof that answers it.
  struct PendingChallenge {
    std::uint64_t device_id = 0;
    auth::Nonce nonce{};
  };
  struct Connection {
    int fd = -1;
    std::string in;       ///< buffered unparsed stream bytes
    std::string out;      ///< buffered unwritten response bytes
    std::chrono::steady_clock::time_point last_read;
    bool close_after_flush = false;  ///< fatal defect: answer, flush, close
    bool alive = true;
    /// Version pinned by hello negotiation; kWireVersion until a
    /// kClientHello arrives (v1 peers never send one).
    std::uint16_t version = kWireVersion;
    /// Outstanding v2 challenges keyed by request id; bounded by
    /// max_sessions. A proof consumes its entry — replays find nothing.
    std::unordered_map<std::uint64_t, PendingChallenge> sessions;
  };
  /// One answer owed, in frame-arrival order: the answer's encoded bytes
  /// when the loop produced it itself, else the v1 request or v2 proof
  /// whose verdict drain_pending encodes.
  struct PendingEntry {
    std::size_t connection;  ///< index into the owning shard's connections
    std::variant<std::string, service::AuthRequest, service::ProofRequest> work;
  };
  /// Per-shard counters ("net.shard<i>.*"); resolved once at construction
  /// when shards > 1, null in single-shard servers so the hot path pays
  /// nothing for the feature it isn't using. Each bumps alongside the
  /// matching global "net.*" counter, so global = sum of shards.
  struct ShardMetrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* closed = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* frames_out = nullptr;
    obs::Counter* enqueued = nullptr;
    obs::Counter* batches = nullptr;
  };
  /// Everything one reactor thread owns. No state in here is ever touched
  /// by another shard's thread, with one exception: the handoff vector
  /// (mutex-protected) and its wake pipe, through which shard 0 passes
  /// freshly accepted fds to their owner.
  struct Shard {
    std::size_t index = 0;
    int listen_fd = -1;  ///< shard 0's listener; -1 for the other shards
    std::size_t max_connections = 0;  ///< this shard's share of the cap
    std::vector<Connection> connections;
    std::deque<PendingEntry> pending;
    /// Unverified entries in pending (the max_pending backpressure bound
    /// counts verification work, not encoded answers riding along).
    std::size_t pending_unverified = 0;
    /// Listener poll resumes after this instant (accept_backoff_ms).
    std::chrono::steady_clock::time_point accept_backoff_until{};
    std::uint64_t requests_served = 0;
    /// Connection handoff: shard 0 deposits accepted fds under the mutex
    /// and writes one byte to the pipe so the owner's poll() wakes now
    /// rather than at the next timeout.
    std::mutex handoff_mutex;
    std::vector<int> handoff;
    int wake_read_fd = -1;
    int wake_write_fd = -1;
    ShardMetrics metrics;
  };

  /// Shard 0: accepts and deals each fd to the next shard in rotation
  /// (installing locally when it is its own turn).
  void accept_ready(Shard& shard);
  /// Installs one accepted fd into a connection slot, enforcing the
  /// shard's connection share.
  void adopt_fd(Shard& shard, int fd);
  /// Drains the wake pipe and adopts every handed-off fd.
  void adopt_handoff(Shard& shard);
  /// Reads everything available (up to max_read_per_sweep), extracts
  /// frames and queues their answers; compacts the input buffer once.
  void service_readable(Shard& shard, std::size_t index);
  /// Decodes one frame, updates the connection's state and queues the
  /// answer it owes. Never verifies and never writes.
  void handle_frame(Shard& shard, std::size_t index, const FrameView& frame);
  /// Appends already-encoded frame bytes to a connection's write buffer,
  /// enforcing the slow-consumer bound.
  void enqueue_frame(Shard& shard, std::size_t index, std::string_view frame_bytes);
  /// Drains the shard's pending queue, max_batch unverified entries at a
  /// time, writing every answer in frame-arrival order.
  void drain_pending(Shard& shard);
  void flush_writable(Shard& shard, std::size_t index);
  void close_connection(Shard& shard, std::size_t index);
  void close_idle_connections(Shard& shard);
  bool draining_complete(const Shard& shard) const;
  /// Shard 0 only: applies coalesced reload requests (runs the handler).
  void apply_pending_reloads();
  /// One reactor: the event loop over this shard's fds.
  void run_shard(Shard& shard);

  const service::AuthService* service_;
  ServerOptions options_;
  /// v2 challenge nonces; thread-safe, shared by all shards.
  auth::NonceFactory nonce_factory_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> reload_requested_{0};
  std::atomic<std::uint64_t> reloads_applied_{0};
  std::function<void()> reload_handler_;  ///< set before run(), shard 0 runs it
  std::size_t round_robin_next_ = 0;  ///< only shard 0's thread touches this
  std::atomic<std::uint64_t> requests_served_{0};
};

}  // namespace ropuf::net
