// Blocking authentication client for the framed wire protocol (net/wire.h).
//
// The client side needs none of the server's event-loop machinery: it opens
// one TCP connection, writes request frames, and reads response frames in
// order. The only subtlety is pipelining — writing an unbounded number of
// requests before reading any responses can deadlock once both socket
// buffers fill — so send_batch() pipelines through a bounded window: at most
// `window` requests are in flight before the client drains their responses.
// Keeping the window at or below the server's max_pending guarantees a
// single client on an otherwise idle server never sees kOverloaded.
//
// Protocol v2 (docs/protocol_v2.md): negotiate() runs the hello exchange
// and pins the connection's version — including the graceful fallback when
// a pre-v2 server answers the (to it, unknown-typed) hello with kBadFrame.
// send_proof_batch() then drives the v2 challenge-response state machine
// over the same bounded window: requests go out, challenges come back in
// whatever order the server resolves them, each is answered with an HMAC
// proof computed from the caller's recovered key, and the v2 responses —
// matched by request id, not position — land back in intent order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.h"
#include "service/auth_service.h"

namespace ropuf::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Requests in flight before responses are drained (see header note).
  std::size_t window = 128;
  /// Socket send/receive timeout; 0 disables. Guards the client against a
  /// hung server the way the server's read deadline guards against clients.
  int io_timeout_ms = 10000;
};

/// One TCP connection speaking the wire protocol. Not thread-safe; blocking.
class AuthClient {
 public:
  explicit AuthClient(ClientOptions options);
  ~AuthClient();
  AuthClient(const AuthClient&) = delete;
  AuthClient& operator=(const AuthClient&) = delete;
  /// Movable so factory helpers can hand out connected clients.
  AuthClient(AuthClient&& other) noexcept
      : options_(std::move(other.options_)),
        fd_(other.fd_),
        in_(std::move(other.in_)),
        consumed_(other.consumed_),
        version_(other.version_) {
    other.fd_ = -1;
  }
  AuthClient& operator=(AuthClient&&) = delete;

  /// Connects to host:port. Throws ropuf::Error on failure.
  void connect();

  /// Runs the hello exchange and pins the connection's protocol version:
  /// advertises kWireMaxVersion, and accepts either a kServerHello (the
  /// server's pin) or a v1 kBadFrame response (a pre-v2 server rejecting
  /// the unknown frame type — the v1 fallback signal). Returns the pinned
  /// version. Call once, right after connect(), before any requests.
  std::uint16_t negotiate();

  /// The pinned protocol version: kWireVersion until negotiate() ran.
  std::uint16_t version() const { return version_; }

  /// Sends one request and waits for its response.
  WireResponse send_request(const service::AuthRequest& request);

  /// Pipelines `requests` through the window and returns their responses in
  /// request order. Throws on transport failure or a malformed response.
  std::vector<WireResponse> send_batch(const std::vector<service::AuthRequest>& requests);

  /// Pipelines v2 proof intents through the window — request out, challenge
  /// in, proof out, response in — and returns the responses in intent
  /// order (matched by request id; the wire may complete out of order).
  /// Intents without a recovered key (has_key == false) answer their
  /// challenge with an all-zeros tag, which the server rejects — how a
  /// forger who never measured the PUF looks on the wire. Requires a
  /// negotiated v2 connection and unique request ids; throws ropuf::Error
  /// otherwise, and on transport failure or an unexpected frame.
  std::vector<WireResponse> send_proof_batch(
      const std::vector<service::ProofIntent>& intents);

  /// Writes raw bytes as-is (corruption tests tamper with frames and need a
  /// byte-level escape hatch). Throws on transport failure.
  void send_raw(std::string_view bytes);

  /// Reads until one complete frame arrives and decodes it as a response.
  /// Throws WireError on a defective frame and ropuf::Error when the server
  /// closes the connection first (`eof_ok` instead reports a status-free
  /// closed-connection response is not possible, so callers that *expect*
  /// a close use recv_close()).
  WireResponse recv_response();

  /// Reads until EOF, asserting the server sends nothing but well-formed
  /// response frames first; returns how many arrived before the close.
  std::size_t recv_until_close();

  /// One received frame, whatever its type — the generic receiver the v2
  /// state machine (and tests poking at raw traffic) builds on.
  struct RawFrame {
    std::uint16_t version = kWireVersion;
    FrameType type = FrameType::kAuthRequest;
    std::string payload;
  };

  /// Reads until one complete well-formed frame arrives and returns it.
  /// Throws WireError on a defective frame, ropuf::Error on a close.
  RawFrame recv_frame();

  bool connected() const { return fd_ >= 0; }
  void close();

 private:
  /// Blocking read of at least one more byte into in_ (compacting the
  /// consumed prefix first); false on clean EOF.
  bool fill();
  /// The one read loop: the next complete frame, consumed by offset and
  /// viewed in place until the next call; nullopt on EOF. Throws WireError
  /// on a defective frame.
  std::optional<FrameView> next_frame();

  ClientOptions options_;
  int fd_ = -1;
  std::string in_;  ///< buffered stream bytes; the first consumed_ are spent
  std::size_t consumed_ = 0;
  std::uint16_t version_ = kWireVersion;  ///< pinned by negotiate()
};

}  // namespace ropuf::net
