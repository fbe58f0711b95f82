// Framed wire protocol for online authentication (see docs/serving.md).
//
// The serving front end (net/server.h) and its clients speak a
// length-prefixed, CRC32-framed, little-endian byte protocol built from the
// same primitives as the enrollment registry file format
// (registry/format.h): the load_le/store_le pair, ByteReader and the
// IEEE-802.3 crc32. Encoders size a frame once and store every field in
// place at its fixed offset; decoders read the header at fixed offsets and
// each payload field with one bounds check. A frame is a fixed 16-byte
// header followed by a checksummed payload:
//
//   offset  size  field
//   ------  ----  -------------------------------------------
//    0       4    magic "RPAF" (kFrameMagic, little-endian u32)
//    4       2    u16 protocol version (1 or 2)
//    6       2    u16 frame type (FrameType)
//    8       4    u32 payload byte count (<= kMaxPayloadBytes)
//   12       4    u32 payload CRC32 (IEEE, over the payload bytes)
//   16       n    payload
//
// Protocol v2 (docs/protocol_v2.md) extends the header's version field into
// a capability negotiation: the client's kClientHello advertises the newest
// version it speaks (hello frames travel with header version 1 so a pre-v2
// server classifies them as a recoverable kBadType and answers kBadFrame —
// the fallback signal), the server pins min(advertised, kWireMaxVersion)
// per connection and answers kServerHello. v2 payloads carry a 64-bit
// request id, so v2 responses may complete out of request order; the v1
// payloads are unchanged and keep the strict per-connection ordering
// invariant. v2 replaces the CRP exchange with a challenge-response MAC:
// kAuthRequest(v2) carries only ids, the server answers kAuthChallenge with
// a fresh nonce, and the prover returns kAuthProof with an HMAC tag
// (src/auth) — no response bits ever travel, which is what starves the
// distance-oracle attack.
//
// Every way a frame can be malformed maps to exactly one FrameDefect —
// the same one-check-one-defect discipline as the registry's Defect
// taxonomy — and the extraction API reports whether stream framing
// survived the defect (the consumer can skip the frame and keep the
// connection) or not (the only safe answer is an error frame and a clean
// close). Decoding never crashes and never reads past the buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "auth/auth.h"
#include "common/error.h"
#include "service/auth_service.h"

namespace ropuf::net {

/// Leading frame bytes, "RPAF" read as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x4641'5052u;
/// The original protocol revision (CRP request/response, no request ids).
inline constexpr std::uint16_t kWireVersion = 1;
/// Protocol v2: request ids + PUF-derived cryptographic authentication.
inline constexpr std::uint16_t kWireVersionV2 = 2;
/// Newest revision this library speaks; hellos advertise/pin against it.
inline constexpr std::uint16_t kWireMaxVersion = kWireVersionV2;
/// Fixed header byte count.
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Upper bound on a frame payload; a larger announced length is kBadLength
/// (an attacker must not be able to make the server buffer gigabytes).
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;

enum class FrameType : std::uint16_t {
  kAuthRequest = 1,    ///< v1: {device_id, challenge, response}; v2: {rid, device_id}
  kAuthResponse = 2,   ///< v1: {status, distance, bits}; v2: {rid, status, ...}
  kClientHello = 3,    ///< client -> server: u16 newest version the client speaks
  kServerHello = 4,    ///< server -> client: u16 version pinned for the connection
  kAuthChallenge = 5,  ///< server -> client (v2): {rid, 16-byte nonce}
  kAuthProof = 6,      ///< client -> server (v2): {rid, 32-byte HMAC tag}
};

/// The structural defect a frame decode can detect. Each maps to exactly
/// one check, so the corruption tests can assert the *right* check fired.
enum class FrameDefect {
  kBadMagic,    ///< leading bytes are not "RPAF" — stream framing lost
  kBadVersion,  ///< protocol version this endpoint does not speak
  kBadType,     ///< unknown frame type (framing intact: length is trusted)
  kBadLength,   ///< announced payload length exceeds kMaxPayloadBytes
  kBadCrc,      ///< payload fails its checksum (framing intact)
  kBadPayload,  ///< payload decodes inconsistently for its frame type
};

/// Stable human-readable name for a defect (error messages and tests).
const char* frame_defect_name(FrameDefect defect);

/// True when the defect destroys stream framing: the announced length can
/// no longer be trusted, so the connection must close after the error
/// response. Recoverable defects leave the frame boundary known.
bool frame_defect_is_fatal(FrameDefect defect);

/// Frame decode failure tagged with the defect that was detected.
class WireError : public Error {
 public:
  WireError(FrameDefect defect, const std::string& what)
      : Error(std::string("wire format error [") + frame_defect_name(defect) +
              "]: " + what),
        defect_(defect) {}

  FrameDefect defect() const { return defect_; }

 private:
  FrameDefect defect_;
};

/// Verdict status on the wire: the seven AuthService statuses plus the two
/// server-side degradations a request can meet before verification. The
/// admission statuses were appended *after* kBadFrame/kOverloaded shipped,
/// so the AuthStatus and WireStatus numberings diverge past
/// kMalformedRequest — wire_status()/auth_verdict() translate explicitly.
enum class WireStatus : std::uint8_t {
  kAccept = 0,
  kReject = 1,
  kUnknownDevice = 2,
  kCorruptRecord = 3,
  kMalformedRequest = 4,
  kBadFrame = 5,         ///< the request frame failed to decode (FrameDefect)
  kOverloaded = 6,       ///< pending-request queue full — retry later
  kRateLimited = 7,      ///< admission: device token bucket empty — back off
  kBudgetExhausted = 8,  ///< admission: device CRP/reuse budget spent
};

const char* wire_status_name(WireStatus status);

/// True for the two transport-level degradations (kBadFrame, kOverloaded)
/// that have no AuthVerdict equivalent; every other status round-trips
/// through wire_status()/auth_verdict().
bool wire_status_is_transport(WireStatus status);

/// Lossless mapping for the seven verification statuses.
WireStatus wire_status(service::AuthStatus status);

/// One authentication answer as it travels the wire.
struct WireResponse {
  WireStatus status = WireStatus::kReject;
  std::uint64_t distance = 0;
  std::uint32_t response_bits = 0;

  bool accepted() const { return status == WireStatus::kAccept; }
};

WireResponse wire_response(const service::AuthVerdict& verdict);

/// wire_response for verification verdicts, inverted: valid for every
/// status except the transport degradations (throws ropuf::Error for
/// kBadFrame/kOverloaded, which have no AuthVerdict equivalent).
service::AuthVerdict auth_verdict(const WireResponse& response);

// ------------------------------------------------------------------ encode

/// Complete request frame (header + payload) for one authentication
/// attempt. Payload: u64 device_id, u64 challenge, u32 bit count, then
/// ceil(bits/8) bytes of response bits packed LSB-first.
std::string encode_request_frame(const service::AuthRequest& request);

/// Complete response frame. Payload: u8 status, u64 distance,
/// u32 response_bits.
std::string encode_response_frame(const WireResponse& response);
/// The same frame appended to `out` (the server writes each answer straight
/// into a connection's output buffer); allocates only if `out` must grow.
void append_response_frame(std::string& out, const WireResponse& response);

// v2 frames. The hellos travel with header version 1 on purpose: a pre-v2
// server sees a recoverable unknown type (kBadType) and answers kBadFrame,
// which a v2 client reads as "speak v1". Everything else is header v2.

/// kClientHello: u16 newest version the client speaks.
std::string encode_client_hello(std::uint16_t max_version);
/// kServerHello: u16 version the server pinned for this connection.
std::string encode_server_hello(std::uint16_t version);
/// v2 kAuthRequest: u64 request_id, u64 device_id — no CRP material.
std::string encode_request_frame_v2(std::uint64_t request_id,
                                    std::uint64_t device_id);
/// kAuthChallenge: u64 request_id, 16-byte nonce.
std::string encode_challenge_frame(std::uint64_t request_id,
                                   const auth::Nonce& nonce);
/// The same frame appended to `out`, like append_response_frame.
void append_challenge_frame(std::string& out, std::uint64_t request_id,
                            const auth::Nonce& nonce);
/// kAuthProof: u64 request_id, 32-byte HMAC-SHA256 tag.
std::string encode_proof_frame(std::uint64_t request_id, const auth::Tag& tag);
/// v2 kAuthResponse: u64 request_id, then the v1 response fields.
std::string encode_response_frame_v2(std::uint64_t request_id,
                                     const WireResponse& response);
/// The same frame appended to `out`, like append_response_frame.
void append_response_frame_v2(std::string& out, std::uint64_t request_id,
                              const WireResponse& response);

// ------------------------------------------------------------------ decode

/// A complete frame located inside a byte stream.
struct FrameView {
  std::uint16_t version = kWireVersion;  ///< header protocol version (1 or 2)
  FrameType type = FrameType::kAuthRequest;
  std::string_view payload;      ///< CRC-verified payload bytes
  std::size_t frame_bytes = 0;   ///< header + payload: bytes to consume
};

/// Outcome of one frame-extraction attempt over buffered stream bytes.
struct ExtractResult {
  enum class Status {
    kNeedMore,  ///< the buffer holds no complete frame yet — read more
    kFrame,     ///< `frame` is valid; consume frame.frame_bytes
    kDefect,    ///< `defect` fired; consume `consume` bytes (0 = fatal)
  };
  Status status = Status::kNeedMore;
  FrameView frame;
  FrameDefect defect = FrameDefect::kBadMagic;
  /// For recoverable defects: the full frame size to drop so the stream
  /// stays in sync. 0 when the defect is fatal (framing lost).
  std::size_t consume = 0;
};

/// Examines the front of `buffer` for one frame. Never throws and never
/// reads past the buffer: header fields are validated as soon as the 16
/// header bytes are present, the payload CRC once the payload arrived.
ExtractResult try_extract_frame(std::string_view buffer);

/// Decodes a kAuthRequest payload. Throws WireError(kBadPayload) when the
/// payload is internally inconsistent (wrong size for its bit count,
/// nonzero padding bits).
service::AuthRequest decode_request_payload(std::string_view payload);

/// Decodes a kAuthResponse payload. Throws WireError(kBadPayload) on a
/// wrong-size payload or an out-of-range status byte.
WireResponse decode_response_payload(std::string_view payload);

/// Decodes a hello payload (client or server). Throws
/// WireError(kBadPayload) on a wrong-size payload or version 0.
std::uint16_t decode_hello_payload(std::string_view payload);

/// A decoded v2 kAuthRequest payload.
struct V2Request {
  std::uint64_t request_id = 0;
  std::uint64_t device_id = 0;
};
V2Request decode_request_payload_v2(std::string_view payload);

/// A decoded kAuthChallenge payload.
struct ChallengePayload {
  std::uint64_t request_id = 0;
  auth::Nonce nonce{};
};
ChallengePayload decode_challenge_payload(std::string_view payload);

/// A decoded kAuthProof payload.
struct ProofPayload {
  std::uint64_t request_id = 0;
  auth::Tag tag{};
};
ProofPayload decode_proof_payload(std::string_view payload);

/// A decoded v2 kAuthResponse payload.
struct V2Response {
  std::uint64_t request_id = 0;
  WireResponse response;
};
V2Response decode_response_payload_v2(std::string_view payload);

}  // namespace ropuf::net
