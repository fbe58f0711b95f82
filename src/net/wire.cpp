#include "net/wire.h"

#include <cstring>
#include <span>

#include "registry/format.h"

namespace ropuf::net {
namespace {

using registry::load_le;
using registry::store_le;

/// ByteReader defect for reads that cannot overrun (sizes pre-validated);
/// if it ever fires the caller has a bug, not the peer.
constexpr registry::Defect kNeverOverruns = registry::Defect::kTruncated;

/// A request payload's fixed fields: u64 device_id, u64 challenge, u32 bits.
constexpr std::size_t kRequestFixedBytes = 8 + 8 + 4;

/// Request payload byte count for a given response bit count.
std::size_t request_payload_bytes(std::size_t bits) {
  return kRequestFixedBytes + (bits + 7) / 8;
}

constexpr std::size_t kResponsePayloadBytes = 1 + 8 + 4;
constexpr std::size_t kHelloPayloadBytes = 2;
constexpr std::size_t kRequestV2PayloadBytes = 8 + 8;
constexpr std::size_t kChallengePayloadBytes = 8 + 16;
constexpr std::size_t kProofPayloadBytes = 8 + 32;
constexpr std::size_t kResponseV2PayloadBytes = 8 + kResponsePayloadBytes;

/// Appends one frame to `out`: grows it once by the header and the
/// payload, lets `store_payload` fill the payload bytes in place, then
/// stores the header fields and the payload CRC at their fixed offsets.
/// Every encoder is this one call, so a frame built into its own string and
/// one appended to a connection's output buffer are the same bytes.
template <typename StorePayload>
void append_frame(std::string& out, FrameType type, std::uint16_t version,
                  std::size_t payload_bytes, const StorePayload& store_payload) {
  const std::size_t start = out.size();
  out.resize(start + kFrameHeaderBytes + payload_bytes);
  char* const header = out.data() + start;
  char* const payload = header + kFrameHeaderBytes;
  store_payload(payload);
  store_le(header, kFrameMagic);
  store_le(header + 4, version);
  store_le(header + 6, static_cast<std::uint16_t>(type));
  store_le(header + 8, static_cast<std::uint32_t>(payload_bytes));
  store_le(header + 12, registry::crc32(std::string_view(payload, payload_bytes)));
}

/// append_frame into a fresh string: the encode_* form.
template <typename StorePayload>
std::string encode_frame(FrameType type, std::uint16_t version, std::size_t payload_bytes,
                         const StorePayload& store_payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload_bytes);
  append_frame(out, type, version, payload_bytes, store_payload);
  return out;
}

/// The v1 response fields at `p`: u8 status, u64 distance, u32 bits.
void store_response(char* p, const WireResponse& response) {
  p[0] = static_cast<char>(response.status);
  store_le(p + 1, response.distance);
  store_le(p + 9, response.response_bits);
}

/// A request id followed by a byte array (a nonce or a tag) at `p`.
void store_id_and_bytes(char* p, std::uint64_t request_id,
                        std::span<const std::uint8_t> bytes) {
  store_le(p, request_id);
  std::memcpy(p + 8, bytes.data(), bytes.size());
}

WireError bad_payload_size(const char* what, std::size_t want, std::size_t got) {
  return WireError(FrameDefect::kBadPayload,
                   std::string(what) + " payload must be " + std::to_string(want) +
                       " bytes, got " + std::to_string(got));
}

}  // namespace

const char* frame_defect_name(FrameDefect defect) {
  switch (defect) {
    case FrameDefect::kBadMagic: return "bad-magic";
    case FrameDefect::kBadVersion: return "bad-version";
    case FrameDefect::kBadType: return "bad-type";
    case FrameDefect::kBadLength: return "bad-length";
    case FrameDefect::kBadCrc: return "bad-crc";
    case FrameDefect::kBadPayload: return "bad-payload";
  }
  return "unknown";
}

bool frame_defect_is_fatal(FrameDefect defect) {
  switch (defect) {
    case FrameDefect::kBadMagic:
    case FrameDefect::kBadVersion:
    case FrameDefect::kBadLength:
      return true;  // the announced length cannot be trusted
    case FrameDefect::kBadType:
    case FrameDefect::kBadCrc:
    case FrameDefect::kBadPayload:
      return false;  // the frame boundary is known; skip and continue
  }
  return true;
}

const char* wire_status_name(WireStatus status) {
  switch (status) {
    case WireStatus::kAccept: return "accept";
    case WireStatus::kReject: return "reject";
    case WireStatus::kUnknownDevice: return "unknown-device";
    case WireStatus::kCorruptRecord: return "corrupt-record";
    case WireStatus::kMalformedRequest: return "malformed-request";
    case WireStatus::kBadFrame: return "bad-frame";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kRateLimited: return "rate-limited";
    case WireStatus::kBudgetExhausted: return "budget-exhausted";
  }
  return "unknown";
}

bool wire_status_is_transport(WireStatus status) {
  return status == WireStatus::kBadFrame || status == WireStatus::kOverloaded;
}

WireStatus wire_status(service::AuthStatus status) {
  switch (status) {
    // The original five verification statuses keep their shipped wire
    // values; the admission statuses were appended past the transport
    // degradations, so they translate explicitly.
    case service::AuthStatus::kAccept: return WireStatus::kAccept;
    case service::AuthStatus::kReject: return WireStatus::kReject;
    case service::AuthStatus::kUnknownDevice: return WireStatus::kUnknownDevice;
    case service::AuthStatus::kCorruptRecord: return WireStatus::kCorruptRecord;
    case service::AuthStatus::kMalformedRequest:
      return WireStatus::kMalformedRequest;
    case service::AuthStatus::kRateLimited: return WireStatus::kRateLimited;
    case service::AuthStatus::kBudgetExhausted:
      return WireStatus::kBudgetExhausted;
  }
  return WireStatus::kReject;
}

WireResponse wire_response(const service::AuthVerdict& verdict) {
  WireResponse response;
  response.status = wire_status(verdict.status);
  response.distance = verdict.distance;
  response.response_bits = static_cast<std::uint32_t>(verdict.response_bits);
  return response;
}

service::AuthVerdict auth_verdict(const WireResponse& response) {
  ROPUF_REQUIRE(!wire_status_is_transport(response.status),
                std::string("wire status '") + wire_status_name(response.status) +
                    "' has no verification verdict");
  service::AuthVerdict verdict;
  switch (response.status) {
    case WireStatus::kAccept: verdict.status = service::AuthStatus::kAccept; break;
    case WireStatus::kReject: verdict.status = service::AuthStatus::kReject; break;
    case WireStatus::kUnknownDevice:
      verdict.status = service::AuthStatus::kUnknownDevice;
      break;
    case WireStatus::kCorruptRecord:
      verdict.status = service::AuthStatus::kCorruptRecord;
      break;
    case WireStatus::kMalformedRequest:
      verdict.status = service::AuthStatus::kMalformedRequest;
      break;
    case WireStatus::kRateLimited:
      verdict.status = service::AuthStatus::kRateLimited;
      break;
    case WireStatus::kBudgetExhausted:
      verdict.status = service::AuthStatus::kBudgetExhausted;
      break;
    case WireStatus::kBadFrame:
    case WireStatus::kOverloaded:
      break;  // unreachable: rejected above
  }
  verdict.distance = static_cast<std::size_t>(response.distance);
  verdict.response_bits = response.response_bits;
  return verdict;
}

// -------------------------------------------------------------------- encode

std::string encode_request_frame(const service::AuthRequest& request) {
  const std::size_t bits = request.response.size();
  const std::span<const std::uint64_t> words = request.response.words();
  return encode_frame(FrameType::kAuthRequest, kWireVersion, request_payload_bytes(bits),
                      [&](char* p) {
                        store_le(p, request.device_id);
                        store_le(p + 8, request.challenge);
                        store_le(p + 16, static_cast<std::uint32_t>(bits));
                        // LSB-first bytes of the words; the bits past size()
                        // are zero, so the padding is too.
                        char* const packed = p + kRequestFixedBytes;
                        for (std::size_t i = 0; i < (bits + 7) / 8; ++i) {
                          packed[i] = static_cast<char>(words[i / 8] >> (8 * (i % 8)));
                        }
                      });
}

void append_response_frame(std::string& out, const WireResponse& response) {
  append_frame(out, FrameType::kAuthResponse, kWireVersion, kResponsePayloadBytes,
               [&](char* p) { store_response(p, response); });
}

std::string encode_response_frame(const WireResponse& response) {
  std::string out;
  out.reserve(kFrameHeaderBytes + kResponsePayloadBytes);
  append_response_frame(out, response);
  return out;
}

std::string encode_client_hello(std::uint16_t max_version) {
  // Header version 1: a pre-v2 server must classify this as a recoverable
  // unknown type, not a fatal unknown version, so the connection survives
  // for the v1 fallback.
  return encode_frame(FrameType::kClientHello, kWireVersion, kHelloPayloadBytes,
                      [&](char* p) { store_le(p, max_version); });
}

std::string encode_server_hello(std::uint16_t version) {
  return encode_frame(FrameType::kServerHello, kWireVersion, kHelloPayloadBytes,
                      [&](char* p) { store_le(p, version); });
}

std::string encode_request_frame_v2(std::uint64_t request_id,
                                    std::uint64_t device_id) {
  return encode_frame(FrameType::kAuthRequest, kWireVersionV2, kRequestV2PayloadBytes,
                      [&](char* p) {
                        store_le(p, request_id);
                        store_le(p + 8, device_id);
                      });
}

void append_challenge_frame(std::string& out, std::uint64_t request_id,
                            const auth::Nonce& nonce) {
  append_frame(out, FrameType::kAuthChallenge, kWireVersionV2, kChallengePayloadBytes,
               [&](char* p) { store_id_and_bytes(p, request_id, nonce); });
}

std::string encode_challenge_frame(std::uint64_t request_id,
                                   const auth::Nonce& nonce) {
  std::string out;
  out.reserve(kFrameHeaderBytes + kChallengePayloadBytes);
  append_challenge_frame(out, request_id, nonce);
  return out;
}

std::string encode_proof_frame(std::uint64_t request_id, const auth::Tag& tag) {
  return encode_frame(FrameType::kAuthProof, kWireVersionV2, kProofPayloadBytes,
                      [&](char* p) { store_id_and_bytes(p, request_id, tag); });
}

void append_response_frame_v2(std::string& out, std::uint64_t request_id,
                              const WireResponse& response) {
  append_frame(out, FrameType::kAuthResponse, kWireVersionV2, kResponseV2PayloadBytes,
               [&](char* p) {
                 store_le(p, request_id);
                 store_response(p + 8, response);
               });
}

std::string encode_response_frame_v2(std::uint64_t request_id,
                                     const WireResponse& response) {
  std::string out;
  out.reserve(kFrameHeaderBytes + kResponseV2PayloadBytes);
  append_response_frame_v2(out, request_id, response);
  return out;
}

// -------------------------------------------------------------------- decode

ExtractResult try_extract_frame(std::string_view buffer) {
  ExtractResult result;
  if (buffer.size() < kFrameHeaderBytes) return result;  // kNeedMore

  const char* const header = buffer.data();
  const auto magic = load_le<std::uint32_t>(header);
  const auto version = load_le<std::uint16_t>(header + 4);
  const auto type = load_le<std::uint16_t>(header + 6);
  const auto length = load_le<std::uint32_t>(header + 8);
  const auto checksum = load_le<std::uint32_t>(header + 12);

  const auto defect = [&result](FrameDefect d, std::size_t consume) {
    result.status = ExtractResult::Status::kDefect;
    result.defect = d;
    result.consume = consume;
    return result;
  };
  // Fatal checks first: each can be decided from the header alone, and a
  // failure means the announced length (hence the next frame boundary)
  // cannot be trusted.
  if (magic != kFrameMagic) return defect(FrameDefect::kBadMagic, 0);
  if (version == 0 || version > kWireMaxVersion) {
    return defect(FrameDefect::kBadVersion, 0);
  }
  if (length > kMaxPayloadBytes) return defect(FrameDefect::kBadLength, 0);

  const std::size_t frame_bytes = kFrameHeaderBytes + length;
  if (buffer.size() < frame_bytes) return result;  // kNeedMore
  const std::string_view payload = buffer.substr(kFrameHeaderBytes, length);

  // Recoverable checks: the frame boundary is known, so the consumer can
  // skip exactly this frame and stay in sync.
  if (type < static_cast<std::uint16_t>(FrameType::kAuthRequest) ||
      type > static_cast<std::uint16_t>(FrameType::kAuthProof)) {
    return defect(FrameDefect::kBadType, frame_bytes);
  }
  if (registry::crc32(payload) != checksum) {
    return defect(FrameDefect::kBadCrc, frame_bytes);
  }

  result.status = ExtractResult::Status::kFrame;
  result.frame.version = version;
  result.frame.type = static_cast<FrameType>(type);
  result.frame.payload = payload;
  result.frame.frame_bytes = frame_bytes;
  return result;
}

service::AuthRequest decode_request_payload(std::string_view payload) {
  if (payload.size() < kRequestFixedBytes) {
    throw WireError(FrameDefect::kBadPayload,
                    "request payload of " + std::to_string(payload.size()) +
                        " bytes is shorter than its fixed fields");
  }
  registry::ByteReader reader(payload, kNeverOverruns);
  service::AuthRequest request;
  request.device_id = reader.u64();
  request.challenge = reader.u64();
  const std::uint32_t bits = reader.u32();
  if (payload.size() != request_payload_bytes(bits)) {
    throw WireError(FrameDefect::kBadPayload,
                    "request announces " + std::to_string(bits) +
                        " response bits but carries " +
                        std::to_string(payload.size()) + " payload bytes");
  }
  // Canonical encoding: padding bits past the announced count must be zero,
  // so every decoded request has exactly one byte representation. This
  // comes before the BitVec is built: a BitVec's bits past size() are zero.
  const std::string_view packed = payload.substr(kRequestFixedBytes);
  if (bits % 8 != 0 && (static_cast<std::uint8_t>(packed.back()) >> (bits % 8)) != 0) {
    throw WireError(FrameDefect::kBadPayload,
                    "nonzero padding bits past the announced bit count");
  }
  request.response = BitVec::from_packed_bytes(packed, bits);
  return request;
}

WireResponse decode_response_payload(std::string_view payload) {
  if (payload.size() != kResponsePayloadBytes) {
    throw WireError(FrameDefect::kBadPayload,
                    "response payload must be " +
                        std::to_string(kResponsePayloadBytes) + " bytes, got " +
                        std::to_string(payload.size()));
  }
  registry::ByteReader reader(payload, kNeverOverruns);
  const std::uint8_t status = reader.u8();
  if (status > static_cast<std::uint8_t>(WireStatus::kBudgetExhausted)) {
    throw WireError(FrameDefect::kBadPayload,
                    "unknown wire status " + std::to_string(status));
  }
  WireResponse response;
  response.status = static_cast<WireStatus>(status);
  response.distance = reader.u64();
  response.response_bits = reader.u32();
  return response;
}

std::uint16_t decode_hello_payload(std::string_view payload) {
  if (payload.size() != kHelloPayloadBytes) {
    throw bad_payload_size("hello", kHelloPayloadBytes, payload.size());
  }
  registry::ByteReader reader(payload, kNeverOverruns);
  const std::uint16_t version = reader.u16();
  if (version == 0) {
    throw WireError(FrameDefect::kBadPayload, "hello advertises version 0");
  }
  return version;
}

V2Request decode_request_payload_v2(std::string_view payload) {
  if (payload.size() != kRequestV2PayloadBytes) {
    throw bad_payload_size("v2 request", kRequestV2PayloadBytes, payload.size());
  }
  registry::ByteReader reader(payload, kNeverOverruns);
  V2Request request;
  request.request_id = reader.u64();
  request.device_id = reader.u64();
  return request;
}

ChallengePayload decode_challenge_payload(std::string_view payload) {
  if (payload.size() != kChallengePayloadBytes) {
    throw bad_payload_size("challenge", kChallengePayloadBytes, payload.size());
  }
  registry::ByteReader reader(payload, kNeverOverruns);
  ChallengePayload challenge;
  challenge.request_id = reader.u64();
  reader.raw(challenge.nonce);
  return challenge;
}

ProofPayload decode_proof_payload(std::string_view payload) {
  if (payload.size() != kProofPayloadBytes) {
    throw bad_payload_size("proof", kProofPayloadBytes, payload.size());
  }
  registry::ByteReader reader(payload, kNeverOverruns);
  ProofPayload proof;
  proof.request_id = reader.u64();
  reader.raw(proof.tag);
  return proof;
}

V2Response decode_response_payload_v2(std::string_view payload) {
  if (payload.size() != kResponseV2PayloadBytes) {
    throw bad_payload_size("v2 response", kResponseV2PayloadBytes, payload.size());
  }
  registry::ByteReader reader(payload, kNeverOverruns);
  V2Response response;
  response.request_id = reader.u64();
  const std::uint8_t status = reader.u8();
  if (status > static_cast<std::uint8_t>(WireStatus::kBudgetExhausted)) {
    throw WireError(FrameDefect::kBadPayload,
                    "unknown wire status " + std::to_string(status));
  }
  response.response.status = static_cast<WireStatus>(status);
  response.response.distance = reader.u64();
  response.response.response_bits = reader.u32();
  return response;
}

}  // namespace ropuf::net
