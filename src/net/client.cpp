#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "auth/auth.h"
#include "common/error.h"

namespace ropuf::net {
namespace {

constexpr std::size_t kReadChunkBytes = 4096;

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

/// The v1 response a frame carries; any other frame type from the server is
/// a protocol violation.
WireResponse response_of(const FrameView& frame) {
  ROPUF_REQUIRE(frame.type == FrameType::kAuthResponse, "server sent a non-response frame");
  return decode_response_payload(frame.payload);
}

}  // namespace

AuthClient::AuthClient(ClientOptions options) : options_(std::move(options)) {
  ROPUF_REQUIRE(options_.window > 0, "client window must be positive");
}

AuthClient::~AuthClient() { close(); }

void AuthClient::connect() {
  ROPUF_REQUIRE(fd_ < 0, "connect() called twice");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ROPUF_REQUIRE(fd >= 0, std::string("socket: ") + std::strerror(errno));
  fd_ = fd;

  if (options_.io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.io_timeout_ms / 1000;
    tv.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  ROPUF_REQUIRE(::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) == 1,
                "bad host address '" + options_.host + "'");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    close();
    ROPUF_REQUIRE(false, "connect " + options_.host + ":" +
                             std::to_string(options_.port) + ": " + reason);
  }
}

void AuthClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
  consumed_ = 0;
}

void AuthClient::send_raw(std::string_view bytes) {
  ROPUF_REQUIRE(fd_ >= 0, "send on a closed client");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ROPUF_REQUIRE(false, std::string("send: ") + std::strerror(errno));
  }
}

bool AuthClient::fill() {
  ROPUF_REQUIRE(fd_ >= 0, "recv on a closed client");
  // Compact once per read, not once per consumed frame.
  in_.erase(0, consumed_);
  consumed_ = 0;
  char chunk[kReadChunkBytes];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      in_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    ROPUF_REQUIRE(false, std::string("recv: ") + std::strerror(errno));
  }
}

std::optional<FrameView> AuthClient::next_frame() {
  while (true) {
    const ExtractResult extracted =
        try_extract_frame(std::string_view(in_).substr(consumed_));
    if (extracted.status == ExtractResult::Status::kDefect) {
      throw WireError(extracted.defect, "defective frame from server");
    }
    if (extracted.status == ExtractResult::Status::kFrame) {
      consumed_ += extracted.frame.frame_bytes;
      return extracted.frame;
    }
    if (!fill()) return std::nullopt;
  }
}

AuthClient::RawFrame AuthClient::recv_frame() {
  const std::optional<FrameView> frame = next_frame();
  ROPUF_REQUIRE(frame.has_value(), "server closed the connection mid-response");
  return RawFrame{frame->version, frame->type, std::string(frame->payload)};
}

std::uint16_t AuthClient::negotiate() {
  send_raw(encode_client_hello(kWireMaxVersion));
  const RawFrame frame = recv_frame();
  if (frame.type == FrameType::kServerHello) {
    const std::uint16_t pinned = decode_hello_payload(frame.payload);
    ROPUF_REQUIRE(pinned >= kWireVersion && pinned <= kWireMaxVersion,
                  "server pinned a version this client does not speak");
    version_ = pinned;
    return version_;
  }
  // A pre-v2 server saw an unknown frame type and answered kBadFrame: the
  // fallback signal. Anything else from it is a protocol violation.
  ROPUF_REQUIRE(frame.type == FrameType::kAuthResponse && frame.version == kWireVersion,
                "unexpected frame type during negotiation");
  const WireResponse response = decode_response_payload(frame.payload);
  ROPUF_REQUIRE(response.status == WireStatus::kBadFrame,
                "unexpected response status during negotiation");
  version_ = kWireVersion;
  return version_;
}

WireResponse AuthClient::recv_response() {
  const std::optional<FrameView> frame = next_frame();
  ROPUF_REQUIRE(frame.has_value(), "server closed the connection mid-response");
  return response_of(*frame);
}

std::size_t AuthClient::recv_until_close() {
  std::size_t responses = 0;
  while (const std::optional<FrameView> frame = next_frame()) {
    response_of(*frame);
    ++responses;
  }
  ROPUF_REQUIRE(consumed_ == in_.size(), "server closed mid-frame");
  return responses;
}

WireResponse AuthClient::send_request(const service::AuthRequest& request) {
  send_raw(encode_request_frame(request));
  return recv_response();
}

std::vector<WireResponse> AuthClient::send_batch(
    const std::vector<service::AuthRequest>& requests) {
  std::vector<WireResponse> responses;
  responses.reserve(requests.size());
  std::size_t next_to_send = 0;
  while (responses.size() < requests.size()) {
    // Top the window up, then drain one response; steady state keeps
    // `window` requests in flight without ever blocking on a full pipe.
    while (next_to_send < requests.size() &&
           next_to_send - responses.size() < options_.window) {
      send_raw(encode_request_frame(requests[next_to_send]));
      ++next_to_send;
    }
    responses.push_back(recv_response());
  }
  return responses;
}

std::vector<WireResponse> AuthClient::send_proof_batch(
    const std::vector<service::ProofIntent>& intents) {
  ROPUF_REQUIRE(version_ == kWireVersionV2,
                "send_proof_batch needs a negotiated v2 connection");
  // Responses land by request id, so a duplicate id would make two intents
  // indistinguishable on the wire; fail eagerly instead of misattributing.
  std::unordered_map<std::uint64_t, std::size_t> slot_by_rid;
  slot_by_rid.reserve(intents.size());
  for (std::size_t i = 0; i < intents.size(); ++i) {
    ROPUF_REQUIRE(slot_by_rid.emplace(intents[i].request_id, i).second,
                  "duplicate request id in proof batch");
  }

  std::vector<WireResponse> responses(intents.size());
  std::vector<bool> completed(intents.size(), false);
  std::size_t done = 0;
  std::size_t next_to_send = 0;
  std::size_t in_flight = 0;  ///< intents sent but not finally answered
  while (done < intents.size()) {
    // Top the window up, then service one frame. A request stays in flight
    // through its whole challenge/proof exchange; only the final v2
    // response (verdict, kOverloaded, ...) retires it.
    while (next_to_send < intents.size() && in_flight < options_.window) {
      const service::ProofIntent& intent = intents[next_to_send];
      send_raw(encode_request_frame_v2(intent.request_id, intent.device_id));
      ++next_to_send;
      ++in_flight;
    }
    const RawFrame frame = recv_frame();
    if (frame.type == FrameType::kAuthChallenge) {
      const ChallengePayload challenge = decode_challenge_payload(frame.payload);
      const auto slot = slot_by_rid.find(challenge.request_id);
      ROPUF_REQUIRE(slot != slot_by_rid.end() && !completed[slot->second],
                    "challenge for an unknown or finished request id");
      const service::ProofIntent& intent = intents[slot->second];
      // No recovered key, no valid tag: an all-zeros proof keeps the
      // exchange well-formed and lets the server's verdict say kReject.
      const auth::Tag tag =
          intent.has_key ? auth::prove(intent.key, challenge.nonce,
                                       intent.request_id, intent.device_id)
                         : auth::Tag{};
      send_raw(encode_proof_frame(challenge.request_id, tag));
      continue;
    }
    if (frame.type == FrameType::kAuthResponse && frame.version == kWireVersionV2) {
      const V2Response answer = decode_response_payload_v2(frame.payload);
      const auto slot = slot_by_rid.find(answer.request_id);
      ROPUF_REQUIRE(slot != slot_by_rid.end() && !completed[slot->second],
                    "response for an unknown or finished request id");
      responses[slot->second] = answer.response;
      completed[slot->second] = true;
      ++done;
      --in_flight;
      continue;
    }
    ROPUF_REQUIRE(false, "unexpected frame type in proof exchange");
  }
  return responses;
}

}  // namespace ropuf::net
