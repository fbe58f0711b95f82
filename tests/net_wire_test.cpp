// Wire-format tests: encode/decode round trips plus a corruption suite in
// the registry format_test style — one tamper per frame field, asserting
// the *matching* FrameDefect fires and that the fatal/recoverable
// classification (close vs skip) is what docs/serving.md promises.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "auth/auth.h"
#include "common/bitvec.h"
#include "service/auth_service.h"

namespace {

using namespace ropuf;

// Header field offsets (see net/wire.h frame layout).
constexpr std::size_t kMagicOffset = 0;
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kTypeOffset = 6;
constexpr std::size_t kLengthOffset = 8;

service::AuthRequest sample_request(std::size_t bits = 13) {
  service::AuthRequest request;
  request.device_id = 0x1122334455667788ull;
  request.challenge = 0xdeadbeefcafef00dull;
  request.response = BitVec(bits);
  for (std::size_t i = 0; i < bits; ++i) request.response.set(i, i % 3 == 0);
  return request;
}

std::string valid_frame() { return net::encode_request_frame(sample_request()); }

net::ExtractResult expect_defect(const std::string& frame, net::FrameDefect want) {
  const net::ExtractResult result = net::try_extract_frame(frame);
  EXPECT_EQ(result.status, net::ExtractResult::Status::kDefect);
  EXPECT_EQ(result.defect, want) << net::frame_defect_name(result.defect);
  return result;
}

TEST(Wire, RequestRoundTripPreservesEveryField) {
  // 0..300 bits crosses the byte, word and inline-word boundaries of both
  // the packing and the BitVec the decoder builds.
  for (std::size_t bits = 0; bits <= 300; ++bits) {
    const service::AuthRequest request = sample_request(bits);
    const std::string frame = net::encode_request_frame(request);

    const net::ExtractResult result = net::try_extract_frame(frame);
    ASSERT_EQ(result.status, net::ExtractResult::Status::kFrame) << "bits " << bits;
    EXPECT_EQ(result.frame.type, net::FrameType::kAuthRequest);
    EXPECT_EQ(result.frame.frame_bytes, frame.size());

    const service::AuthRequest decoded =
        net::decode_request_payload(result.frame.payload);
    EXPECT_EQ(decoded.device_id, request.device_id);
    EXPECT_EQ(decoded.challenge, request.challenge);
    ASSERT_EQ(decoded.response.size(), request.response.size());
    for (std::size_t i = 0; i < request.response.size(); ++i) {
      EXPECT_EQ(decoded.response.get(i), request.response.get(i))
          << "bits " << bits << ", bit " << i;
    }
    EXPECT_EQ(decoded.response, request.response) << "bits " << bits;
  }
}

TEST(Wire, ResponseRoundTripCoversEveryStatus) {
  for (std::uint8_t s = 0;
       s <= static_cast<std::uint8_t>(net::WireStatus::kBudgetExhausted); ++s) {
    net::WireResponse response;
    response.status = static_cast<net::WireStatus>(s);
    response.distance = 7 + s;
    response.response_bits = 16;
    const std::string frame = net::encode_response_frame(response);
    const net::ExtractResult result = net::try_extract_frame(frame);
    ASSERT_EQ(result.status, net::ExtractResult::Status::kFrame);
    ASSERT_EQ(result.frame.type, net::FrameType::kAuthResponse);
    const net::WireResponse decoded = net::decode_response_payload(result.frame.payload);
    EXPECT_EQ(decoded.status, response.status);
    EXPECT_EQ(decoded.distance, response.distance);
    EXPECT_EQ(decoded.response_bits, response.response_bits);
  }
}

TEST(Wire, VerdictMappingIsLosslessAndRejectsDegradedStatuses) {
  service::AuthVerdict verdict;
  verdict.status = service::AuthStatus::kReject;
  verdict.distance = 5;
  verdict.response_bits = 16;
  const service::AuthVerdict back = net::auth_verdict(net::wire_response(verdict));
  EXPECT_EQ(back.status, verdict.status);
  EXPECT_EQ(back.distance, verdict.distance);
  EXPECT_EQ(back.response_bits, verdict.response_bits);

  for (const net::WireStatus degraded :
       {net::WireStatus::kBadFrame, net::WireStatus::kOverloaded}) {
    EXPECT_THROW(net::auth_verdict(net::WireResponse{degraded, 0, 0}), Error);
  }
}

// ------------------------------------------------------- incomplete frames

TEST(Wire, PartialHeaderNeedsMore) {
  const std::string frame = valid_frame();
  for (std::size_t n = 0; n < net::kFrameHeaderBytes; ++n) {
    const net::ExtractResult result = net::try_extract_frame(frame.substr(0, n));
    EXPECT_EQ(result.status, net::ExtractResult::Status::kNeedMore) << "bytes " << n;
  }
}

TEST(Wire, TruncatedBodyNeedsMore) {
  const std::string frame = valid_frame();
  for (std::size_t n = net::kFrameHeaderBytes; n < frame.size(); ++n) {
    const net::ExtractResult result = net::try_extract_frame(frame.substr(0, n));
    EXPECT_EQ(result.status, net::ExtractResult::Status::kNeedMore) << "bytes " << n;
  }
}

// ------------------------------------------ one tamper per header field

TEST(WireDefect, BadMagicIsFatal) {
  std::string frame = valid_frame();
  frame[kMagicOffset] ^= 0x01;
  const net::ExtractResult result = expect_defect(frame, net::FrameDefect::kBadMagic);
  EXPECT_EQ(result.consume, 0u);
  EXPECT_TRUE(net::frame_defect_is_fatal(result.defect));
}

TEST(WireDefect, BadVersionIsFatal) {
  std::string frame = valid_frame();
  frame[kVersionOffset] = static_cast<char>(0x7f);
  const net::ExtractResult result = expect_defect(frame, net::FrameDefect::kBadVersion);
  EXPECT_EQ(result.consume, 0u);
  EXPECT_TRUE(net::frame_defect_is_fatal(result.defect));
}

TEST(WireDefect, BadTypeIsRecoverableWithKnownBoundary) {
  std::string frame = valid_frame();
  frame[kTypeOffset] = static_cast<char>(0x33);
  const net::ExtractResult result = expect_defect(frame, net::FrameDefect::kBadType);
  EXPECT_EQ(result.consume, frame.size());
  EXPECT_FALSE(net::frame_defect_is_fatal(result.defect));
}

TEST(WireDefect, OversizedLengthIsFatalBeforeThePayloadArrives) {
  std::string frame = valid_frame();
  // Announce kMaxPayloadBytes + 1: detectable from the header alone, so the
  // server must not wait for (or buffer) a gigantic body.
  const std::uint32_t oversized = static_cast<std::uint32_t>(net::kMaxPayloadBytes) + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    frame[kLengthOffset + i] = static_cast<char>((oversized >> (8 * i)) & 0xff);
  }
  const std::string header_only = frame.substr(0, net::kFrameHeaderBytes);
  const net::ExtractResult result =
      expect_defect(header_only, net::FrameDefect::kBadLength);
  EXPECT_EQ(result.consume, 0u);
  EXPECT_TRUE(net::frame_defect_is_fatal(result.defect));
}

TEST(WireDefect, CorruptPayloadFailsItsCrc) {
  std::string frame = valid_frame();
  frame[net::kFrameHeaderBytes + 3] ^= 0x40;
  const net::ExtractResult result = expect_defect(frame, net::FrameDefect::kBadCrc);
  EXPECT_EQ(result.consume, frame.size());
  EXPECT_FALSE(net::frame_defect_is_fatal(result.defect));
}

TEST(WireDefect, EveryDefectHasAStableName) {
  for (const net::FrameDefect defect :
       {net::FrameDefect::kBadMagic, net::FrameDefect::kBadVersion,
        net::FrameDefect::kBadType, net::FrameDefect::kBadLength,
        net::FrameDefect::kBadCrc, net::FrameDefect::kBadPayload}) {
    EXPECT_STRNE(net::frame_defect_name(defect), "unknown");
  }
}

// ------------------------------------------------------- payload tampering

TEST(WireDefect, RequestPayloadShorterThanFixedFieldsThrows) {
  try {
    net::decode_request_payload(std::string(19, '\0'));
    FAIL() << "decode accepted a short payload";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.defect(), net::FrameDefect::kBadPayload);
  }
}

TEST(WireDefect, RequestPayloadBitCountMismatchThrows) {
  // Announce 64 response bits but carry the 13-bit body.
  const std::string frame = valid_frame();
  std::string payload(frame.substr(net::kFrameHeaderBytes));
  payload[16] = 64;
  payload[17] = payload[18] = payload[19] = 0;
  try {
    net::decode_request_payload(payload);
    FAIL() << "decode accepted an inconsistent bit count";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.defect(), net::FrameDefect::kBadPayload);
  }
}

TEST(WireDefect, NonzeroPaddingBitsThrow) {
  // Every bit count that leaves padding in the final byte (bits % 8 in
  // 1..7), and every one of those padding bits set alone.
  for (std::size_t bits = 9; bits <= 15; ++bits) {
    const std::string frame = net::encode_request_frame(sample_request(bits));
    const std::string payload(frame.substr(net::kFrameHeaderBytes));
    for (std::size_t bit = bits % 8; bit < 8; ++bit) {
      std::string tampered = payload;
      tampered.back() = static_cast<char>(static_cast<unsigned char>(tampered.back()) |
                                          (1u << bit));
      try {
        net::decode_request_payload(tampered);
        FAIL() << "decode accepted padding bit " << bit << " of a " << bits
               << "-bit request";
      } catch (const net::WireError& e) {
        EXPECT_EQ(e.defect(), net::FrameDefect::kBadPayload);
      }
    }
  }
}

TEST(WireDefect, ResponsePayloadWrongSizeOrUnknownStatusThrows) {
  EXPECT_THROW(net::decode_response_payload(std::string(12, '\0')), net::WireError);
  std::string payload(13, '\0');
  payload[0] = 9;  // one past kBudgetExhausted
  EXPECT_THROW(net::decode_response_payload(payload), net::WireError);
}

// ------------------------------------------------------------ byte goldens

/// Hex of a byte string, two lowercase digits per byte.
std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0x0f];
  }
  return out;
}

TEST(Wire, EncodedFramesArePinnedByteForByte) {
  // Every encoder's frame, pinned: a codec change that moves one byte of
  // one field (or of its CRC) breaks old peers, and fails here first.
  const net::WireResponse response{net::WireStatus::kRateLimited,
                                   0x0102030405060708ull, 0x0a0b0c0du};
  const std::uint64_t rid = 0x0123456789abcdefull;
  auth::Nonce nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<std::uint8_t>(17 * i + 1);
  }
  auth::Tag tag{};
  for (std::size_t i = 0; i < tag.size(); ++i) {
    tag[i] = static_cast<std::uint8_t>(255 - 7 * i);
  }
  const struct {
    const char* name;
    std::string frame;
    const char* want;
  } cases[] = {
      {"v1 request, 13 bits", net::encode_request_frame(sample_request(13)),
       "5250414601000100160000006461b8c388776655443322110df0fecaefbeadde0d0000004912"},
      {"v1 request, 16 bits", net::encode_request_frame(sample_request(16)),
       "52504146010001001600000001f3489188776655443322110df0fecaefbeadde100000004992"},
      {"v1 request, 64 bits", net::encode_request_frame(sample_request(64)),
       "52504146010001001c000000bd1c693588776655443322110df0fecaefbeadde40000000"
       "4992244992244992"},
      {"v1 request, 65 bits", net::encode_request_frame(sample_request(65)),
       "52504146010001001d000000259071ba88776655443322110df0fecaefbeadde41000000"
       "499224499224499200"},
      {"v1 response", net::encode_response_frame(response),
       "52504146010002000d0000001f9be2270708070605040302010d0c0b0a"},
      {"client hello", net::encode_client_hello(net::kWireVersionV2),
       "5250414601000300020000007d70ef730200"},
      {"server hello", net::encode_server_hello(net::kWireVersionV2),
       "5250414601000400020000007d70ef730200"},
      {"v2 request", net::encode_request_frame_v2(rid, 0xfedcba9876543210ull),
       "5250414602000100100000001f97f474efcdab89674523011032547698badcfe"},
      {"challenge", net::encode_challenge_frame(rid, nonce),
       "525041460200050018000000b87bed0defcdab8967452301"
       "0112233445566778899aabbccddeef00"},
      {"proof", net::encode_proof_frame(rid, tag),
       "52504146020006002800000034cd8204efcdab8967452301"
       "fff8f1eae3dcd5cec7c0b9b2aba49d968f88817a736c655e575049423b342d26"},
      {"v2 response", net::encode_response_frame_v2(rid, response),
       "52504146020002001500000019faa8dfefcdab89674523010708070605040302010d0c0b0a"},
  };
  for (const auto& c : cases) EXPECT_EQ(hex(c.frame), c.want) << c.name;

  // The appending encoders write the same bytes as the fresh-string ones.
  std::string appended;
  net::append_response_frame(appended, response);
  net::append_response_frame_v2(appended, rid, response);
  net::append_challenge_frame(appended, rid, nonce);
  EXPECT_EQ(appended, net::encode_response_frame(response) +
                          net::encode_response_frame_v2(rid, response) +
                          net::encode_challenge_frame(rid, nonce));
}

// ---------------------------------------------------------------- streams

TEST(Wire, PipelinedFramesExtractInOrder) {
  const service::AuthRequest first = sample_request(8);
  service::AuthRequest second = sample_request(16);
  second.device_id = 2;
  std::string stream =
      net::encode_request_frame(first) + net::encode_request_frame(second);

  net::ExtractResult result = net::try_extract_frame(stream);
  ASSERT_EQ(result.status, net::ExtractResult::Status::kFrame);
  EXPECT_EQ(net::decode_request_payload(result.frame.payload).device_id,
            first.device_id);
  stream.erase(0, result.frame.frame_bytes);

  result = net::try_extract_frame(stream);
  ASSERT_EQ(result.status, net::ExtractResult::Status::kFrame);
  EXPECT_EQ(net::decode_request_payload(result.frame.payload).device_id,
            second.device_id);
  stream.erase(0, result.frame.frame_bytes);
  EXPECT_TRUE(stream.empty());
}

TEST(Wire, RecoverableDefectLeavesTheNextFrameReachable) {
  std::string bad = valid_frame();
  bad[net::kFrameHeaderBytes] ^= 0x01;  // payload flip: kBadCrc
  std::string stream = bad + valid_frame();

  const net::ExtractResult defective = net::try_extract_frame(stream);
  ASSERT_EQ(defective.status, net::ExtractResult::Status::kDefect);
  EXPECT_EQ(defective.defect, net::FrameDefect::kBadCrc);
  stream.erase(0, defective.consume);

  const net::ExtractResult good = net::try_extract_frame(stream);
  EXPECT_EQ(good.status, net::ExtractResult::Status::kFrame);
}

TEST(Wire, EnumeratorNamesAreStable) {
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kAccept), "accept");
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kReject), "reject");
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kUnknownDevice), "unknown-device");
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kCorruptRecord), "corrupt-record");
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kMalformedRequest),
               "malformed-request");
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kBadFrame), "bad-frame");
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kOverloaded), "overloaded");
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kRateLimited), "rate-limited");
  EXPECT_STREQ(net::wire_status_name(net::WireStatus::kBudgetExhausted),
               "budget-exhausted");

  EXPECT_STREQ(net::frame_defect_name(net::FrameDefect::kBadMagic), "bad-magic");
  EXPECT_STREQ(net::frame_defect_name(net::FrameDefect::kBadVersion), "bad-version");
  EXPECT_STREQ(net::frame_defect_name(net::FrameDefect::kBadType), "bad-type");
  EXPECT_STREQ(net::frame_defect_name(net::FrameDefect::kBadLength), "bad-length");
  EXPECT_STREQ(net::frame_defect_name(net::FrameDefect::kBadCrc), "bad-crc");
  EXPECT_STREQ(net::frame_defect_name(net::FrameDefect::kBadPayload), "bad-payload");

  // Out-of-range values (a corrupted byte reinterpreted as an enum) must
  // still name and classify safely rather than walk off the switch.
  EXPECT_STREQ(net::wire_status_name(static_cast<net::WireStatus>(200)), "unknown");
  EXPECT_STREQ(net::frame_defect_name(static_cast<net::FrameDefect>(200)), "unknown");
  EXPECT_TRUE(net::frame_defect_is_fatal(static_cast<net::FrameDefect>(200)));
}

}  // namespace
