// In-process stage tracer: replays a workload's request stream through the
// public calls of each layer on the serving path, in the order the server
// makes them, without sockets.
//
//   servebench stages --workload W --registry F --seed S --seconds T
//                     --batch B --spans OUT.json
//
// Two passes:
//  * per-stage timing: each public call runs over the workload's own
//    stream, the stages taking turns in short chunks (StageTimer), and
//    reports the median ns per call. Stateful layers (the enrollment
//    caches, AuthService) replay the full pool in order after a warm-up
//    pass, so their hit ratio is the one the server sees.
//  * a span replay of the first kSpanRequests requests: one root span
//    per request carrying its request id, one child span per stage, kept
//    in memory and written at exit as Chrome trace_event JSON.
// Prints one JSON object: ns per call for every stage and the per-request
// call counts (misses, decodes, comparisons) measured in the replay.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "auth/auth.h"
#include "common/bitvec.h"
#include "fixture.h"
#include "net/wire.h"
#include "puf/crp.h"
#include "registry/epoch.h"
#include "service/admission.h"
#include "service/auth_service.h"
#include "service/detector.h"

namespace servebench {
namespace {

using namespace ropuf;

std::uint64_t g_sink = 0;

/// Times a set of public calls against each other. Each stage runs over its
/// own items in order (a cursor that wraps), in short chunks; the stages
/// take turns chunk by chunk for kRounds rounds, so a slow spell of the
/// host lands on every stage alike instead of on whichever ran then. A
/// stage's result is the median ns per call over its rounds, divided by the
/// number of calls one item makes.
class StageTimer {
 public:
  template <class Fn>
  void add(std::string name, std::size_t items, double calls_per_item, Fn fn) {
    auto loop = [items, fn, cursor = std::size_t{0}](std::size_t calls) mutable {
      for (std::size_t k = 0; k < calls; ++k) {
        fn(cursor);
        if (++cursor == items) cursor = 0;
      }
    };
    stages_.push_back(Stage{std::move(name), calls_per_item, std::move(loop), 1, {}});
  }

  void run(double budget_s) {
    const double chunk_ns = budget_s * 1e9 / kRounds / static_cast<double>(stages_.size());
    for (Stage& stage : stages_) {
      const std::int64_t t0 = now_ns();
      stage.loop(kProbeCalls);
      const double per_call =
          std::max(1.0, static_cast<double>(now_ns() - t0)) / kProbeCalls;
      stage.chunk = std::max<std::size_t>(1, static_cast<std::size_t>(chunk_ns / per_call));
    }
    for (int round = 0; round < kRounds; ++round) {
      for (Stage& stage : stages_) {
        const std::int64_t t0 = now_ns();
        stage.loop(stage.chunk);
        stage.samples.push_back(static_cast<double>(now_ns() - t0) /
                                static_cast<double>(stage.chunk));
      }
    }
  }

  double ns(const std::string& name) {
    for (Stage& stage : stages_) {
      if (stage.name != name) continue;
      std::vector<double>& v = stage.samples;
      std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                       v.end());
      return v[v.size() / 2] / stage.calls_per_item;
    }
    throw std::invalid_argument("no stage " + name);
  }

 private:
  static constexpr int kRounds = 9;
  static constexpr std::size_t kProbeCalls = 64;
  struct Stage {
    std::string name;
    double calls_per_item;
    std::function<void(std::size_t)> loop;
    std::size_t chunk;
    std::vector<double> samples;
  };
  std::vector<Stage> stages_;
};

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t rid;
};

/// In-memory span log; written once at exit.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

  template <class Fn>
  auto span(const char* name, std::uint64_t rid, Fn&& fn) {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back(Span{name, start, now_ns(), rid});
    } else {
      auto result = fn();
      spans_.push_back(Span{name, start, now_ns(), rid});
      return result;
    }
  }

  /// Root spans are appended after their children; Chrome nests by time.
  void root(std::uint64_t rid, std::int64_t start, std::int64_t end) {
    spans_.push_back(Span{"request", start, end, rid});
  }

  void write(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"rid\": %" PRIu64 "}}",
                    i == 0 ? "" : ",", s.name, workload.c_str(),
                    static_cast<double>(s.start_ns - epoch) / 1000.0,
                    static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.rid);
      out << line;
    }
    out << "\n], \"displayTimeUnit\": \"ns\"}\n";
    if (!out.flush()) throw std::runtime_error("cannot write span file " + path);
  }

 private:
  std::vector<Span> spans_;
};

/// The two lookup caches of AuthService, replayed with the service's
/// routing: main cache, then unknown-device cache, then insert the outcome.
class CacheReplay {
 public:
  explicit CacheReplay(const service::AuthServiceOptions& options)
      : main_(options.cache_capacity, "servebench.cache"),
        unknown_(options.unknown_cache_capacity, "servebench.unknown_cache"),
        entry_(std::make_shared<service::CachedLookup>()) {}

  /// True on a hit.
  bool lookup(std::uint64_t device_id, bool enrolled) {
    if (main_.get(device_id) != nullptr || unknown_.get(device_id) != nullptr) return true;
    (enrolled ? main_ : unknown_).put(device_id, entry_);
    return false;
  }

 private:
  service::EnrollmentCache main_;
  service::EnrollmentCache unknown_;
  service::EnrollmentCache::Entry entry_;
};

service::AdmissionOptions defended_admission() {
  // The knobs of the CI detector soak (ropuf_soak --rate-burst 16
  // --rate-interval 2 --reuse-budget 128 --detector on).
  service::AdmissionOptions options;
  options.rate_burst = 16;
  options.rate_interval = 2;
  options.reuse_budget = 128;
  return options;
}

service::DetectorOptions defended_detector() {
  service::DetectorOptions options;
  options.enabled = true;
  return options;
}

/// Per-request view of the stream both protocols share.
struct Item {
  std::uint64_t device_id = 0;
  std::uint64_t challenge = 0;  ///< v1 challenge; v2: the request id
  bool enrolled = false;
};

/// Decoded record, key, nonce, tag and reference of one enrolled request.
struct Decoded {
  std::size_t index = 0;
  puf::ConfigurableEnrollment enrollment;
  crypto::Sha256Digest key{};
  auth::Nonce nonce{};
  auth::Tag tag{};
  BitVec reference;
  BitVec response;
};

std::string_view frame_payload(const std::string& frame) {
  return std::string_view(frame).substr(net::kFrameHeaderBytes);
}

}  // namespace

int run_stages(const cli::Args& args) {
  const std::string registry_path = required(args, "registry");
  const Fixture fx = make_fixture(required(args, "workload"), registry_path,
                                  static_cast<std::uint64_t>(required_number(args, "seed")));
  const double seconds = required_number(args, "seconds");
  const auto batch = static_cast<std::size_t>(std::max(1.0, args.number("batch", 256)));
  const bool v2 = fx.config.protocol == Protocol::kV2;
  const service::AuthServiceOptions& options = fx.options;
  const std::size_t pool = kPoolRequests;
  const std::size_t bits = options.response_bits;

  std::vector<Item> items(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    items[i].device_id = v2 ? fx.intents[i].device_id : fx.requests[i].device_id;
    items[i].challenge = v2 ? i + 1 : fx.requests[i].challenge;
    items[i].enrolled = fx.registry.contains(items[i].device_id);
  }

  // The pure stages (decode, key derivation, reference, HMAC) cost the same
  // whatever the cache holds, so they run over a decoded subset.
  constexpr std::size_t kSubset = 4096;
  std::vector<Decoded> decoded;
  auth::NonceFactory nonce_source(0x520c0de5eedull);
  for (std::size_t i = 0; i < pool && decoded.size() < kSubset; ++i) {
    if (!items[i].enrolled) continue;
    Decoded d;
    d.index = i;
    d.enrollment = fx.registry.lookup(items[i].device_id);
    d.key = auth::derive_enrollment_key(d.enrollment).value_or(crypto::Sha256Digest{});
    d.nonce = nonce_source.next(items[i].device_id, i + 1);
    d.tag = auth::prove(d.key, d.nonce, i + 1, items[i].device_id);
    d.reference = puf::CrpOracle(&d.enrollment, std::min(bits, d.enrollment.layout.pair_count))
                      .reference(items[i].challenge);
    d.response = v2 ? d.reference : fx.requests[i].response;
    decoded.push_back(std::move(d));
  }

  // Wire frames of the stream, as the server reads and writes them.
  std::vector<std::string> in_frames;     // v1 request / v2 request
  std::vector<std::string> proof_frames;  // v2 only
  std::vector<service::AuthVerdict> verdicts(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    verdicts[i] = net::auth_verdict(fx.expected[i]);
    if (v2) {
      in_frames.push_back(net::encode_request_frame_v2(i + 1, items[i].device_id));
      proof_frames.push_back(net::encode_proof_frame(i + 1, auth::Tag{}));
    } else {
      in_frames.push_back(fx.request_frames[i]);
    }
  }

  const double per_item = v2 ? 2.0 : 1.0;  // a v2 item is two frames each way
  StageTimer timer;

  // ---------------------------------------------------------------- net
  timer.add("net.extract_ns", pool, per_item, [&](std::size_t i) {
    g_sink += net::try_extract_frame(in_frames[i]).frame.frame_bytes;
    if (v2) g_sink += net::try_extract_frame(proof_frames[i]).frame.frame_bytes;
  });
  timer.add("net.decode_ns", pool, per_item, [&](std::size_t i) {
    if (v2) {
      g_sink += net::decode_request_payload_v2(frame_payload(in_frames[i])).device_id;
      g_sink += net::decode_proof_payload(frame_payload(proof_frames[i])).request_id;
    } else {
      g_sink += net::decode_request_payload(frame_payload(in_frames[i])).device_id;
    }
  });
  timer.add("net.encode_ns", pool, per_item, [&](std::size_t i) {
    if (v2) {
      g_sink += net::encode_challenge_frame(i + 1, auth::Nonce{}).size();
      g_sink += net::encode_response_frame_v2(i + 1, net::wire_response(verdicts[i])).size();
    } else {
      g_sink += net::encode_response_frame(net::wire_response(verdicts[i])).size();
    }
  });

  // ----------------------------------------------------------- registry
  const registry::EpochRegistry epochs(fx.registry);
  timer.add("registry.pin_ns", pool, 1.0,
            [&](std::size_t) { g_sink += epochs.snapshot()->epoch(); });
  timer.add("registry.search_ns", decoded.size(), 1.0, [&](std::size_t k) {
    g_sink += fx.registry.contains(items[decoded[k].index].device_id) ? 1 : 0;
  });
  timer.add("registry.find_ns", decoded.size(), 1.0, [&](std::size_t k) {
    g_sink += fx.registry.find(items[decoded[k].index].device_id)->layout.pair_count;
  });

  // ------------------------------------------------------------ service
  // Stateful layers replay the whole pool in order after one warm-up pass,
  // like the server after the generator's warm-up.
  CacheReplay caches(options);
  std::size_t cache_misses = 0;
  std::size_t enrolled_misses = 0;
  for (const Item& item : items) caches.lookup(item.device_id, item.enrolled);
  for (const Item& item : items) {
    if (!caches.lookup(item.device_id, item.enrolled)) {
      ++cache_misses;
      if (item.enrolled) ++enrolled_misses;
    }
  }
  timer.add("service.cache_get_ns", pool, 1.0, [&](std::size_t i) {
    g_sink += caches.lookup(items[i].device_id, items[i].enrolled) ? 1 : 0;
  });

  // v2 proofs for the decoded subset carry the prover's real tag (zeros for
  // a keyless prover); the rest carry zeros, which costs the same HMAC.
  std::vector<service::ProofRequest> proofs(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    proofs[i].request_id = i + 1;
    proofs[i].device_id = items[i].device_id;
  }
  for (const Decoded& d : decoded) {
    proofs[d.index].nonce = d.nonce;
    if (!v2 || fx.intents[d.index].has_key) proofs[d.index].tag = d.tag;
  }
  // One service serves both loops, like the server's one service; each
  // loop walks the pool with its own cursor.
  const service::AuthService service(&fx.registry, options);
  const auto verify_one = [&](std::size_t i) {
    g_sink += static_cast<std::uint64_t>(v2 ? service.verify_proof(proofs[i]).status
                                            : service.verify(fx.requests[i]).status);
  };
  for (std::size_t i = 0; i < pool; ++i) verify_one(i);
  timer.add("service.verify_ns", pool, 1.0, verify_one);
  const std::size_t batches = pool / batch;
  std::vector<std::vector<service::AuthRequest>> v1_batches;
  std::vector<std::vector<service::ProofRequest>> v2_batches;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto first = static_cast<std::ptrdiff_t>(b * batch);
    const auto last = static_cast<std::ptrdiff_t>((b + 1) * batch);
    if (v2) {
      v2_batches.emplace_back(proofs.begin() + first, proofs.begin() + last);
    } else {
      v1_batches.emplace_back(fx.requests.begin() + first, fx.requests.begin() + last);
    }
  }
  timer.add("service.verify_batch_ns_per_req", batches, static_cast<double>(batch),
            [&](std::size_t b) {
              g_sink += v2 ? service.verify_proof_batch(v2_batches[b]).size()
                           : service.verify_batch(v1_batches[b]).size();
            });

  service::AdmissionController admission(defended_admission());
  timer.add("service.admit_ns", pool, 1.0, [&](std::size_t i) {
    g_sink += static_cast<std::uint64_t>(admission.admit(items[i].device_id, items[i].challenge));
  });
  service::StreamDetector detector(defended_detector());
  timer.add("service.detect_ns", pool, 1.0, [&](std::size_t i) {
    g_sink += detector.penalty(items[i].device_id).reuse_shift;
    service::StreamObservation observation;
    observation.challenge = items[i].challenge;
    observation.guess_weight = v2 ? 0 : fx.requests[i].response.popcount();
    observation.answered = verdicts[i].status == service::AuthStatus::kAccept ||
                           verdicts[i].status == service::AuthStatus::kReject;
    observation.accepted = verdicts[i].status == service::AuthStatus::kAccept;
    observation.distance = verdicts[i].distance;
    detector.observe(items[i].device_id, observation);
  });

  // -------------------------------------------------- puf / common / auth
  timer.add("puf.reference_ns", decoded.size(), 1.0, [&](std::size_t k) {
    const Decoded& d = decoded[k];
    g_sink += puf::CrpOracle(&d.enrollment, std::min(bits, d.enrollment.layout.pair_count))
                  .reference(items[d.index].challenge)
                  .popcount();
  });
  timer.add("common.hamming_ns", decoded.size(), 1.0, [&](std::size_t k) {
    g_sink += decoded[k].reference.hamming_distance(decoded[k].response);
  });
  timer.add("auth.derive_key_ns", decoded.size(), 1.0, [&](std::size_t k) {
    g_sink += auth::derive_enrollment_key(decoded[k].enrollment).has_value() ? 1 : 0;
  });
  auth::NonceFactory nonces(0x520c0de5eedull);
  timer.add("auth.nonce_ns", pool, 1.0, [&](std::size_t i) {
    g_sink += nonces.next(items[i].device_id, i + 1)[0];
  });
  timer.add("auth.verify_tag_ns", decoded.size(), 1.0, [&](std::size_t k) {
    const Decoded& d = decoded[k];
    g_sink += auth::verify_tag(d.key, d.nonce, d.index + 1, items[d.index].device_id, d.tag)
                  ? 1
                  : 0;
  });
  timer.add("auth.prove_ns", decoded.size(), 1.0, [&](std::size_t k) {
    const Decoded& d = decoded[k];
    g_sink += auth::prove(d.key, d.nonce, d.index + 1, items[d.index].device_id)[0];
  });

  timer.run(seconds);
  const std::int64_t load0 = now_ns();
  for (int r = 0; r < 3; ++r) {
    g_sink += registry::Registry::load_file(registry_path).device_count();
  }
  const double load_ms = static_cast<double>(now_ns() - load0) / 3e6;

  // Requests that reach the verdict comparison: Hamming distance (v1) or
  // tag check (v2).
  std::size_t compared = 0;
  for (std::size_t i = 0; i < pool; ++i) {
    if (fx.expected[i].status == net::WireStatus::kAccept ||
        fx.expected[i].status == net::WireStatus::kReject) {
      ++compared;
    }
  }
  const double n = static_cast<double>(pool);

  // ------------------------------------------------------------- spans
  constexpr std::size_t kSpanRequests = 2048;
  SpanLog log(kSpanRequests * 16);
  CacheReplay replay_caches(options);
  for (const Item& item : items) replay_caches.lookup(item.device_id, item.enrolled);
  std::vector<const Decoded*> by_index(pool, nullptr);
  for (const Decoded& d : decoded) by_index[d.index] = &d;
  for (std::size_t i = 0; i < kSpanRequests; ++i) {
    const std::uint64_t rid = i + 1;
    const std::int64_t start = now_ns();
    const Item& item = items[i];
    log.span("net.extract", rid, [&] { return net::try_extract_frame(in_frames[i]).status; });
    log.span("net.decode", rid, [&] {
      return v2 ? net::decode_request_payload_v2(frame_payload(in_frames[i])).device_id
                : net::decode_request_payload(frame_payload(in_frames[i])).device_id;
    });
    if (v2) {
      const auth::Nonce nonce =
          log.span("auth.nonce", rid, [&] { return nonces.next(item.device_id, rid); });
      log.span("net.encode", rid, [&] { return net::encode_challenge_frame(rid, nonce).size(); });
      if (by_index[i] != nullptr) {
        log.span("auth.prove", rid,
                 [&] { return auth::prove(by_index[i]->key, nonce, rid, item.device_id)[0]; });
      }
      log.span("net.extract", rid,
               [&] { return net::try_extract_frame(proof_frames[i]).status; });
      log.span("net.decode", rid, [&] {
        return net::decode_proof_payload(frame_payload(proof_frames[i])).request_id;
      });
    }
    log.span("registry.pin", rid, [&] { return epochs.snapshot()->epoch(); });
    const bool hit = log.span("service.cache_get", rid, [&] {
      return replay_caches.lookup(item.device_id, item.enrolled);
    });
    if (!hit) {
      log.span("registry.search", rid, [&] { return fx.registry.contains(item.device_id); });
      if (item.enrolled) {
        const std::optional<puf::ConfigurableEnrollment> record =
            log.span("registry.decode", rid, [&] { return fx.registry.find(item.device_id); });
        log.span("auth.derive_key", rid,
                 [&] { return auth::derive_enrollment_key(*record).has_value(); });
      }
    }
    if (by_index[i] != nullptr) {
      const Decoded& d = *by_index[i];
      if (v2) {
        log.span("auth.verify_tag", rid,
                 [&] { return auth::verify_tag(d.key, d.nonce, rid, item.device_id, d.tag); });
      } else {
        const BitVec reference = log.span("puf.reference", rid, [&] {
          return puf::CrpOracle(&d.enrollment, std::min(bits, d.enrollment.layout.pair_count))
              .reference(item.challenge);
        });
        log.span("common.hamming", rid,
                 [&] { return reference.hamming_distance(fx.requests[i].response); });
      }
    }
    log.span("net.encode", rid, [&] {
      return v2 ? net::encode_response_frame_v2(rid, net::wire_response(verdicts[i])).size()
                : net::encode_response_frame(net::wire_response(verdicts[i])).size();
    });
    log.root(rid, start, now_ns());
  }
  log.write(required(args, "spans"), fx.config.name);

  std::printf("{");
  for (const char* name :
       {"net.extract_ns", "net.decode_ns", "net.encode_ns", "registry.pin_ns",
        "registry.search_ns", "service.cache_get_ns", "service.verify_ns",
        "service.verify_batch_ns_per_req", "service.admit_ns", "service.detect_ns",
        "puf.reference_ns", "common.hamming_ns", "auth.derive_key_ns", "auth.nonce_ns",
        "auth.verify_tag_ns", "auth.prove_ns"}) {
    std::printf("\"%s\": %.4f, ", name, timer.ns(name));
  }
  // A record decode is what find() adds to the index search.
  std::printf(
      "\"registry.decode_ns\": %.4f, \"registry.load_ms\": %.4f, "
      "\"cache_misses_per_req\": %.6f, \"decodes_per_req\": %.6f, "
      "\"compares_per_req\": %.6f, \"batch\": %zu, \"devices\": %zu, \"sink\": %" PRIu64 "}\n",
      std::max(0.0, timer.ns("registry.find_ns") - timer.ns("registry.search_ns")), load_ms,
      static_cast<double>(cache_misses) / n, static_cast<double>(enrolled_misses) / n,
      static_cast<double>(compared) / n, batch, fx.config.devices, g_sink & 1);
  return 0;
}

}  // namespace servebench
