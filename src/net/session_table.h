// The outstanding v2 challenges of one connection, keyed by request id
// (docs/protocol_v2.md): a flat open-addressing table.
//
// Linear probing over a power-of-two slot array kept at most half full,
// with backward-shift deletion, so no tombstones pile up and a connection
// that keeps opening and closing sessions reuses its slots without touching
// the allocator. The array starts empty (a v1 connection never holds one)
// and doubles when an insert would pass half full. The server refuses a
// request once max_sessions are open, so the array stops growing at the
// first power of two of at least 2 x max_sessions slots, and only a
// connection that opens that many sessions gets there.
//
// Request ids come from the peer. The home slot is the top bits of the id
// times an odd constant (Fibonacci hashing), so ids that differ only in
// high bits (a counter in the top half) still spread. A peer that searches
// for colliding ids can chain at most its own open sessions, max_sessions,
// which is the worst case of the identity-hashed std::unordered_map this
// table replaced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "auth/auth.h"

namespace ropuf::net {

/// What the server remembers between issuing a nonce and judging the proof
/// that answers it.
struct PendingChallenge {
  std::uint64_t device_id = 0;
  auth::Nonce nonce{};
};

class SessionTable {
 public:
  /// Sessions open now.
  std::size_t size() const { return size_; }
  /// Slots held now: 0 until the first put, then a power of two.
  std::size_t slot_count() const { return slots_.size(); }

  /// Opens the session of `request_id`, or replaces the one it has.
  void put(std::uint64_t request_id, const PendingChallenge& challenge);

  /// Closes the session of `request_id` and returns it; nullopt when it has
  /// none.
  std::optional<PendingChallenge> take(std::uint64_t request_id);

  /// The slot `request_id` probes first in a table of `slot_count` slots
  /// (a power of two, at least 2). Ids that share a home slot at some size
  /// share it at every smaller size too.
  static std::size_t home_slot(std::uint64_t request_id, std::size_t slot_count);

 private:
  struct Slot {
    std::uint64_t request_id = 0;
    PendingChallenge challenge;
    bool used = false;
  };

  /// The slot holding `request_id`, or the free slot that ends its probe
  /// run. The table is never full, so every run ends.
  std::size_t probe(std::uint64_t request_id) const;
  /// Doubles the slots (or makes the first ones) and reinserts every entry.
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace ropuf::net
