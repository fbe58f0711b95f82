#include "net/session_table.h"

#include <bit>
#include <utility>

namespace ropuf::net {
namespace {

/// Slots a table makes on its first put.
constexpr std::size_t kFirstSlots = 16;
/// 2^64 over the golden ratio, odd: the Fibonacci hashing multiplier.
constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ull;

}  // namespace

std::size_t SessionTable::home_slot(std::uint64_t request_id, std::size_t slot_count) {
  const int shift = 64 - std::countr_zero(slot_count);
  return static_cast<std::size_t>((request_id * kMix) >> shift);
}

std::size_t SessionTable::probe(std::uint64_t request_id) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t at = home_slot(request_id, slots_.size());
  while (slots_[at].used && slots_[at].request_id != request_id) at = (at + 1) & mask;
  return at;
}

void SessionTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kFirstSlots : 2 * old.size(), Slot{});
  for (const Slot& slot : old) {
    if (slot.used) slots_[probe(slot.request_id)] = slot;
  }
}

void SessionTable::put(std::uint64_t request_id, const PendingChallenge& challenge) {
  if (slots_.empty()) grow();
  std::size_t at = probe(request_id);
  if (!slots_[at].used) {
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      at = probe(request_id);
    }
    slots_[at].used = true;
    slots_[at].request_id = request_id;
    ++size_;
  }
  slots_[at].challenge = challenge;
}

std::optional<PendingChallenge> SessionTable::take(std::uint64_t request_id) {
  if (size_ == 0) return std::nullopt;
  std::size_t hole = probe(request_id);
  if (!slots_[hole].used) return std::nullopt;
  const PendingChallenge challenge = slots_[hole].challenge;
  // Backward-shift deletion: walk the rest of the probe run and move back
  // into the hole every entry whose home slot does not lie cyclically in
  // (hole, at], so each entry stays reachable from its home without a
  // tombstone.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = (hole + 1) & mask; slots_[at].used; at = (at + 1) & mask) {
    const std::size_t home = home_slot(slots_[at].request_id, slots_.size());
    if (((at - home) & mask) >= ((at - hole) & mask)) {
      slots_[hole] = slots_[at];
      hole = at;
    }
  }
  slots_[hole].used = false;
  --size_;
  return challenge;
}

}  // namespace ropuf::net
