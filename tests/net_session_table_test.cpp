// Model check of the per-connection v2 session table: seeded churn of
// opens, overwrites and takes against a std::unordered_map model, with
// request ids that share a home slot, so takes land inside probe runs and
// move entries back, and with the server's max_sessions cap applied, so
// the churn keeps running into it.
#include "net/session_table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace ropuf::net {
namespace {

constexpr std::size_t kMaxSessions = 64;

/// The first `count` request ids whose home slot in a 4096-slot table is
/// `home`. They share a home slot at every smaller size too.
std::vector<std::uint64_t> ids_homed_at(std::size_t home, std::size_t count) {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 0; ids.size() < count; ++id) {
    if (SessionTable::home_slot(id, 4096) == home) ids.push_back(id);
  }
  return ids;
}

/// A session whose fields all depend on the step that opened it, so a
/// stale overwrite or a swapped entry reads back wrong.
PendingChallenge session_for(std::uint64_t id, std::uint64_t step) {
  PendingChallenge session;
  session.device_id = id ^ (step << 20);
  for (std::size_t i = 0; i < session.nonce.size(); ++i) {
    session.nonce[i] = static_cast<std::uint8_t>((step >> (i % 8)) + i);
  }
  return session;
}

TEST(SessionTable, HomeSlotsAreNestedAcrossSizes) {
  for (const std::uint64_t id : ids_homed_at(101, 8)) {
    EXPECT_EQ(SessionTable::home_slot(id, 4096), 101u);
    EXPECT_EQ(SessionTable::home_slot(id, 128), 101u >> 5);
    EXPECT_EQ(SessionTable::home_slot(id, 16), 101u >> 8);
  }
}

TEST(SessionTable, ChurnMatchesAnUnorderedMapModel) {
  // Two groups of ids homed at neighbouring slots (one home slot at every
  // size this table reaches), plus ids drawn from the whole range.
  std::vector<std::uint64_t> pool = ids_homed_at(100, 24);
  for (const std::uint64_t id : ids_homed_at(101, 24)) pool.push_back(id);
  Rng rng(0x5e55);
  while (pool.size() < 128) pool.push_back(rng.next_u64());

  SessionTable table;
  std::unordered_map<std::uint64_t, PendingChallenge> model;
  std::size_t refused = 0, overwrites = 0, taken = 0, missed = 0;
  for (std::uint64_t step = 0; step < 200000; ++step) {
    const std::uint64_t id = pool[rng.uniform_below(pool.size())];
    if (rng.uniform() < 0.55) {
      // The server's rule: a connection at max_sessions is refused before
      // the table is touched, even for an id it holds.
      if (table.size() >= kMaxSessions) {
        ++refused;
        continue;
      }
      const PendingChallenge session = session_for(id, step);
      overwrites += model.count(id);
      table.put(id, session);
      model[id] = session;
    } else {
      const std::optional<PendingChallenge> got = table.take(id);
      const auto want = model.find(id);
      ASSERT_EQ(got.has_value(), want != model.end()) << "step " << step << ", id " << id;
      if (!got) {
        ++missed;
      } else {
        ASSERT_EQ(got->device_id, want->second.device_id) << "step " << step;
        ASSERT_EQ(got->nonce, want->second.nonce) << "step " << step;
        model.erase(want);
        ++taken;
      }
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    ASSERT_LE(table.slot_count(), std::bit_ceil(2 * kMaxSessions)) << "step " << step;
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(overwrites, 0u);
  EXPECT_GT(taken, 0u);
  EXPECT_GT(missed, 0u);

  // Whatever is left is still reachable, and taking it empties the table.
  for (const auto& [id, session] : model) {
    const std::optional<PendingChallenge> got = table.take(id);
    ASSERT_TRUE(got.has_value()) << "id " << id;
    EXPECT_EQ(got->nonce, session.nonce);
  }
  EXPECT_EQ(table.size(), 0u);
  for (const std::uint64_t id : pool) EXPECT_FALSE(table.take(id).has_value());
}

TEST(SessionTable, AnEmptyTableHoldsNoSlots) {
  SessionTable table;
  EXPECT_EQ(table.slot_count(), 0u);
  EXPECT_FALSE(table.take(7).has_value());
  table.put(7, session_for(7, 1));
  EXPECT_EQ(table.slot_count(), 16u);
  EXPECT_EQ(table.take(7)->device_id, session_for(7, 1).device_id);
  EXPECT_EQ(table.size(), 0u);
}

}  // namespace
}  // namespace ropuf::net
