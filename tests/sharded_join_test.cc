// cooccurrence_join under JoinOptions::memory_budget_bytes: the key-range
// plan must respect the byte budget (except the reported degenerate
// one-key case), and the output must be BYTE-IDENTICAL to the unbounded
// serial join for every shard count, budget, and thread count — min_shared
// applied after the cross-pass merge, postings-cap semantics on full key
// lengths.
#include "graph/similarity_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace smash::graph {
namespace {

using util::IdSet;

// 14 keys, each held by exactly 4 of the 14 items (a circulant layout), so
// every key costs the same 2 * sizeof(size_t) + 4 * sizeof(uint32_t) = 32
// bytes and shard counts are exactly predictable from the budget.
std::vector<IdSet> circulant_sets(std::uint32_t num_items = 14,
                                  std::uint32_t num_keys = 14,
                                  std::uint32_t key_span = 4) {
  std::vector<IdSet> items(num_items);
  for (std::uint32_t key = 0; key < num_keys; ++key) {
    for (std::uint32_t j = 0; j < key_span; ++j) {
      items[(key + j) % num_items].insert(key);
    }
  }
  for (auto& item : items) item.normalize();
  return items;
}

std::vector<IdSet> random_sets(std::uint32_t num_items, std::uint32_t max_keys,
                               std::uint32_t key_space, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<IdSet> items(num_items);
  for (auto& item : items) {
    const auto count = rng.uniform(max_keys);
    for (std::uint64_t i = 0; i < count; ++i) {
      item.insert(static_cast<std::uint32_t>(rng.uniform(key_space)));
    }
    item.normalize();
  }
  return items;
}

// The budget that makes the greedy planner put exactly `keys_per_range`
// circulant keys in each range.
constexpr std::size_t budget_for_keys(std::uint32_t keys_per_range,
                                      std::uint32_t key_span = 4) {
  return postings_bytes(0, 0) +
         keys_per_range * (2 * sizeof(std::size_t) +
                           key_span * sizeof(std::uint32_t));
}

JoinOptions budgeted(std::size_t budget, unsigned num_threads,
                     JoinOptions options = {}) {
  options.memory_budget_bytes = budget;
  options.num_threads = num_threads;
  return options;
}

void expect_same_join(std::span<const IdSet> items, std::uint32_t min_shared,
                      const JoinOptions& options, std::size_t budget,
                      unsigned num_threads, std::size_t expected_passes = 0) {
  JoinStats in_ram_stats;
  const auto in_ram = cooccurrence_join(items, min_shared, options, &in_ram_stats);

  JoinStats sharded_stats;
  const auto sharded =
      cooccurrence_join(items, min_shared,
                        budgeted(budget, num_threads, options), &sharded_stats);

  ASSERT_EQ(sharded, in_ram) << "budget=" << budget
                             << " threads=" << num_threads;

  // Every counter except the pass/residency pair is strategy-invariant.
  EXPECT_EQ(sharded_stats.num_keys, in_ram_stats.num_keys);
  EXPECT_EQ(sharded_stats.postings_entries, in_ram_stats.postings_entries);
  EXPECT_EQ(sharded_stats.peak_postings_length,
            in_ram_stats.peak_postings_length);
  EXPECT_EQ(sharded_stats.skipped_keys, in_ram_stats.skipped_keys);
  EXPECT_EQ(sharded_stats.skipped_entries, in_ram_stats.skipped_entries);
  EXPECT_EQ(sharded_stats.candidate_pairs, in_ram_stats.candidate_pairs);
  EXPECT_EQ(sharded_stats.emitted_pairs, in_ram_stats.emitted_pairs);
  EXPECT_EQ(sharded_stats.emitted_pairs, sharded.size());

  const auto plan = plan_key_shards(items, budget);
  EXPECT_EQ(sharded_stats.shard_passes, plan.ranges.size());
  // One pass is the unbounded join itself, residency included.
  if (plan.ranges.size() == 1) {
    EXPECT_EQ(sharded_stats, in_ram_stats);
  }
  if (expected_passes > 0) {
    EXPECT_EQ(sharded_stats.shard_passes, expected_passes);
  }
}

TEST(KeyShardPlan, UnboundedAndExactFitAreOnePass) {
  const auto items = circulant_sets();
  const auto unbounded = plan_key_shards(items, 0);
  ASSERT_EQ(unbounded.ranges.size(), 1u);
  EXPECT_EQ(unbounded.ranges[0].begin, 0u);
  EXPECT_EQ(unbounded.ranges[0].end, 14u);
  EXPECT_EQ(unbounded.peak_bytes, unbounded.total_bytes);
  EXPECT_EQ(unbounded.total_bytes, postings_bytes(14, 14 * 4));

  // A budget of exactly the whole index is still one pass.
  const auto exact = plan_key_shards(items, unbounded.total_bytes);
  EXPECT_EQ(exact.ranges.size(), 1u);
  EXPECT_EQ(exact.peak_bytes, exact.total_bytes);
}

TEST(KeyShardPlan, BudgetsProduceExpectedShardCounts) {
  const auto items = circulant_sets();
  // 7 keys per range -> 2 shards; 2 keys per range -> 7 shards.
  const auto two = plan_key_shards(items, budget_for_keys(7));
  ASSERT_EQ(two.ranges.size(), 2u);
  const auto seven = plan_key_shards(items, budget_for_keys(2));
  ASSERT_EQ(seven.ranges.size(), 7u);

  // Ranges are ascending, disjoint, covering, and within budget.
  for (const auto& plan : {two, seven}) {
    std::uint32_t expect_begin = 0;
    for (const auto& range : plan.ranges) {
      EXPECT_EQ(range.begin, expect_begin);
      EXPECT_GT(range.end, range.begin);
      EXPECT_LE(range.bytes, plan.peak_bytes);
      expect_begin = range.end;
    }
    EXPECT_EQ(expect_begin, 14u);
  }
  EXPECT_LE(two.peak_bytes, budget_for_keys(7));
  EXPECT_LE(seven.peak_bytes, budget_for_keys(2));
}

TEST(KeyShardPlan, EmptyInputHasNoRanges) {
  const std::vector<IdSet> empty;
  const auto plan = plan_key_shards(empty, 128);
  EXPECT_TRUE(plan.ranges.empty());
  EXPECT_EQ(plan.peak_bytes, 0u);
}

// The acceptance matrix: shard counts {1, 2, 7} x budgets {tiny,
// exact-fit, unbounded} x thread counts {1, 4}, byte-identical output.
TEST(ShardedJoin, MatchesInRamAcrossShardBudgetThreadMatrix) {
  const auto items = circulant_sets();
  const std::size_t exact_fit = plan_key_shards(items, 0).total_bytes;

  struct Case {
    std::size_t budget;
    std::size_t expected_passes;
  };
  const Case cases[] = {
      {0, 1},                     // unbounded
      {exact_fit, 1},             // exact fit
      {budget_for_keys(7), 2},    // two passes
      {budget_for_keys(2), 7},    // tiny: seven passes
  };
  for (const auto& c : cases) {
    for (const unsigned threads : {1u, 4u}) {
      for (const std::uint32_t min_shared : {1u, 2u}) {
        expect_same_join(items, min_shared, {}, c.budget, threads,
                         c.expected_passes);
      }
    }
  }
}

TEST(ShardedJoin, MatchesInRamOnRandomSets) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const auto items = random_sets(/*num_items=*/120, /*max_keys=*/10,
                                   /*key_space=*/80, seed);
    const std::size_t full = plan_key_shards(items, 0).total_bytes;
    for (const std::size_t budget : {std::size_t{0}, full, full / 2, full / 5,
                                     std::size_t{100}}) {
      for (const unsigned threads : {1u, 4u}) {
        for (const std::uint32_t min_shared : {1u, 2u}) {
          expect_same_join(items, min_shared, {}, budget, threads);
        }
      }
    }
  }
}

TEST(ShardedJoin, ProbeParallelismEngagesOnLargeInputs) {
  // > 4 * 256 items, so the within-pass probe really fans out to 4 workers
  // (smaller inputs collapse to a serial probe).
  const auto items = random_sets(/*num_items=*/1200, /*max_keys=*/12,
                                 /*key_space=*/600, /*seed=*/42);
  const std::size_t full = plan_key_shards(items, 0).total_bytes;
  ASSERT_GT(plan_key_shards(items, full / 3).ranges.size(), 1u);
  expect_same_join(items, 1, {}, full / 3, 4);
}

TEST(ShardedJoin, OneKeyExceedingBudgetGetsReportedOversizedPass) {
  // Key 0 is held by 50 items: its postings alone cost 8 + 16 + 200 bytes,
  // far over a 64-byte budget. The join must still complete exactly, with
  // the overshoot visible in peak_resident_postings_bytes.
  std::vector<IdSet> items(50);
  for (std::uint32_t i = 0; i < items.size(); ++i) {
    items[i].insert(0);
    items[i].insert(1 + (i % 7));
    items[i].normalize();
  }
  constexpr std::size_t budget = 64;
  const auto plan = plan_key_shards(items, budget);
  ASSERT_GT(plan.ranges.size(), 1u);
  EXPECT_EQ(plan.ranges[0].begin, 0u);
  EXPECT_EQ(plan.ranges[0].end, 1u);  // the hub key rides alone
  EXPECT_GT(plan.ranges[0].bytes, budget);
  EXPECT_GT(plan.peak_bytes, budget);

  expect_same_join(items, 1, {}, budget, 1);
  expect_same_join(items, 2, {}, budget, 4);

  JoinStats stats;
  cooccurrence_join(items, 1, budgeted(budget, 1), &stats);
  EXPECT_EQ(stats.peak_resident_postings_bytes, plan.peak_bytes);
  EXPECT_GT(stats.peak_resident_postings_bytes, budget);
}

TEST(ShardedJoin, PeakResidencyStaysWithinBudgetOtherwise) {
  const auto items = random_sets(200, 8, 100, 7);
  const std::size_t full = plan_key_shards(items, 0).total_bytes;
  const std::size_t budget = full / 4;
  JoinStats stats;
  cooccurrence_join(items, 1, budgeted(budget, 1), &stats);
  EXPECT_GT(stats.shard_passes, 1u);
  EXPECT_LE(stats.peak_resident_postings_bytes, budget);
}

TEST(ShardedJoin, PostingsCapFiresOnFullKeyLength) {
  // A hub key over max_postings_length must be skipped identically in the
  // sharded join — its length is its FULL postings length even when the
  // budget isolates it into its own pass.
  std::vector<IdSet> items(30);
  for (std::uint32_t i = 0; i < items.size(); ++i) {
    items[i].insert(5);              // hub key: length 30
    items[i].insert(10 + (i % 4));   // informative keys
    items[i].normalize();
  }
  JoinOptions options;
  options.max_postings_length = 10;
  for (const std::size_t budget : {std::size_t{0}, std::size_t{80}}) {
    expect_same_join(items, 1, options, budget, 1);
  }
  JoinStats stats;
  cooccurrence_join(items, 1, budgeted(80, 1, options), &stats);
  EXPECT_EQ(stats.skipped_keys, 1u);
  EXPECT_EQ(stats.skipped_entries, 30u);
}

TEST(ShardedJoin, MinSharedCountsKeysAcrossPassBoundaries) {
  // Items 0 and 1 share keys 0 and 13, which a 2-keys-per-range plan puts
  // in the first and last pass; min_shared=2 must still see both.
  auto items = circulant_sets();
  items.emplace_back(std::vector<std::uint32_t>{0, 13});
  items.emplace_back(std::vector<std::uint32_t>{0, 13});
  const std::size_t budget = budget_for_keys(2, /*key_span=*/5);
  ASSERT_GT(plan_key_shards(items, budget).ranges.size(), 2u);

  JoinStats stats;
  const auto pairs = cooccurrence_join(items, 2, budgeted(budget, 1), &stats);
  const auto in_ram = cooccurrence_join(items, 2);
  EXPECT_EQ(pairs, in_ram);
  const CooccurrencePair tail_pair{14, 15, 2};
  EXPECT_NE(std::find(pairs.begin(), pairs.end(), tail_pair), pairs.end());
}

TEST(ShardedJoin, RejectsBadArguments) {
  const auto items = circulant_sets();
  EXPECT_THROW(cooccurrence_join(items, 0, budgeted(64, 1)),
               std::invalid_argument);
  std::vector<IdSet> unnormalized(1);
  unnormalized[0].insert(3);
  EXPECT_THROW(cooccurrence_join(unnormalized, 1, budgeted(64, 1)),
               std::invalid_argument);
}

TEST(ShardedJoin, NoKeysIsOneEmptyInRamPass) {
  // No keys plans zero ranges, yet the join still reports the one empty
  // in-RAM pass of an unbounded join, for every budget and thread count.
  // 600 empty sets let 4 threads fan the (empty) probe out to 2 shards.
  JoinStats expected;
  expected.shard_passes = 1;
  expected.peak_resident_postings_bytes = postings_bytes(0, 0);
  for (const std::size_t num_items : {std::size_t{0}, std::size_t{600}}) {
    const std::vector<IdSet> items(num_items);
    for (const std::size_t budget : {std::size_t{0}, std::size_t{64}}) {
      for (const unsigned threads : {1u, 4u}) {
        JoinStats stats;
        EXPECT_TRUE(
            cooccurrence_join(items, 1, budgeted(budget, threads), &stats)
                .empty());
        EXPECT_EQ(stats, expected) << "items=" << num_items
                                   << " budget=" << budget
                                   << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace smash::graph
