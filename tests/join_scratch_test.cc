// Regression tests for the dense-counter join rewrite: determinism across
// runs, equivalence with the retained hash-map reference and with a
// brute-force O(N^2) intersection_size oracle, byte-identical output and
// counters across the memory budget x thread count x min_shared matrix,
// and JoinStats observability of the postings cap.
#include "graph/similarity_join.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace smash::graph {
namespace {

using util::IdSet;

std::vector<IdSet> random_items(std::uint32_t num_items,
                                std::uint32_t max_keys,
                                std::uint32_t key_space, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<IdSet> items(num_items);
  for (auto& item : items) {
    const auto count = rng.uniform(max_keys + 1);
    for (std::uint64_t i = 0; i < count; ++i) {
      item.insert(static_cast<std::uint32_t>(rng.uniform(key_space)));
    }
    item.normalize();
  }
  return items;
}

TEST(JoinDeterminism, RepeatedRunsAreIdentical) {
  const auto items = random_items(400, 12, 300, 0xfeedULL);
  const auto first = cooccurrence_join(items);
  const auto second = cooccurrence_join(items);
  EXPECT_EQ(first, second);  // element-wise, i.e. byte-identical content

  // And through the probe-parallel path.
  JoinOptions four_threads;
  four_threads.num_threads = 4;
  const auto parallel_a = cooccurrence_join(items, 1, four_threads);
  const auto parallel_b = cooccurrence_join(items, 1, four_threads);
  EXPECT_EQ(parallel_a, parallel_b);
}

TEST(JoinDeterminism, GroupedByProbeAscending) {
  const auto items = random_items(300, 10, 200, 77);
  const auto pairs = cooccurrence_join(items);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_LT(pairs[i].a, pairs[i].b);
    if (i > 0) {
      EXPECT_TRUE(pairs[i - 1].a < pairs[i].a ||
                  (pairs[i - 1].a == pairs[i].a && pairs[i - 1].b < pairs[i].b));
    }
  }
}

class JoinEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JoinEquivalenceTest, DenseMatchesHashMapReference) {
  const auto items = random_items(250, 10, 180, GetParam());
  for (const std::uint32_t min_shared : {1u, 2u, 3u}) {
    EXPECT_EQ(cooccurrence_join(items, min_shared),
              cooccurrence_join_reference(items, min_shared));
  }
  // With a postings cap that actually fires.
  JoinOptions capped;
  capped.max_postings_length = 6;
  EXPECT_EQ(cooccurrence_join(items, 1, capped),
            cooccurrence_join_reference(items, 1, capped));
}

TEST_P(JoinEquivalenceTest, ParallelMatchesSerialExactly) {
  // 1500 items, so 2..5 probe shards really fan out (256 items each).
  const auto items = random_items(1500, 8, 900, GetParam() ^ 0xabcdULL);
  const std::size_t full = plan_key_shards(items, 0).total_bytes;
  for (const std::uint32_t min_shared : {1u, 2u}) {
    JoinStats serial_stats;
    const auto serial = cooccurrence_join(items, min_shared, {}, &serial_stats);
    for (const std::size_t budget : {std::size_t{0}, full, full / 3}) {
      for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
        JoinOptions options;
        options.memory_budget_bytes = budget;
        options.num_threads = threads;
        JoinStats stats;
        EXPECT_EQ(cooccurrence_join(items, min_shared, options, &stats), serial)
            << "budget=" << budget << " threads=" << threads;
        // Counters too: shard candidate counts sum to the serial probe
        // count, and only the pass layout differs under a tight budget.
        JoinStats expected = serial_stats;
        if (budget == full / 3) {
          const auto plan = plan_key_shards(items, budget);
          ASSERT_GT(plan.ranges.size(), 1u);
          expected.shard_passes = plan.ranges.size();
          expected.peak_resident_postings_bytes = plan.peak_bytes;
        }
        EXPECT_EQ(stats, expected) << "budget=" << budget
                                   << " threads=" << threads
                                   << " min_shared=" << min_shared;
      }
    }
  }
}

TEST_P(JoinEquivalenceTest, MatchesBruteForceIntersection) {
  const auto items = random_items(120, 9, 100, GetParam() + 31);
  const auto pairs = cooccurrence_join(items);
  std::size_t expected_count = 0;
  auto it = pairs.begin();
  for (std::uint32_t a = 0; a < items.size(); ++a) {
    for (std::uint32_t b = a + 1; b < items.size(); ++b) {
      const auto shared =
          static_cast<std::uint32_t>(intersection_size(items[a], items[b]));
      if (shared == 0) continue;
      ++expected_count;
      ASSERT_NE(it, pairs.end());
      EXPECT_EQ(it->a, a);
      EXPECT_EQ(it->b, b);
      EXPECT_EQ(it->shared_keys, shared);
      ++it;
    }
  }
  EXPECT_EQ(pairs.size(), expected_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(JoinStatsTest, ReportsSkippedKeysAndPeakPostings) {
  // Key 7 is in all 6 items (hub); keys 100+i are singletons.
  std::vector<IdSet> items;
  for (std::uint32_t i = 0; i < 6; ++i) {
    items.emplace_back(std::vector<std::uint32_t>{7, 100 + i, 200});
  }
  JoinOptions options;
  options.max_postings_length = 4;
  JoinStats stats;
  const auto pairs = cooccurrence_join(items, 1, options, &stats);

  EXPECT_EQ(stats.num_keys, 8u);  // 7, 200, 100..105
  EXPECT_EQ(stats.peak_postings_length, 6u);  // both hubs have 6 entries
  EXPECT_EQ(stats.skipped_keys, 2u);          // keys 7 and 200 exceed the cap
  EXPECT_EQ(stats.skipped_entries, 12u);
  EXPECT_EQ(stats.postings_entries, 18u);
  EXPECT_EQ(stats.candidate_pairs, 0u);  // nothing under the cap co-occurs
  EXPECT_EQ(stats.emitted_pairs, 0u);
  EXPECT_TRUE(pairs.empty());

  // Without the cap every pair shares both hub keys.
  options.max_postings_length = 20000;
  const auto full = cooccurrence_join(items, 1, options, &stats);
  EXPECT_EQ(full.size(), 15u);  // C(6,2)
  EXPECT_EQ(stats.skipped_keys, 0u);
  EXPECT_EQ(stats.emitted_pairs, 15u);
  EXPECT_EQ(stats.candidate_pairs, 30u);  // 15 pairs x 2 shared hub keys
  for (const auto& pair : full) EXPECT_EQ(pair.shared_keys, 2u);
}

TEST(JoinEdgeCases, EmptyAndSingletonInputs) {
  EXPECT_TRUE(cooccurrence_join({}).empty());
  std::vector<IdSet> one;
  one.emplace_back(std::vector<std::uint32_t>{1, 2, 3});
  EXPECT_TRUE(cooccurrence_join(one).empty());
  std::vector<IdSet> empties(4);
  JoinStats stats;
  EXPECT_TRUE(cooccurrence_join(empties, 1, {}, &stats).empty());
  EXPECT_EQ(stats.num_keys, 0u);
  EXPECT_EQ(stats.postings_entries, 0u);
}

}  // namespace
}  // namespace smash::graph
