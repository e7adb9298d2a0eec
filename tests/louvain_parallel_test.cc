// Concurrency suite for Louvain: the pipeline mines its dimensions on
// concurrent threads, each running louvain_refined on its own graph, so
// Louvain must be reentrant — no hidden shared scratch. For every tested
// thread count, runs on concurrent threads must be byte-identical to a run
// on the calling thread, on seeded random graphs and on the classic
// edge-case graphs. Conventions (seeds, env knobs, reproduction) in
// docs/TESTING.md.
#include "graph/louvain.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "test_helpers.h"

namespace smash::graph {
namespace {

using test::fuzz_seeds;
using test::random_clustered_graph;
using test::random_weighted_graph;

constexpr unsigned kThreadCounts[] = {2u, 4u, 8u};

void expect_same_result(const LouvainResult& serial, const LouvainResult& other,
                        const std::string& context) {
  EXPECT_EQ(serial.community_of, other.community_of) << context;
  EXPECT_EQ(serial.num_communities, other.num_communities) << context;
  EXPECT_EQ(serial.levels, other.levels) << context;
  EXPECT_EQ(serial.modularity, other.modularity) << context;  // bitwise
  EXPECT_EQ(serial.stats, other.stats) << context;
}

LouvainResult run(const Graph& g, bool refined) {
  return refined ? louvain_refined(g) : louvain(g);
}

// Runs Louvain on `threads` concurrent threads over the same graph and
// compares every result against a run on the calling thread.
void expect_concurrent_runs_match_serial(const Graph& g,
                                         const std::string& context,
                                         bool refined = false) {
  const LouvainResult serial = run(g, refined);
  for (const unsigned threads : kThreadCounts) {
    std::vector<LouvainResult> results(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { results[t] = run(g, refined); });
    }
    for (auto& worker : workers) worker.join();
    for (unsigned t = 0; t < threads; ++t) {
      expect_same_result(serial, results[t],
                         context + " threads=" + std::to_string(threads) +
                             " worker=" + std::to_string(t));
    }
  }
}

TEST(LouvainParallel, EmptyGraph) {
  GraphBuilder builder(0);
  const Graph g = std::move(builder).build();
  expect_concurrent_runs_match_serial(g, "empty");
  const LouvainResult result = louvain(g);
  EXPECT_EQ(result.num_communities, 0u);
}

TEST(LouvainParallel, SingletonAndIsolatedNodes) {
  {
    GraphBuilder builder(1);
    expect_concurrent_runs_match_serial(std::move(builder).build(), "singleton");
  }
  {
    // Edgeless graph: everyone stays a singleton community.
    GraphBuilder builder(17);
    const Graph g = std::move(builder).build();
    expect_concurrent_runs_match_serial(g, "edgeless");
    EXPECT_EQ(louvain(g).num_communities, 17u);
  }
  {
    // A clique plus isolated stragglers.
    GraphBuilder builder(12);
    for (std::uint32_t i = 0; i < 6; ++i) {
      for (std::uint32_t j = i + 1; j < 6; ++j) builder.add_edge(i, j, 1.0);
    }
    expect_concurrent_runs_match_serial(std::move(builder).build(),
                                        "clique+isolated");
  }
}

TEST(LouvainParallel, StarGraph) {
  GraphBuilder builder(33);
  for (std::uint32_t leaf = 1; leaf < 33; ++leaf) {
    builder.add_edge(0, leaf, 1.0);
  }
  expect_concurrent_runs_match_serial(std::move(builder).build(), "star");
}

TEST(LouvainParallel, CliqueGraph) {
  GraphBuilder builder(24);
  for (std::uint32_t i = 0; i < 24; ++i) {
    for (std::uint32_t j = i + 1; j < 24; ++j) {
      builder.add_edge(i, j, 1.0 + 0.01 * static_cast<double>(i));
    }
  }
  const Graph g = std::move(builder).build();
  expect_concurrent_runs_match_serial(g, "clique");
  const LouvainResult result = louvain(g);
  EXPECT_EQ(result.num_communities, 1u);  // a clique never splits
}

TEST(LouvainParallel, RandomGraphsMatchSerial) {
  for (const auto seed : fuzz_seeds(8)) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Graph g = random_weighted_graph(
        /*n=*/150 + static_cast<std::uint32_t>(seed % 5) * 37,
        /*edges=*/600, seed);
    expect_concurrent_runs_match_serial(g, "random seed=" + std::to_string(seed));
  }
}

TEST(LouvainParallel, ClusteredGraphsMatchSerial) {
  for (const auto seed : fuzz_seeds(8)) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Graph g = random_clustered_graph(
        /*clusters=*/16 + static_cast<std::uint32_t>(seed % 4) * 4,
        /*cluster_size=*/8, /*intra_p=*/0.7, seed);
    expect_concurrent_runs_match_serial(
        g, "clustered seed=" + std::to_string(seed));
  }
}

TEST(LouvainParallel, RefinedMatchesSerial) {
  for (const auto seed : fuzz_seeds(4)) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Graph g = random_clustered_graph(12, 10, 0.75, seed ^ 0xbeefULL);
    expect_concurrent_runs_match_serial(
        g, "refined seed=" + std::to_string(seed), /*refined=*/true);
  }
}

TEST(LouvainParallel, StatsInvariantAcrossThreadCounts) {
  // Concurrent runs on *different* graphs — the pipeline's shape, one graph
  // per dimension — each reproduce their own serial result and counters.
  std::vector<Graph> graphs;
  for (std::uint32_t i = 0; i < 4; ++i) {
    graphs.push_back(random_clustered_graph(20, 8, 0.7, 42 + i));
  }
  std::vector<LouvainResult> serial;
  for (const auto& g : graphs) serial.push_back(louvain_refined(g));
  EXPECT_GT(serial[0].stats.sweeps, 0u);
  EXPECT_GT(serial[0].stats.evaluated_nodes, 0u);

  std::vector<LouvainResult> concurrent(graphs.size());
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    workers.emplace_back(
        [&, i] { concurrent[i] = louvain_refined(graphs[i]); });
  }
  for (auto& worker : workers) worker.join();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    expect_same_result(serial[i], concurrent[i], "graph=" + std::to_string(i));
  }
}

}  // namespace
}  // namespace smash::graph
