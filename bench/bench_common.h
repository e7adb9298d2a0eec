// Shared plumbing for the table/figure benches: dataset presets, pipeline
// sweeps, the Table II/III row layout used by four different tables, and a
// JSON reporter for the quality matrix and the serving gates
// (BENCH_quality.json, loadgen's report).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "graph/graph.h"
#include "synth/world.h"
#include "util/id_set.h"
#include "util/strings.h"
#include "util/table.h"

namespace smash::bench {

// --- shared synthetic kernels workloads -------------------------------------
// One definition for every bench binary: the google-benchmark micros are
// only comparable across binaries and PRs if all of them generate
// byte-identical inputs from the same seeds.

// Random key sets with ISP-like sparse overlap (key space = 2x items unless
// overridden). Used by the join micros.
std::vector<util::IdSet> random_key_sets(std::uint32_t items,
                                         std::uint32_t keys_per_item,
                                         std::uint32_t key_space,
                                         std::uint64_t seed);

// Planted cliques with sparse weak bridges — the shape SMASH's dimension
// graphs take (campaign cliques, occasional shared-server bridges). Used by
// the Louvain micros.
graph::Graph planted_clique_graph(std::uint32_t cliques, std::uint32_t size,
                                  double bridge_probability,
                                  std::uint64_t seed);

// The paper's threshold sweep.
inline const std::vector<double> kThresholds{0.5, 0.8, 1.0, 1.5};

// Builds (and caches within the process) a dataset preset by name:
// "2011day", "2012day", "2012week".
const synth::Dataset& dataset(const std::string& preset);

// Runs the pipeline on `ds` with both campaign-class thresholds set to
// `thresh` (the sweep convention of Tables II/III/XI/XII).
core::SmashResult run_at_threshold(const synth::Dataset& ds, double thresh);

// Renders the Table II-style campaign-count sweep for one dataset pair.
// `single_client` selects the Appendix C population (Tables XI).
util::Table campaign_sweep_table(const std::string& title,
                                 const std::vector<std::string>& presets,
                                 bool single_client);

// Renders the Table III-style server-count sweep (Tables III / XII).
util::Table server_sweep_table(const std::string& title,
                               const std::vector<std::string>& presets,
                               bool single_client);

// Evaluation at the paper's operating point (multi 0.8 / single 1.0).
struct OperatingPoint {
  core::SmashResult result;
  core::EvaluationResult multi;
  core::EvaluationResult single;
};
OperatingPoint run_operating_point(const synth::Dataset& ds);

// --- perf reporting ---------------------------------------------------------

// Collects named timing entries (plus free-form numeric counters) and writes
// them as a small self-describing JSON file, e.g. BENCH_quality.json. No
// external JSON dependency.
class JsonReporter {
 public:
  explicit JsonReporter(std::string benchmark_set)
      : benchmark_set_(std::move(benchmark_set)) {}

  void add(const std::string& name, double ms,
           std::map<std::string, double> counters = {});

  // Renders {"benchmark": ..., "entries": [...]} and writes it to `path`.
  // Returns false (after printing to stderr) if the file cannot be written.
  bool write(const std::string& path) const;

  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double ms = 0.0;
    std::map<std::string, double> counters;
  };
  std::string benchmark_set_;
  std::vector<Entry> entries_;
};

// Wall-clock time of one fn() call, in milliseconds.
template <typename Fn>
double time_once_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace smash::bench
