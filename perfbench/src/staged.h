// Stage-by-stage mining through the program's public entry points, with a
// benchmark span around each call. The batch_day and stream_week traced
// runs share it; both check its output against the program's own paths.
#pragma once

#include <array>
#include <cstdint>

#include "core/pipeline.h"
#include "util.h"

namespace perfbench {

// Work counts of the per-dimension stages, summed over mining calls.
struct DimensionCounts {
  double keys = 0, candidate_pairs = 0, pairs = 0, nodes = 0, edges = 0,
         isolated = 0, ashes = 0;
};

struct StageCounts {
  std::uint64_t mines = 0;
  std::array<DimensionCounts, smash::core::kNumDimensions> dims{};
  double correlate_groups = 0, prune_groups_removed = 0;
  std::vector<double> sum_dim_ms, max_dim_ms;  // per mining call
};

// Mining of a preprocessed window, stage by stage, in the order
// SmashPipeline::run_preprocessed uses on its serial path (config must run
// one thread): per dimension build_dimension_join_input ->
// graph::cooccurrence_join -> weight_dimension_pairs ->
// extract_canonical_ashes -> remap_ashes_to_kept, then correlate -> prune
// -> campaign assembly.
smash::core::SmashResult staged_mine(smash::core::PreprocessResult pre,
                                     const smash::whois::Registry& registry,
                                     const smash::core::SmashConfig& config,
                                     SpanTracer& tracer, StageCounts& counts);

// Per-layer metrics of the spans and counts above, each averaged per
// mining call: dim.<d>.*, mine.*, correlate.*, prune.*, campaigns.ms.
void add_mining_layers(Report& report, const SpanTracer& tracer,
                       const StageCounts& counts);

// Equality of the parts of two results a user sees: the kept set, every
// dimension's herds, the correlation survivors, the pruned groups and the
// campaigns. Returns an empty string when equal, else what differs.
std::string compare_results(const smash::core::SmashResult& a,
                            const smash::core::SmashResult& b);

}  // namespace perfbench
