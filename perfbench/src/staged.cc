#include "staged.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>

#include "core/correlation.h"
#include "core/pruning.h"
#include "graph/similarity_join.h"

namespace perfbench {

namespace core = smash::core;

namespace {

// Metric-name form of a dimension: client, uri_file, ip_set, whois.
std::string dim_name(int d) {
  std::string name(core::dimension_name(static_cast<core::Dimension>(d)));
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// Campaign assembly: pruned groups sharing a main-dimension herd merge
// into one campaign; a campaign's involved clients are those on more than
// half of its servers. Mirrors the private tail of SmashPipeline, which the
// callers' equality checks (against SmashPipeline::run and the engine's
// snapshot digests) hold it to.
std::vector<core::Campaign> assemble_campaigns(const core::SmashResult& result) {
  const auto& groups = result.pruned.groups;
  const auto& main = result.dims[static_cast<int>(core::Dimension::kClient)];
  std::vector<std::uint32_t> parent(groups.size());
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::unordered_map<std::int32_t, std::uint32_t> first_group_of_herd;
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (auto member : groups[g]) {
      const auto herd = main.ash_of[member];
      if (herd < 0) continue;
      auto [it, inserted] = first_group_of_herd.emplace(herd, g);
      if (!inserted) parent[find(g)] = find(it->second);
    }
  }
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> merged;
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    auto& target = merged[find(g)];
    target.insert(target.end(), groups[g].begin(), groups[g].end());
  }
  std::vector<std::vector<std::uint32_t>> members;
  for (auto& [root, m] : merged) {
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
    members.push_back(std::move(m));
  }
  std::sort(members.begin(), members.end());

  std::vector<core::Campaign> out;
  for (auto& m : members) {
    std::unordered_map<std::uint32_t, std::uint32_t> appearances;
    for (auto server : m) {
      for (auto client : result.pre.agg.profile(result.pre.kept[server]).clients) {
        ++appearances[client];
      }
    }
    core::Campaign campaign;
    for (const auto& [client, count] : appearances) {
      if (count > m.size() / 2) campaign.involved_clients.push_back(client);
    }
    std::sort(campaign.involved_clients.begin(), campaign.involved_clients.end());
    campaign.servers = std::move(m);
    out.push_back(std::move(campaign));
  }
  return out;
}

}  // namespace

core::SmashResult staged_mine(core::PreprocessResult pre,
                              const smash::whois::Registry& registry,
                              const core::SmashConfig& config, SpanTracer& tracer,
                              StageCounts& counts) {
  core::SmashResult result;
  result.pre = std::move(pre);
  {
    Span mine(tracer, "mine");
    const auto order = core::canonical_mining_order(result.pre);
    double sum_ms = 0.0, max_ms = 0.0;
    for (int d = 0; d < core::kNumDimensions; ++d) {
      const auto dimension = static_cast<core::Dimension>(d);
      const std::string prefix = "dim." + dim_name(d);
      auto& dc = counts.dims[d];
      const auto dim_start = Clock::now();
      Span dim_span(tracer, prefix);  // ends after the stage buffers are freed
      core::DimensionJoinInput input;
      {
        Span s(tracer, prefix + ".input_build");
        input = core::build_dimension_join_input(
            dimension, result.pre, registry, config, order,
            core::dimension_join_threads(dimension, config));
      }
      smash::graph::JoinOptions join_options;
      join_options.max_postings_length = input.postings_cap;
      smash::graph::JoinStats stats;
      std::vector<smash::graph::CooccurrencePair> pairs;
      {
        Span s(tracer, prefix + ".join");
        pairs = smash::graph::cooccurrence_join(input.key_sets, input.min_shared,
                                                join_options, &stats);
      }
      std::vector<smash::graph::Edge> edges;
      {
        Span s(tracer, prefix + ".weight");
        edges = core::weight_dimension_pairs(input, pairs);
      }
      core::DimensionAshes canonical;
      {
        Span s(tracer, prefix + ".louvain");
        canonical = core::extract_canonical_ashes(input, edges, config);
      }
      canonical.join_stats = stats;
      {
        Span s(tracer, prefix + ".remap");
        result.dims.push_back(
            core::remap_ashes_to_kept(std::move(canonical), input.canon_to_kept));
      }
      std::vector<char> touched(input.key_sets.size(), 0);
      for (const auto& e : edges) touched[e.u] = touched[e.v] = 1;
      dc.keys += static_cast<double>(stats.num_keys);
      dc.candidate_pairs += static_cast<double>(stats.candidate_pairs);
      dc.pairs += static_cast<double>(pairs.size());
      dc.nodes += static_cast<double>(input.key_sets.size());
      dc.edges += static_cast<double>(edges.size());
      dc.isolated += static_cast<double>(std::count(touched.begin(), touched.end(), 0));
      dc.ashes += static_cast<double>(result.dims.back().ashes.size());
      const double ms = ms_between(dim_start, Clock::now());
      sum_ms += ms;
      max_ms = std::max(max_ms, ms);
    }
    counts.sum_dim_ms.push_back(sum_ms);
    counts.max_dim_ms.push_back(max_ms);
  }
  {
    Span s(tracer, "correlate");
    result.correlation = core::correlate(result.pre, result.dims, config);
  }
  {
    Span s(tracer, "prune");
    result.pruned = core::prune(result.pre, result.correlation.groups, config);
  }
  {
    Span s(tracer, "campaigns");
    result.campaigns = assemble_campaigns(result);
  }
  ++counts.mines;
  counts.correlate_groups += static_cast<double>(result.correlation.groups.size());
  counts.prune_groups_removed += static_cast<double>(result.pruned.stats.groups_dropped);
  return result;
}

void add_mining_layers(Report& report, const SpanTracer& tracer,
                       const StageCounts& counts) {
  const double n = counts.mines == 0 ? 1.0 : static_cast<double>(counts.mines);
  const auto totals = tracer.totals();
  // Self time per mining call (the stage spans are leaves, so self time
  // is their whole duration).
  const auto per_call_ms = [&](const std::string& span) {
    const auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.self_ms / n;
  };
  for (int d = 0; d < core::kNumDimensions; ++d) {
    const std::string p = "dim." + dim_name(d);
    const auto& dc = counts.dims[d];
    report.add_layer(p + ".input_build_ms", per_call_ms(p + ".input_build"), "ms");
    report.add_layer(p + ".keys", dc.keys / n, "count");
    report.add_layer(p + ".join_ms", per_call_ms(p + ".join"), "ms");
    report.add_layer(p + ".join_candidate_pairs", dc.candidate_pairs / n, "count");
    report.add_layer(p + ".join_pairs", dc.pairs / n, "count");
    report.add_layer(p + ".join_yield",
                     dc.candidate_pairs == 0 ? 0.0 : dc.pairs / dc.candidate_pairs,
                     "ratio");
    report.add_layer(p + ".louvain_ms",
                     per_call_ms(p + ".weight") + per_call_ms(p + ".louvain") +
                         per_call_ms(p + ".remap"),
                     "ms");
    report.add_layer(p + ".nodes", dc.nodes / n, "count");
    report.add_layer(p + ".edges", dc.edges / n, "count");
    report.add_layer(p + ".isolated_share", dc.nodes == 0 ? 0.0 : dc.isolated / dc.nodes,
                     "ratio");
    report.add_layer(p + ".ashes", dc.ashes / n, "count");
  }
  report.add_layer("mine.sum_dim_ms", mean(counts.sum_dim_ms), "ms");
  report.add_layer("mine.max_dim_ms", mean(counts.max_dim_ms), "ms");
  report.add_layer("correlate.ms", per_call_ms("correlate"), "ms");
  report.add_layer("prune.ms", per_call_ms("prune"), "ms");
  report.add_layer("campaigns.ms", per_call_ms("campaigns"), "ms");
  report.add_layer("correlate.groups", counts.correlate_groups / n, "count");
  report.add_layer("prune.groups_removed", counts.prune_groups_removed / n, "count");
}

std::string compare_results(const core::SmashResult& a, const core::SmashResult& b) {
  if (a.pre.kept.size() != b.pre.kept.size()) return "kept set size";
  for (std::size_t i = 0; i < a.pre.kept.size(); ++i) {
    if (a.server_name(i) != b.server_name(i)) return "kept set";
  }
  if (a.dims.size() != b.dims.size()) return "dimension count";
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    const auto& x = a.dims[d].ashes;
    const auto& y = b.dims[d].ashes;
    if (x.size() != y.size()) return "herd count of " + dim_name(static_cast<int>(d));
    for (std::size_t h = 0; h < x.size(); ++h) {
      if (x[h].members != y[h].members) return "herds of " + dim_name(static_cast<int>(d));
    }
  }
  if (a.correlation.groups != b.correlation.groups) return "correlation groups";
  if (a.pruned.groups != b.pruned.groups) return "pruned groups";
  if (a.campaigns.size() != b.campaigns.size()) return "campaign count";
  for (std::size_t c = 0; c < a.campaigns.size(); ++c) {
    if (a.campaigns[c].servers != b.campaigns[c].servers ||
        a.campaigns[c].involved_clients != b.campaigns[c].involved_clients) {
      return "campaign " + std::to_string(c);
    }
  }
  return "";
}

}  // namespace perfbench
