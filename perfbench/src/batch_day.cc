// batch_day: SmashPipeline::run over the synthetic 2012day world, one
// caller back to back (closed loop), one mining thread on the one CPU the
// benchmark is pinned to (main.cc). Loads preprocessing and the four
// dimension mines; stream and serve stay idle.
#include <algorithm>
#include <set>
#include <string>

#include "core/pipeline.h"
#include "staged.h"
#include "synth/world.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = smash::core;

Quality score(const core::SmashResult& result, const smash::ids::GroundTruth& truth) {
  std::set<std::string> flagged;
  for (const auto& c : result.campaigns) {
    for (auto s : c.servers) flagged.insert(result.server_name(s));
  }
  Quality q;
  q.flagged = flagged.size();
  for (std::size_t k = 0; k < result.pre.kept.size(); ++k) {
    if (truth.server_is_malicious(result.server_name(k))) ++q.truth;
  }
  for (const auto& name : flagged) {
    if (truth.server_is_malicious(name)) ++q.true_positives;
  }
  return q;
}

// preprocess, then staged_mine, each under a span.
core::SmashResult staged_run(const smash::synth::Dataset& ds,
                             const core::SmashConfig& config, SpanTracer& tracer,
                             StageCounts& counts, core::PreprocessResult* pre_copy) {
  core::PreprocessResult pre;
  {
    Span s(tracer, "preprocess");
    pre = core::preprocess(ds.trace, config);
  }
  if (pre_copy != nullptr) {
    pre_copy->total_requests = pre.total_requests;
    pre_copy->kept = pre.kept;
  }
  return staged_mine(std::move(pre), ds.whois, config, tracer, counts);
}

}  // namespace

Report run_batch_day(const Options& options) {
  Report report;
  auto world = options.smoke ? smash::synth::data2012day().scaled(0.05)
                             : smash::synth::data2012day();
  world.seed = 20120814ULL + options.seed * 7919ULL;

  // Timed runs mine serially: more threads on one CPU only time-share it.
  // A four-thread run is checked against them after timing.
  core::SmashConfig config;
  config.num_threads = 1;
  core::SmashConfig parallel = config;
  parallel.num_threads = 4;
  const core::SmashPipeline pipeline(config);

  // Set-up, three times (the median counts): world generation plus one
  // warm-up run.
  std::vector<double> generate_s, setup_s;
  smash::synth::Dataset ds;
  core::SmashResult reference;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t = Clock::now();
    ds = smash::synth::generate_world(world);
    generate_s.push_back(seconds_since(t));
    reference = pipeline.run(ds.trace, ds.whois);
    setup_s.push_back(seconds_since(t));
  }

  SpanTracer tracer(options.trace);
  StageCounts counts;
  core::SmashResult staged;
  if (!options.trace) {
    std::vector<double> run_ms;
    const auto begin = Clock::now();
    while (run_ms.size() < 5 || seconds_since(begin) < options.seconds) {
      const auto t = Clock::now();
      const auto result = pipeline.run(ds.trace, ds.whois);
      run_ms.push_back(ms_between(t, Clock::now()));
      const auto diff = compare_results(result, reference);
      report.check("batch.run_deterministic", diff.empty(), diff);
    }
    staged = staged_run(ds, config, tracer, counts, nullptr);

    // A closed loop of ~0.7 s runs gives 30-40 samples, too few for a tail
    // beyond the median (p75 wants 40 for ten runs past it, and a faster
    // box would switch to it mid-series), so on this workload op_tail_ms,
    // throughput_kops and answer_age_ms all derive from the median run.
    const double p50 = median(run_ms);
    const auto quality = score(reference, ds.truth);
    report.add_e2e("op_p50_ms", p50, "ms");
    report.add_e2e("op_tail_ms", p50, "ms");
    report.add_e2e("throughput_kops",
                   static_cast<double>(ds.trace.num_requests()) / p50, "k/s");
    report.add_e2e("answer_age_ms", p50, "ms");
    report.add_e2e("detect_f1", quality.f1(), "ratio");
    report.add_named("batch_run_ms", p50, "ms");
    report.add_named("batch_runs", static_cast<double>(run_ms.size()), "count");
    report.add_named("detect_flagged", static_cast<double>(quality.flagged), "count");
    report.add_named("detect_truth_kept", static_cast<double>(quality.truth), "count");
  } else {
    // Alternate traced and untraced staged runs; their ratio is the
    // tracing overhead.
    SpanTracer off(false);
    StageCounts off_counts;
    std::vector<double> on_ms, off_ms, covered_share, split_share;
    core::PreprocessResult pre_info;
    const auto begin = Clock::now();
    while (on_ms.size() < 3 || seconds_since(begin) < options.seconds) {
      auto t = Clock::now();
      {
        const auto result = staged_run(ds, config, off, off_counts, nullptr);
        off_ms.push_back(ms_between(t, Clock::now()));
      }

      const double root_before = tracer.root_ms();
      const auto totals_before = tracer.totals();
      t = Clock::now();
      auto result = staged_run(ds, config, tracer, counts, &pre_info);
      const double wall = ms_between(t, Clock::now());
      staged = std::move(result);
      on_ms.push_back(wall);
      covered_share.push_back((tracer.root_ms() - root_before) / wall);
      const auto totals = tracer.totals();
      const auto grew = [&](const std::string& name) {
        const auto before = totals_before.find(name);
        return totals.at(name).total_ms -
               (before == totals_before.end() ? 0.0 : before->second.total_ms);
      };
      split_share.push_back((grew("preprocess") + grew("dim.whois.input_build")) / wall);
    }
    const auto totals = tracer.totals();
    const double n = static_cast<double>(counts.mines);
    report.add_layer("preprocess.ms", totals.at("preprocess").total_ms / n, "ms");
    report.add_layer("preprocess.requests", static_cast<double>(pre_info.total_requests),
                     "count");
    report.add_layer("preprocess.kept_servers", static_cast<double>(pre_info.kept.size()),
                     "count");
    add_mining_layers(report, tracer, counts);
    report.add_layer("synth.generate_ms", median(generate_s) * 1e3, "ms");
    report.add_layer("trace.overhead_share", median(on_ms) / median(off_ms) - 1.0, "ratio");
    report.add_layer("trace.span_coverage", median(covered_share), "ratio");
    report.add_layer("split.preprocess_whois_input_share", median(split_share), "ratio");
  }

  if (options.inject_fault == "batch_staged" && !staged.campaigns.empty()) {
    staged.campaigns.pop_back();
  }
  const auto parallel_result = core::SmashPipeline(parallel).run(ds.trace, ds.whois);
  auto diff = compare_results(staged, reference);
  report.check("batch.staged_equals_run_1_thread", diff.empty(), diff);
  diff = compare_results(staged, parallel_result);
  report.check("batch.staged_equals_run_4_threads", diff.empty(), diff);

  report.add_e2e("setup_s", median(setup_s), "s");
  report.add_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  report.add_e2e("ok_share",
                 1.0 - static_cast<double>(report.failed) /
                           static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
                 "ratio");
  return report;
}

}  // namespace perfbench
