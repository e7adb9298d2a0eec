// End-to-end perf baseline: full SMASH pipeline (preprocess -> mine ->
// correlate -> prune -> campaigns) per dataset preset, serial vs threaded
// mining, written to BENCH_pipeline.json.
//
// The week-scale section exercises graph::cooccurrence_join's memory
// budget (JoinOptions::memory_budget_bytes, set from
// SmashConfig::join_memory_budget_bytes) on the monolithic 2012week
// window three ways: the default-cap status quo
// (whose stop-file cap trips postings_budget_exceeded at week scale and
// undercounts), an exact in-RAM reference with inert caps, and a
// join_memory_budget_bytes a quarter of the exact run's observed peak
// (which must complete EXACTLY — byte-identical campaigns — within the
// budget). Exactness is checked, so this binary doubles as a smoke test;
// a budgeted-vs-exact mismatch exits non-zero.
//
// Usage: perf_pipeline [output.json] [--smoke]
//   default output: BENCH_pipeline.json
//   --smoke: skip the day presets and run the week section on a scaled-down
//            week world (seconds, for CI).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "bench_common.h"
#include "synth/world.h"

namespace {

void bench_preset(smash::bench::JsonReporter& report,
                  const std::string& preset, int repeats) {
  const auto& ds = smash::bench::dataset(preset);

  for (const unsigned threads : {1u, 4u}) {
    smash::core::SmashConfig config;
    config.num_threads = threads;
    const smash::core::SmashPipeline pipeline(config);

    std::size_t campaigns = 0;
    std::size_t servers = 0;
    const double ms = smash::bench::time_best_ms(repeats, [&] {
      const auto result = pipeline.run(ds.trace, ds.whois);
      campaigns = result.campaigns.size();
      servers = result.pre.kept.size();
    });
    report.add("pipeline/" + preset + "/threads" + std::to_string(threads), ms,
               {{"campaigns", static_cast<double>(campaigns)},
                {"kept_servers", static_cast<double>(servers)},
                {"threads", static_cast<double>(threads)}});
    std::printf("pipeline %-9s threads=%u  %9.1f ms  (%zu campaigns, %zu kept servers)\n",
                preset.c_str(), threads, ms, campaigns, servers);
  }
}

// Full campaign equality (servers + involved_clients are Campaign's only
// fields), plus the kept-server set the campaigns index into.
bool same_campaigns(const smash::core::SmashResult& a,
                    const smash::core::SmashResult& b) {
  if (a.pre.kept != b.pre.kept) return false;
  if (a.campaigns.size() != b.campaigns.size()) return false;
  for (std::size_t c = 0; c < a.campaigns.size(); ++c) {
    if (a.campaigns[c].servers != b.campaigns[c].servers) return false;
    if (a.campaigns[c].involved_clients != b.campaigns[c].involved_clients) {
      return false;
    }
  }
  return true;
}

// Returns false when the budgeted run fails exactness (CI smoke signal).
bool bench_week_budget(smash::bench::JsonReporter& report, bool smoke,
                       int repeats) {
  using smash::core::SmashConfig;
  using smash::core::SmashPipeline;
  using smash::core::SmashResult;

  // --smoke runs a scaled-down week world so CI finishes in seconds; the
  // full section uses the canonical 2012week preset.
  smash::synth::Dataset scaled_ds;
  const smash::synth::Dataset* ds = nullptr;
  std::string label = "2012week";
  if (smoke) {
    scaled_ds = smash::synth::generate_world(
        smash::synth::data2012week().scaled(0.12));
    ds = &scaled_ds;
    label = "2012week-smoke";
  } else {
    ds = &smash::bench::dataset("2012week");
  }

  // 1) The pre-budget status quo: default caps. At week scale the
  //    uri-file stop-file cap fires (postings lists outgrow 1500 servers),
  //    so the run reports postings_budget_exceeded and undercounts — the
  //    ROADMAP gap this bench documents.
  SmashConfig legacy;
  legacy.num_threads = 1;
  SmashResult legacy_result;
  const double legacy_ms = smash::bench::time_best_ms(repeats, [&] {
    legacy_result = SmashPipeline(legacy).run(ds->trace, ds->whois);
  });
  report.add(
      "pipeline/" + label + "/default_caps", legacy_ms,
      {{"campaigns", static_cast<double>(legacy_result.campaigns.size())},
       {"postings_budget_exceeded",
        legacy_result.postings_budget_exceeded() ? 1.0 : 0.0},
       {"peak_postings_bytes",
        static_cast<double>(legacy_result.peak_resident_postings_bytes())}});
  std::printf(
      "pipeline %-14s default-caps %9.1f ms  (%zu campaigns, "
      "budget_exceeded=%d <- the undercounting status quo)\n",
      label.c_str(), legacy_ms, legacy_result.campaigns.size(),
      legacy_result.postings_budget_exceeded() ? 1 : 0);

  // 2) Exact reference: caps inert (no skipping, no undercount), join
  //    fully in RAM. This is the output the budgeted runs must reproduce
  //    byte-identically, and its residency is what the budget divides.
  SmashConfig base;
  base.num_threads = 1;
  base.join_postings_cap = std::numeric_limits<std::uint32_t>::max();
  base.file_postings_cap = std::numeric_limits<std::uint32_t>::max();
  SmashResult unbounded;
  const double unbounded_ms = smash::bench::time_best_ms(repeats, [&] {
    unbounded = SmashPipeline(base).run(ds->trace, ds->whois);
  });
  const std::size_t peak_bytes = unbounded.peak_resident_postings_bytes();
  report.add("pipeline/" + label + "/inram_exact", unbounded_ms,
             {{"campaigns", static_cast<double>(unbounded.campaigns.size())},
              {"kept_servers", static_cast<double>(unbounded.pre.kept.size())},
              {"peak_postings_bytes", static_cast<double>(peak_bytes)},
              {"shard_passes", static_cast<double>(unbounded.join_shard_passes())}});
  std::printf(
      "pipeline %-14s inram-exact  %9.1f ms  (%zu campaigns, peak postings "
      "%zu B, %zu passes, budget_exceeded=%d)\n",
      label.c_str(), unbounded_ms, unbounded.campaigns.size(), peak_bytes,
      unbounded.join_shard_passes(),
      unbounded.postings_budget_exceeded() ? 1 : 0);

  // 3) Budgeted join (key-range passes) at a quarter of the exact run's
  //    peak, caps still inert, serial and threaded: must reproduce the exact
  //    reference within budget with no cap firing — week-scale completes
  //    exactly where the status quo had to undercount.
  const std::size_t budget = std::max<std::size_t>(peak_bytes / 4, 1);
  bool exact = true;
  for (const unsigned threads : {1u, 4u}) {
    SmashConfig budgeted = base;
    budgeted.num_threads = threads;
    budgeted.join_memory_budget_bytes = budget;
    SmashResult result;
    const double ms = smash::bench::time_best_ms(repeats, [&] {
      result = SmashPipeline(budgeted).run(ds->trace, ds->whois);
    });
    const bool matches = same_campaigns(result, unbounded);
    const bool within = result.peak_resident_postings_bytes() <= budget;
    exact = exact && matches && within &&
            !result.postings_budget_exceeded();
    report.add(
        "pipeline/" + label + "/budget_quarter/threads" + std::to_string(threads),
        ms,
        {{"campaigns", static_cast<double>(result.campaigns.size())},
         {"budget_bytes", static_cast<double>(budget)},
         {"peak_postings_bytes",
          static_cast<double>(result.peak_resident_postings_bytes())},
         {"shard_passes", static_cast<double>(result.join_shard_passes())},
         {"exact", matches ? 1.0 : 0.0},
         {"threads", static_cast<double>(threads)}});
    std::printf(
        "pipeline %-14s budget/4  %9.1f ms  (threads=%u, %zu campaigns, "
        "%zu passes, peak %zu B <= budget %zu B: %s, exact: %s)\n",
        label.c_str(), ms, threads, result.campaigns.size(),
        result.join_shard_passes(), result.peak_resident_postings_bytes(),
        budget, within ? "yes" : "NO", matches ? "yes" : "NO");
  }
  if (!exact) {
    std::fprintf(stderr,
                 "FAIL: budgeted week-scale run diverged from the in-RAM "
                 "join or overran its budget\n");
  }
  return exact;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pipeline.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\nusage: %s [output.json] [--smoke]\n",
                   argv[i], argv[0]);
      return 1;
    } else {
      out_path = argv[i];
    }
  }

  smash::bench::JsonReporter report("pipeline");

  if (!smoke) {
    bench_preset(report, "2011day", 3);
    bench_preset(report, "2012day", 3);
  }
  const bool exact = bench_week_budget(report, smoke, smoke ? 1 : 2);

  if (!report.write(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return exact ? 0 : 1;
}
