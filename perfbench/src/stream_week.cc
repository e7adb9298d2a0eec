// stream_week: StreamEngine with sync mining, hourly epochs, a 24-epoch
// window and the WAL on (fsync at each seal), fed a 7-day scenario by one
// writer as fast as the engine accepts it (closed loop). Loads ingest, the
// epoch seal, the shard merge, the sliding-window re-mine, snapshot build
// and the WAL; preprocess() is never called.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <unistd.h>

#include "core/preshard.h"
#include "obs/metrics.h"
#include "scenario.h"
#include "staged.h"
#include "stream/engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace stream = smash::stream;
using SnapshotPtr = std::shared_ptr<const stream::DetectionSnapshot>;

stream::StreamConfig engine_config(const std::string& durability_dir) {
  stream::StreamConfig config;
  config.epoch_seconds = 3600;
  config.window_epochs = 24;
  config.async_mining = false;
  config.smash.idf_threshold = 200;  // the 250-client popular head is filtered
  config.durability_dir = durability_dir;
  config.fsync_policy = stream::WalFsync::kOnSeal;
  return config;
}

fs::path durability_dir(const Options& options, int n) {
  return fs::path(options.work_dir) /
         ("stream-" + std::to_string(::getpid()) + "-" + std::to_string(n));
}

// A fresh, empty durability directory under the work dir.
std::string fresh_dir(const Options& options, int n) {
  const auto dir = durability_dir(options, n);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

struct Replay {
  double wall_s = 0.0;
  std::vector<SnapshotPtr> snapshots;  // every publication, in order
  std::vector<stream::EpochCloseRecord> records;
  std::vector<double> answer_age_ms;  // current snapshot's age, every 512 events
  // Per-call ingest timing (traced reference replay only).
  std::vector<double> quiet_call_ns;  // calls that closed no epoch
  double max_call_ms = 0.0;
};

Replay replay(stream::StreamEngine& engine, const smash::synth::StreamScenario& scenario,
              bool time_calls) {
  Replay out;
  std::uint64_t published = 0;
  std::size_t i = 0;
  const auto begin = Clock::now();
  for (const auto& event : scenario.events) {
    if (time_calls) {
      const auto closes = engine.epochs_closed_total();
      const auto t = Clock::now();
      smash::synth::ingest_event(engine, event);
      const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t).count();
      out.max_call_ms = std::max(out.max_call_ms, ns / 1e6);
      if (engine.epochs_closed_total() == closes) out.quiet_call_ns.push_back(ns);
    } else {
      smash::synth::ingest_event(engine, event);
    }
    if (engine.snapshots_published() != published) {
      published = engine.snapshots_published();
      out.snapshots.push_back(engine.snapshot());
    }
    if (++i % 512 == 0 && !out.snapshots.empty()) {
      out.answer_age_ms.push_back(ms_between(out.snapshots.back()->built_at(), Clock::now()));
    }
  }
  engine.finish();
  out.wall_s = seconds_since(begin);
  if (engine.snapshots_published() != published) out.snapshots.push_back(engine.snapshot());
  out.records = engine.close_records();
  return out;
}

// The engine's sync path driven from outside through the public layers:
// StreamIngestor -> build_shard_pre (re-run on each sealed shard) ->
// merge_shard_pres -> staged mining -> DetectionSnapshot::build.
struct External {
  double wall_s = 0.0;
  std::vector<SnapshotPtr> snapshots;
  std::size_t seals = 0;
  bool preshard_matches = true;
};

External external_replay(const smash::synth::StreamScenario& scenario,
                         stream::StreamConfig config, SpanTracer& tracer,
                         StageCounts& counts) {
  config.durability_dir.clear();
  config.smash.metrics = nullptr;
  External out;
  stream::StreamIngestor ingestor(config);
  std::uint64_t closes_total = 0;
  const auto on_closed = [&](std::uint32_t closed) {
    if (closed == 0) return;
    closes_total += closed;
    const auto& window = ingestor.window();
    if (window.empty()) return;
    {
      Span seal(tracer, "preshard.build");
      const auto rebuilt = smash::core::build_shard_pre(window.back()->trace());
      seal.finish();
      ++out.seals;
      out.preshard_matches &= smash::core::shard_pre_fingerprint(rebuilt) ==
                              smash::core::shard_pre_fingerprint(window.back()->pre());
    }
    Span close(tracer, "close");
    std::vector<smash::core::ShardPreRef> refs;
    for (const auto& shard : window) refs.push_back({&shard->trace(), &shard->pre()});
    smash::core::WindowPre window_pre;
    {
      Span s(tracer, "preshard.merge");
      window_pre = smash::core::merge_shard_pres(refs, config.smash);
    }
    const auto window_requests = window_pre.pre.total_requests;
    auto result = staged_mine(std::move(window_pre.pre), scenario.whois, config.smash,
                              tracer, counts);
    Span s(tracer, "snapshot.build");
    out.snapshots.push_back(stream::DetectionSnapshot::build(
        result, window_pre.ips, window_requests, ingestor.aggregates(), ingestor.stats(),
        window.front()->id(), window.back()->id(), closes_total));
  };
  const auto begin = Clock::now();
  for (const auto& event : scenario.events) {
    std::visit([&](const auto& e) { on_closed(ingestor.ingest(e).epochs_closed); }, event);
  }
  if (ingestor.has_open_epoch()) {
    ingestor.close_epoch();
    on_closed(1);
  }
  out.wall_s = seconds_since(begin);
  return out;
}

std::set<std::string> flagged_2lds(const std::vector<SnapshotPtr>& snapshots) {
  std::set<std::string> out;
  for (const auto& s : snapshots) {
    for (const auto& c : s->campaigns()) out.insert(c.servers.begin(), c.servers.end());
  }
  return out;
}

Quality score(const std::set<std::string>& flagged,
              const smash::synth::StreamScenario& scenario) {
  std::set<std::string> truth;
  for (const auto& c : scenario.campaigns) truth.insert(c.servers.begin(), c.servers.end());
  Quality q;
  q.flagged = flagged.size();
  q.truth = truth.size();
  for (const auto& s : flagged) q.true_positives += truth.count(s);
  return q;
}

double histogram_mean(const smash::obs::MetricsSnapshot& m, const char* name) {
  const auto* h = m.histogram(name);
  return h == nullptr || h->count == 0 ? 0.0 : h->sum / static_cast<double>(h->count);
}

std::vector<std::string> digests(const std::vector<SnapshotPtr>& snapshots) {
  std::vector<std::string> out;
  for (const auto& s : snapshots) out.push_back(s->digest());
  return out;
}

}  // namespace

Report run_stream_week(const Options& options) {
  Report report;
  const std::uint32_t days = options.smoke ? 1 : 7;

  // Set-up, three times (the median counts): scenario generation plus
  // engine start.
  std::vector<double> generate_s, setup;
  smash::synth::StreamScenario scenario;
  std::unique_ptr<stream::StreamEngine> engine;
  int dirs = 0;
  for (int rep = 0; rep < 3; ++rep) {
    engine.reset();
    const auto t = Clock::now();
    scenario = make_stream_scenario(options.seed, days, options.smoke);
    generate_s.push_back(seconds_since(t));
    engine = std::make_unique<stream::StreamEngine>(
        engine_config(fresh_dir(options, dirs++)), scenario.whois);
    setup.push_back(seconds_since(t));
  }
  const double setup_s = median(setup);
  const auto events = static_cast<double>(scenario.events.size());

  std::vector<Replay> replays;
  const auto begin = Clock::now();
  do {
    if (!engine) {
      engine = std::make_unique<stream::StreamEngine>(
          engine_config(fresh_dir(options, dirs++)), scenario.whois);
    }
    replays.push_back(replay(*engine, scenario, options.trace));
    if (options.trace) break;  // one reference replay; the rest is traced below
    engine.reset();
  } while (replays.size() < 2 || seconds_since(begin) < options.seconds);

  auto reference = digests(replays.front().snapshots);
  if (options.inject_fault == "stream_digest" && !reference.empty()) {
    reference.back() += "x";
  }
  for (std::size_t r = 1; r < replays.size(); ++r) {
    report.check("stream.replay_deterministic", digests(replays[r].snapshots) == reference);
  }
  report.attempted += reference.size();  // every publication is an operation
  const auto quality = score(flagged_2lds(replays.front().snapshots), scenario);

  if (!options.trace) {
    std::vector<double> close_ms, ingest_keps, ages;
    for (const auto& r : replays) {
      for (const auto& rec : r.records) close_ms.push_back(rec.total_ms);
      ingest_keps.push_back(events / r.wall_s / 1e3);
      ages.insert(ages.end(), r.answer_age_ms.begin(), r.answer_age_ms.end());
    }
    // One replay's closes (168) pick the percentile, p90, so a faster box
    // that fits one more replay into the run does not switch it.
    const double tail_q =
        tail_percentile(std::vector<double>(replays.front().records.size())).q;
    const TailPick tail{tail_q, percentile(close_ms, tail_q)};
    report.add_e2e("op_p50_ms", median(close_ms), "ms");
    report.add_e2e("op_tail_ms", tail.value, "ms");
    report.add_e2e("throughput_kops", median(ingest_keps), "k/s");
    report.add_e2e("answer_age_ms", median(ages), "ms");
    report.add_e2e("detect_f1", quality.f1(), "ratio");
    report.add_named("close_to_publish_p50_ms", median(close_ms), "ms");
    report.add_named("close_to_publish_tail_ms", tail.value, "ms");
    report.add_named("close_to_publish_tail_percentile", tail.q, "percentile");
    report.add_named("closes", static_cast<double>(close_ms.size()), "count");
    report.add_named("ingest_keps", median(ingest_keps), "k/s");
    report.add_named("replays", static_cast<double>(replays.size()), "count");
    report.add_named("detect_flagged", static_cast<double>(quality.flagged), "count");
  } else {
    const auto& ref = replays.front();
    const auto registry = engine->metrics()->snapshot();
    // External path, traced and untraced, alternating; the traced one's
    // snapshots are checked against the engine's.
    SpanTracer off(false);
    StageCounts counts, off_counts;
    std::vector<double> on_s, off_s;
    External traced;
    const auto traced_begin = Clock::now();
    do {
      off_s.push_back(external_replay(scenario, engine->config(), off, off_counts).wall_s);
      SpanTracer tracer(true);
      StageCounts run_counts;
      auto ext = external_replay(scenario, engine->config(), tracer, run_counts);
      on_s.push_back(ext.wall_s);
      if (on_s.size() == 1) {
        traced = std::move(ext);
        counts = run_counts;
        // Layer metrics come from the first traced replay.
        const auto totals = tracer.totals();
        const auto total = [&](const char* name) {
          const auto it = totals.find(name);
          return it == totals.end() ? 0.0 : it->second.total_ms;
        };
        const double closes = std::max(1.0, static_cast<double>(counts.mines));
        report.add_layer("preshard.build_ms",
                         total("preshard.build") / std::max<std::size_t>(traced.seals, 1),
                         "ms");
        report.add_layer("preshard.merge_ms", total("preshard.merge") / closes, "ms");
        report.add_layer("snapshot.build_ms", total("snapshot.build") / closes, "ms");
        add_mining_layers(report, tracer, counts);
        const double close_total = total("close");
        report.add_layer("split.merge_client_share",
                         (total("preshard.merge") + total("dim.client")) / close_total,
                         "ratio");
        report.add_layer("split.uri_file_share", total("dim.uri_file") / close_total, "ratio");
      }
    } while (seconds_since(traced_begin) < options.seconds);

    const auto traced_digests = digests(traced.snapshots);
    for (std::size_t i = 0; i < std::max(traced_digests.size(), reference.size()); ++i) {
      const bool ok = i < traced_digests.size() && i < reference.size() &&
                      traced_digests[i] == reference[i];
      report.check("stream.traced_digest_matches_engine", ok,
                   "publication " + std::to_string(i));
    }
    report.check("stream.preshard_rebuild_matches", traced.preshard_matches);

    const auto* preprocess = registry.histogram("pipeline.preprocess_ms");
    report.add_layer("preprocess.ms", preprocess == nullptr ? 0.0 : preprocess->sum, "ms");
    report.add_layer("ingest.events", events, "count");
    report.add_layer("ingest.ns_per_event", mean(ref.quiet_call_ns), "ns");
    report.add_layer("ingest.max_stall_ms", ref.max_call_ms, "ms");
    report.add_layer("ingest.late_dropped",
                     static_cast<double>(ref.snapshots.back()->late_dropped()), "count");
    report.add_layer("engine.publications", static_cast<double>(engine->snapshots_published()),
                     "count");
    report.add_layer("engine.windows_coalesced",
                     static_cast<double>(engine->windows_coalesced()), "count");
    report.add_layer("engine.mine_queue_wait_ms",
                     histogram_mean(registry, "stream.mine_queue_wait_ms"), "ms");
    report.add_layer("engine.mine_ms", histogram_mean(registry, "stream.mine_ms"), "ms");
    std::vector<double> window_requests, kept;
    for (const auto& rec : ref.records) {
      window_requests.push_back(static_cast<double>(rec.window_requests));
      kept.push_back(static_cast<double>(rec.kept_servers));
    }
    report.add_layer("window.requests", mean(window_requests), "count");
    report.add_layer("window.kept_servers", mean(kept), "count");
    const auto* wal_bytes = registry.counter("wal.bytes_total");
    report.add_layer("wal.bytes", wal_bytes == nullptr ? 0.0 : static_cast<double>(wal_bytes->value),
                     "bytes");
    const auto* fsync = registry.histogram("wal.fsync_ms");
    report.add_layer("wal.fsyncs", fsync == nullptr ? 0.0 : static_cast<double>(fsync->count),
                     "count");
    report.add_layer("wal.fsync_ms", histogram_mean(registry, "wal.fsync_ms"), "ms");
    report.add_layer("ckpt.install_ms", histogram_mean(registry, "ckpt.install_ms"), "ms");
    double ckpt_bytes = 0.0;
    std::string newest;
    for (const auto& entry : fs::directory_iterator(engine->config().durability_dir)) {
      const auto name = entry.path().filename().string();
      if (name.rfind("ckpt-", 0) == 0 && name > newest) {
        newest = name;
        ckpt_bytes = static_cast<double>(entry.file_size());
      }
    }
    report.add_layer("ckpt.bytes", ckpt_bytes, "bytes");
    report.add_layer("synth.generate_ms", median(generate_s) * 1e3, "ms");
    report.add_layer("trace.overhead_share", median(on_s) / median(off_s) - 1.0, "ratio");
  }
  engine.reset();
  for (int d = 0; d < dirs; ++d) fs::remove_all(durability_dir(options, d));

  report.add_e2e("setup_s", setup_s, "s");
  report.add_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  report.add_e2e("ok_share",
                 1.0 - static_cast<double>(report.failed) /
                           static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
                 "ratio");
  return report;
}

}  // namespace perfbench
