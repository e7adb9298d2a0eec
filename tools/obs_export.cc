// Observability export producer (docs/OBSERVABILITY.md): one durable sync
// StreamEngine (WAL with fsync on seal, a checkpoint every 6 epochs)
// replays a day-long timestamped scenario with the metrics registry, the
// periodic JSONL logger and the span tracer on, and writes metrics.prom,
// metrics.json, metrics.jsonl and trace.json into <dir> for
// tools/check_trace.py and smash_stats. It times and gates nothing: the
// exports' counts are checked by the StreamObsGates tests
// (tests/obs_test.cc), the stream's speed by perfbench's stream_week.
//
// Usage: obs_export <dir>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/engine.h"
#include "synth/stream_gen.h"

namespace {

smash::synth::StreamScenarioConfig scenario_config() {
  smash::synth::StreamScenarioConfig config;
  config.seed = 2015;
  config.duration_s = 86400;
  config.benign_servers = 1200;
  config.benign_clients = 800;
  config.benign_visits = 40000;
  config.popular_servers = 6;
  config.popular_clients = 250;
  config.campaigns = 6;
  config.campaign_servers = 6;
  config.campaign_bots = 5;
  config.poll_interval_s = 300;
  config.active_fraction = 0.35;
  return config;
}

bool write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || argv[1][0] == '-') {
    std::fprintf(stderr, "usage: %s <dir>\n", argv[0]);
    return 1;
  }
  const std::string dump_dir = argv[1];
  std::filesystem::create_directories(dump_dir);
  const auto scenario = smash::synth::generate_stream(scenario_config());

  smash::stream::StreamConfig config;
  config.epoch_seconds = 3600;
  config.window_epochs = 24;
  config.smash.idf_threshold = 200;  // popular_clients = 250 get filtered
  config.durability_dir =
      (std::filesystem::temp_directory_path() / "smash_obs_export").string();
  config.fsync_policy = smash::stream::WalFsync::kOnSeal;
  config.checkpoint_every_epochs = 6;
  config.metrics_dir = dump_dir;
  config.metrics_interval_ms = 1000;
  std::filesystem::remove_all(config.durability_dir);

  smash::obs::Tracer::global().enable(1u << 16);
  std::uint64_t publications = 0;
  std::shared_ptr<smash::obs::Registry> registry;
  {
    smash::stream::StreamEngine engine(config, scenario.whois);
    for (const auto& event : scenario.events) {
      smash::synth::ingest_event(engine, event);
    }
    engine.finish();
    publications = engine.snapshots_published();
    registry = engine.metrics();
  }
  const std::uint64_t spans = smash::obs::Tracer::global().recorded();
  const std::uint64_t dropped = smash::obs::Tracer::global().dropped();
  const std::string trace_json = smash::obs::Tracer::global().dump_chrome_json();
  smash::obs::Tracer::global().disable();
  std::filesystem::remove_all(config.durability_dir);

  const auto snap = registry->snapshot();
  const std::filesystem::path dir(dump_dir);
  if (!write_file(dir / "metrics.prom", smash::obs::render_prometheus(snap)) ||
      !write_file(dir / "metrics.json", smash::obs::render_json(snap) + "\n") ||
      !write_file(dir / "trace.json", trace_json)) {
    std::fprintf(stderr, "obs export: failed writing to %s\n", dump_dir.c_str());
    return 1;
  }
  std::printf("obs export: %llu publications, %llu spans (%llu dropped); "
              "metrics.prom, metrics.json, metrics.jsonl, trace.json in %s\n",
              static_cast<unsigned long long>(publications),
              static_cast<unsigned long long>(spans),
              static_cast<unsigned long long>(dropped),
              dump_dir.c_str());
  return 0;
}
