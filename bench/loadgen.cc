// Serving gates for the verdict server (docs/SERVING.md): a VerdictServer
// fronts a StreamEngine that keeps ingesting, mining and publishing a
// looping scenario underneath while two open-loop stages are fired at it
// over real TCP:
//   overload     20k requests/s against a client that drains ~2k/s: the
//                server must shed with explicit kRejected answers, never
//                queue without bound;
//   stale_probe  after the feeder stops and the staleness SLO has passed,
//                every answer must be kStale.
// Serving speed is measured by perfbench's serve_mixed workload, not here.
//
// Requests go out on the stage's schedule, never gated on responses, and
// each latency is measured from the request's scheduled send time. Once
// the sender is done the client's receive buffer is raised, so the
// backlog drains at full speed. Each stage reports its outcome counts
// (ok / stale / rejected), which tools/check_serve.py checks together
// with the server's own counters.
//
// Usage: loadgen <report.json> [--obs-dump <dir>]
//   --obs-dump: write the combined engine+serve registry (metrics.prom /
//               metrics.json) after the run, for tools/smash_stats.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include <sys/socket.h>

#include "bench_common.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stream/engine.h"
#include "synth/stream_gen.h"

namespace {

using Clock = std::chrono::steady_clock;
using smash::serve::FrameStatus;

smash::synth::StreamScenarioConfig scenario_config() {
  smash::synth::StreamScenarioConfig config;
  config.seed = 2015;
  config.duration_s = 6 * 600;
  config.benign_servers = 80;
  config.benign_clients = 60;
  config.benign_visits = 800;
  config.popular_servers = 2;
  config.popular_clients = 70;
  config.campaigns = 2;
  config.campaign_servers = 5;
  config.campaign_bots = 5;
  config.poll_interval_s = 120;
  config.active_fraction = 0.5;
  return config;
}

// Replays the scenario in laps, shifting each lap's timestamps by a full
// scenario duration so ingest time stays monotone and epochs keep closing
// (and snapshots keep publishing) for as long as the stages run.
void feeder_loop(smash::stream::StreamEngine& engine,
                 const smash::synth::StreamScenario& scenario,
                 const std::atomic<bool>& stop,
                 std::atomic<std::uint64_t>& laps) {
  for (std::uint64_t lap = 0; !stop.load(std::memory_order_relaxed); ++lap) {
    std::size_t i = 0;
    for (const auto& event : scenario.events) {
      if (stop.load(std::memory_order_relaxed)) return;
      std::visit(
          [&](auto e) {
            e.time_s += lap * scenario.duration_s;
            engine.ingest(e);
          },
          event);
      // Yield regularly: the point is publications *during* the stages,
      // not ingest throughput — leave the core to the serving path.
      if (++i % 200 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    laps.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

struct StageSpec {
  std::string name;
  double duration_s = 0.0;
  double qps = 0.0;
  // Overload: the receiver drains far slower than the offered rate while
  // requests are still being sent, so responses pile up against the
  // connection's pending bound and the shedding path (kRejected) engages.
  // The client's receive buffer is pinned small (kSlowConsumerRcvbufBytes)
  // so the backlog queues on the server, not in a loopback buffer that the
  // kernel would otherwise autotune up to tcp_rmem's maximum (MiBs).
  bool slow_consumer = false;
};

struct StageResult {
  std::uint64_t sent = 0, received = 0;
  std::uint64_t ok = 0, stale = 0, rejected = 0;
  double duration_ms = 0.0;
  std::vector<double> latency_us;  // per response, from scheduled send

  double percentile(double q) const {
    if (latency_us.empty()) return 0.0;
    std::vector<double> sorted = latency_us;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(q * sorted.size());
    return sorted[std::min(idx, sorted.size() - 1)];
  }
};

// SO_RCVBUF of a slow-consumer stage's client socket while it sends.
// Setting it also switches off receive-buffer autotuning for that socket.
constexpr int kSlowConsumerRcvbufBytes = 4096;
// SO_RCVBUF once the sender has stopped, so the backlog drains at full
// speed: through the 4 KiB window it moves only ~1.3k responses/s.
constexpr int kDrainRcvbufBytes = 1 << 20;

// Runs one stage over a fresh connection. Sender and receiver share the
// socket: the sender paces scheduled sends (bursting when behind) until
// the stage's end, the receiver matches responses back to scheduled send
// times by request_id.
StageResult run_stage(const StageSpec& stage, std::uint16_t port,
                      const std::vector<std::string>& hosts) {
  smash::serve::BlockingClient client("127.0.0.1", port);
  if (stage.slow_consumer) {
    ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &kSlowConsumerRcvbufBytes,
                 sizeof(kSlowConsumerRcvbufBytes));
  }
  StageResult result;

  // Every request the schedule holds, so the array is indexable by
  // request_id without locking.
  const auto capacity =
      static_cast<std::size_t>(std::ceil(stage.qps * stage.duration_s));
  std::vector<Clock::time_point> scheduled(capacity);

  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> sender_done{false};

  std::thread receiver([&] {
    for (;;) {
      if (stage.slow_consumer && !sender_done.load(std::memory_order_acquire)) {
        // Drain at ~2k/s against a much larger offered rate.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      const std::uint64_t target = sent.load(std::memory_order_acquire);
      if (sender_done.load(std::memory_order_acquire) &&
          result.received >= target) {
        break;
      }
      if (result.received >= target) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      auto response = client.receive();
      if (!response.has_value()) {
        std::fprintf(stderr, "loadgen: connection lost mid-stage %s\n",
                     stage.name.c_str());
        return;
      }
      ++result.received;
      switch (response->status) {
        case FrameStatus::kOk:
          ++result.ok;
          break;
        case FrameStatus::kStale:
          ++result.stale;
          break;
        case FrameStatus::kRejected:
          ++result.rejected;
          break;
      }
      const auto id = static_cast<std::size_t>(response->request_id);
      if (id < capacity) {
        result.latency_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      scheduled[id])
                .count());
      }
    }
  });

  const auto start = Clock::now();
  std::uint64_t id = 0;
  std::size_t host_i = 0;
  while (id < capacity) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(id) / stage.qps));
    // Behind schedule? No sleep — send immediately (burst catch-up).
    std::this_thread::sleep_until(due);
    scheduled[id] = due;
    smash::serve::RequestFrame request;
    request.type = smash::serve::FrameType::kLookup;
    request.request_id = id;
    smash::serve::LookupKey key;
    key.host = hosts[host_i++ % hosts.size()];
    request.lookups.push_back(key);
    client.send(request);
    sent.store(++id, std::memory_order_release);
  }
  sender_done.store(true, std::memory_order_release);
  if (stage.slow_consumer) {
    ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &kDrainRcvbufBytes,
                 sizeof(kDrainRcvbufBytes));
  }
  receiver.join();
  result.sent = id;
  result.duration_ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - start)
                           .count();
  return result;
}

std::uint64_t counter_of(const smash::obs::MetricsSnapshot& snapshot,
                         std::string_view name) {
  const auto* c = snapshot.counter(name);
  return c ? c->value : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string obs_dump_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs-dump") == 0 && i + 1 < argc) {
      obs_dump_dir = argv[++i];
    } else if (argv[i][0] == '-' || !out_path.empty()) {
      out_path.clear();
      break;
    } else {
      out_path = argv[i];
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "usage: %s <report.json> [--obs-dump <dir>]\n",
                 argv[0]);
    return 1;
  }

  const auto scenario = smash::synth::generate_stream(scenario_config());
  const auto registry = std::make_shared<smash::obs::Registry>();

  smash::stream::StreamConfig stream_config;
  stream_config.epoch_seconds = 600;
  stream_config.window_epochs = 6;
  stream_config.async_mining = true;
  stream_config.smash.idf_threshold = 50;
  stream_config.metrics = registry;
  smash::stream::StreamEngine engine(stream_config, scenario.whois);

  smash::serve::ServeConfig serve_config;
  // Snapshot-staleness SLO: with the feeder looping, publications land
  // every few hundred ms and answers stay kOk; the stale_probe stage stops
  // the feeder and holds the SLO to flipping answers to kStale.
  serve_config.stale_after_ms = 2000.0;
  // Small enough bounds that the overload stage's un-drained responses
  // cross them at bench scale (see ServeConfig::sndbuf_bytes).
  serve_config.sndbuf_bytes = 4096;
  serve_config.max_pending_response_bytes = 32 * 1024;
  serve_config.metrics = registry;
  smash::serve::VerdictServer server(engine.slot(), serve_config);

  std::atomic<bool> stop_feeder{false};
  std::atomic<std::uint64_t> laps{0};
  std::thread feeder([&] { feeder_loop(engine, scenario, stop_feeder, laps); });

  // Serve nothing before the first snapshot: wait for publication #1.
  while (engine.snapshots_published() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Lookup mix: campaign servers (hits), benign and unknown hosts.
  std::vector<std::string> hosts;
  for (const auto& campaign : scenario.campaigns) {
    hosts.insert(hosts.end(), campaign.servers.begin(),
                 campaign.servers.end());
  }
  for (int i = 0; i < 10; ++i) {
    hosts.push_back("site" + std::to_string(i) + ".org");
    hosts.push_back("never-seen" + std::to_string(i) + ".example");
  }

  smash::bench::JsonReporter report("serve");
  // Adds one stage's entry to the report; false when it lost responses.
  const auto record = [&report](const StageSpec& stage, const StageResult& r) {
    if (r.received < r.sent) {
      std::fprintf(stderr, "loadgen: stage %s lost %llu responses\n",
                   stage.name.c_str(),
                   static_cast<unsigned long long>(r.sent - r.received));
      return false;
    }
    const double achieved =
        r.duration_ms > 0.0
            ? static_cast<double>(r.received) / (r.duration_ms / 1e3)
            : 0.0;
    report.add("serve/" + stage.name, r.duration_ms,
               {{"offered_qps", stage.qps},
                {"achieved_qps", achieved},
                {"sent", static_cast<double>(r.sent)},
                {"received", static_cast<double>(r.received)},
                {"ok", static_cast<double>(r.ok)},
                {"stale", static_cast<double>(r.stale)},
                {"rejected", static_cast<double>(r.rejected)},
                {"p50_us", r.percentile(0.50)},
                {"p99_us", r.percentile(0.99)},
                {"p999_us", r.percentile(0.999)}});
    std::printf(
        "%-12s %7.0f ms  offered %7.0f qps  achieved %7.0f qps  p50 %8.1f us  "
        "p99 %9.1f us  (%llu ok, %llu stale, %llu rejected)\n",
        stage.name.c_str(), r.duration_ms, stage.qps, achieved,
        r.percentile(0.50), r.percentile(0.99),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.stale),
        static_cast<unsigned long long>(r.rejected));
    return true;
  };

  // Offered load far past what the slow consumer drains: the shedding path
  // must answer with explicit kRejected frames, never queue without bound.
  // The stale probe's kStale answers are a separate check and do not count.
  const StageSpec overload{"overload", 1.0, 20000.0, /*slow_consumer=*/true};
  const StageResult shed = run_stage(overload, server.port(), hosts);
  if (!record(overload, shed)) return 1;
  if (shed.rejected == 0) {
    std::fprintf(stderr,
                 "loadgen: the overload stage answered no request kRejected — "
                 "the shedding path was not exercised\n");
    return 1;
  }

  // Staleness probe: stop the feeder, outwait the SLO, and every answer
  // must flip to kStale — mining that has fallen behind is visible, never
  // silently served as fresh.
  stop_feeder.store(true);
  feeder.join();
  engine.finish();
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int>(serve_config.stale_after_ms) + 200));
  const StageSpec probe{"stale_probe", 0.5, 400.0};
  const StageResult stale = run_stage(probe, server.port(), hosts);
  if (!record(probe, stale)) return 1;
  if (stale.stale != stale.received) {
    std::fprintf(stderr,
                 "loadgen: stalled mining must answer kStale (%llu of %llu)\n",
                 static_cast<unsigned long long>(stale.stale),
                 static_cast<unsigned long long>(stale.received));
    return 1;
  }

  // The combined registry, summarized into the report (and optionally
  // dumped for tools/smash_stats): the serving path's own account of what
  // the stages did to it.
  const auto metrics = registry->snapshot();
  report.add("serve/metrics_summary", 0.0,
             {{"accepted_total",
               static_cast<double>(counter_of(metrics, "serve.accepted_total"))},
              {"rejected_total",
               static_cast<double>(counter_of(metrics, "serve.rejected_total"))},
              {"stale_total",
               static_cast<double>(counter_of(metrics, "serve.stale_total"))},
              {"responses_total",
               static_cast<double>(counter_of(metrics, "serve.responses_total"))},
              {"partial_batches_total",
               static_cast<double>(
                   counter_of(metrics, "serve.partial_batches_total"))},
              {"connections_opened_total",
               static_cast<double>(
                   counter_of(metrics, "serve.connections_opened_total"))},
              {"snapshots_published",
               static_cast<double>(engine.snapshots_published())},
              {"feeder_laps", static_cast<double>(laps.load())}});

  if (!obs_dump_dir.empty()) {
    std::filesystem::create_directories(obs_dump_dir);
    std::ofstream prom(obs_dump_dir + "/metrics.prom");
    prom << smash::obs::render_prometheus(metrics);
    std::ofstream json(obs_dump_dir + "/metrics.json");
    json << smash::obs::render_json(metrics) << "\n";
  }

  if (!report.write(out_path)) return 1;
  std::printf("wrote %s (%llu snapshots published under load, %llu laps)\n",
              out_path.c_str(),
              static_cast<unsigned long long>(engine.snapshots_published()),
              static_cast<unsigned long long>(laps.load()));
  return 0;
}
