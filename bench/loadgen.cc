// Open-loop load generator for the verdict server (docs/SERVING.md): a
// VerdictServer fronts a StreamEngine that keeps ingesting, mining and
// publishing a looping day-scale scenario underneath while staged offered
// load — static, linear ramp, oscillating/diurnal sinusoid (modeled on
// heyp-agents' oscillating workload stages), and a deliberate overload
// burst — is fired at it over real TCP.
//
// Open-loop means requests are sent on a schedule derived from the offered
// rate, never gated on responses: when the sender falls behind it bursts to
// catch up, and every latency is measured from the request's *scheduled*
// send time, so server-side queueing shows up as latency instead of being
// coordinated away (no coordinated omission). Per stage the bench reports
// offered vs achieved QPS, p50/p99/p999 latency, and the explicit
// outcome counts (ok / stale / rejected / partial batches).
//
// Usage: loadgen [BENCH_serve.json] [--smoke] [--stages a,b,...]
//                [--obs-dump <dir>]
//   --smoke: seconds-long stages for CI (same code paths, small rates).
//   --stages: comma-separated subset of static,ramp,oscillating,overload,
//             stale_probe (default: all, in that order).
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

constexpr double kPi = 3.14159265358979323846;

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
  double qps_begin = 0.0;
  double qps_end = 0.0;  // == qps_begin for static
  enum class Shape { kStatic, kRamp, kOscillating } shape = Shape::kStatic;
  double cycles = 4.0;  // oscillating only
  // Overload: the receiver drains far slower than the offered rate while
  // requests are still being sent, so responses pile up against the
  // connection's pending bound and the shedding path (kRejected) engages.
  // The receiver never stops entirely — its slow progress keeps the
  // socket-buffer chain from wedging the blocking sender. The client's
  // receive buffer is pinned small (kSlowConsumerRcvbufBytes) so the
  // backlog queues on the server, not in a loopback buffer that the
  // kernel would otherwise autotune up to tcp_rmem's maximum (MiBs).
  bool slow_consumer = false;
};

// Offered rate at stage-relative time t.
double rate_at(const StageSpec& stage, double t) {
  const double f = stage.duration_s > 0.0 ? t / stage.duration_s : 0.0;
  switch (stage.shape) {
    case StageSpec::Shape::kStatic:
      return stage.qps_begin;
    case StageSpec::Shape::kRamp:
      return stage.qps_begin + (stage.qps_end - stage.qps_begin) * f;
    case StageSpec::Shape::kOscillating: {
      // heyp-agents GenWorkloadStagesOscillating: min + half-range lifted
      // by a sinusoid over `cycles` full periods.
      const double half = (stage.qps_end - stage.qps_begin) / 2.0;
      return stage.qps_begin + half +
             half * std::sin(f * stage.cycles * 2.0 * kPi);
    }
  }
  return stage.qps_begin;
}

struct StageResult {
  std::uint64_t sent = 0, received = 0;
  std::uint64_t ok = 0, stale = 0, rejected = 0;
  double duration_ms = 0.0;
  // Requests scheduled per second of scheduled time: the time-weighted
  // mean of the stage's rate curve. (A per-request mean of the rate would
  // over-weight the high-rate part of a ramp, where more requests fall.)
  double offered_qps = 0.0;
  std::vector<double> latency_us;  // per response, from scheduled send

  double percentile(double q) const {
    if (latency_us.empty()) return 0.0;
    std::vector<double> sorted = latency_us;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(q * sorted.size());
    return sorted[std::min(idx, sorted.size() - 1)];
  }
};

// SO_RCVBUF of a slow-consumer stage's client socket. Setting it also
// switches off receive-buffer autotuning for that socket.
constexpr int kSlowConsumerRcvbufBytes = 4096;

// Runs one stage over a fresh connection. Sender and receiver share the
// socket: the sender paces scheduled sends (bursting when behind), the
// receiver matches responses back to scheduled send times by request_id.
StageResult run_stage(const StageSpec& stage, std::uint16_t port,
                      const std::vector<std::string>& hosts) {
  smash::serve::BlockingClient client("127.0.0.1", port);
  if (stage.slow_consumer) {
    ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &kSlowConsumerRcvbufBytes,
                 sizeof(kSlowConsumerRcvbufBytes));
  }
  StageResult result;

  // Upper bound on requests (peak rate * duration, plus slack) so the
  // schedule array is indexable by request_id without locking.
  const double peak = std::max(stage.qps_begin, stage.qps_end);
  const auto capacity =
      static_cast<std::size_t>(peak * stage.duration_s * 1.1) + 16;
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
  double virt_s = 0.0;
  std::uint64_t id = 0;
  std::size_t host_i = 0;
  while (virt_s < stage.duration_s && id < capacity) {
    const double rate = std::max(1.0, rate_at(stage, virt_s));
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(virt_s));
    // Behind schedule? No sleep — send immediately (burst catch-up).
    std::this_thread::sleep_until(deadline);
    scheduled[id] = deadline;
    smash::serve::RequestFrame request;
    request.type = smash::serve::FrameType::kLookup;
    request.request_id = id;
    smash::serve::LookupKey key;
    key.host = hosts[host_i++ % hosts.size()];
    request.lookups.push_back(key);
    client.send(request);
    sent.store(++id, std::memory_order_release);
    virt_s += 1.0 / rate;
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  result.sent = id;
  result.duration_ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - start)
                           .count();
  result.offered_qps = virt_s > 0.0 ? static_cast<double>(id) / virt_s : 0.0;
  return result;
}

std::uint64_t counter_of(const smash::obs::MetricsSnapshot& snapshot,
                         std::string_view name) {
  const auto* c = snapshot.counter(name);
  return c ? c->value : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  std::string obs_dump_dir;
  std::string stage_filter;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--stages") == 0 && i + 1 < argc) {
      stage_filter = argv[++i];
    } else if (std::strcmp(argv[i], "--obs-dump") == 0 && i + 1 < argc) {
      obs_dump_dir = argv[++i];
    } else {
      out_path = argv[i];
    }
  }
  const auto wants = [&](const std::string& name) {
    if (stage_filter.empty()) return true;
    // Substring match over the comma-separated list is unambiguous here:
    // no stage name contains another.
    return stage_filter.find(name) != std::string::npos;
  };

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

  const double scale = smoke ? 1.0 : 4.0;
  std::vector<StageSpec> stages;
  stages.push_back({"static", smoke ? 3.0 : 10.0, 2000.0 * scale,
                    2000.0 * scale, StageSpec::Shape::kStatic});
  stages.push_back({"ramp", smoke ? 3.0 : 15.0, 500.0 * scale, 4000.0 * scale,
                    StageSpec::Shape::kRamp});
  stages.push_back({"oscillating", smoke ? 4.0 : 30.0, 500.0 * scale,
                    4000.0 * scale, StageSpec::Shape::kOscillating,
                    smoke ? 2.0 : 4.0});
  // Offered load far past what the slow consumer drains: the shedding path
  // must answer with explicit kRejected frames, never queue without bound.
  // Deliberately NOT scaled up in full mode — the point is crossing the
  // pending-bytes bound, not moving more bytes.
  {
    StageSpec overload{"overload", smoke ? 1.0 : 2.0, 20000.0, 20000.0,
                       StageSpec::Shape::kStatic};
    overload.slow_consumer = true;
    stages.push_back(overload);
  }

  smash::bench::JsonReporter report("serve");
  // The overload stage exists to drive the shedding path: it must see
  // kRejected answers itself (the stale probe's kStale answers are a
  // separate check and do not count).
  bool overload_shed = false;
  for (const auto& stage : stages) {
    if (!wants(stage.name)) continue;
    const StageResult r = run_stage(stage, server.port(), hosts);
    if (r.received < r.sent) {
      std::fprintf(stderr, "loadgen: stage %s lost %llu responses\n",
                   stage.name.c_str(),
                   static_cast<unsigned long long>(r.sent - r.received));
      return 1;
    }
    if (stage.slow_consumer) overload_shed = r.rejected > 0;
    const double achieved =
        r.duration_ms > 0.0
            ? static_cast<double>(r.received) / (r.duration_ms / 1e3)
            : 0.0;
    report.add("serve/" + stage.name, r.duration_ms,
               {{"offered_qps", r.offered_qps},
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
        "%-12s offered %7.0f qps  achieved %7.0f qps  p50 %8.1f us  "
        "p99 %9.1f us  p999 %9.1f us  (%llu ok, %llu stale, %llu rejected)\n",
        stage.name.c_str(), r.offered_qps, achieved, r.percentile(0.50),
        r.percentile(0.99), r.percentile(0.999),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.stale),
        static_cast<unsigned long long>(r.rejected));
  }

  // Staleness probe: stop the feeder, outwait the SLO, and every answer
  // must flip to kStale — mining that has fallen behind is visible, never
  // silently served as fresh.
  if (wants("stale_probe")) {
    stop_feeder.store(true);
    feeder.join();
    engine.finish();
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(serve_config.stale_after_ms) + 200));
    StageSpec probe{"stale_probe", 0.5, 400.0, 400.0,
                    StageSpec::Shape::kStatic};
    const StageResult r = run_stage(probe, server.port(), hosts);
    if (r.stale != r.received) {
      std::fprintf(stderr,
                   "loadgen: stalled mining must answer kStale (%llu of %llu)\n",
                   static_cast<unsigned long long>(r.stale),
                   static_cast<unsigned long long>(r.received));
      return 1;
    }
    report.add("serve/stale_probe", r.duration_ms,
               {{"offered_qps", r.offered_qps},
                {"sent", static_cast<double>(r.sent)},
                {"received", static_cast<double>(r.received)},
                {"ok", static_cast<double>(r.ok)},
                {"stale", static_cast<double>(r.stale)},
                {"rejected", static_cast<double>(r.rejected)},
                {"p50_us", r.percentile(0.50)},
                {"p99_us", r.percentile(0.99)},
                {"p999_us", r.percentile(0.999)}});
    std::printf("stale_probe  %llu/%llu answers kStale after the SLO\n",
                static_cast<unsigned long long>(r.stale),
                static_cast<unsigned long long>(r.received));
  } else {
    stop_feeder.store(true);
    feeder.join();
    engine.finish();
  }

  if (wants("overload") && !overload_shed) {
    std::fprintf(stderr,
                 "loadgen: the overload stage answered no request kRejected — "
                 "the shedding path was not exercised\n");
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
