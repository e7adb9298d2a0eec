// serve_mixed: a VerdictServer in front of an async-mining StreamEngine runs
// in a child process; the engine is fed the rewritten stream scenario at a
// fixed multiple of real time, so snapshots publish on a steady cadence
// while lookups are served. This process is the load generator (two
// connections). It drives three children in turn, all on the one pinned
// CPU: an open-loop steady phase (one sender thread, one receiver thread),
// then closed-loop capacity rounds; the last child then takes a stepped
// rate sweep. Latency is timed from each request's scheduled send time;
// the receiver waits on socket readiness.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <variant>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "scenario.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "stream/engine.h"
#include "stream/verdict.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = smash::serve;

constexpr std::uint32_t kScenarioDays = 3;
constexpr double kEpochWallMs = 250.0;  // one scenario hour per 250 ms
// Each child ingests the first 30 scenario hours unpaced, so it serves
// while campaigns 0-2 are active and its windows are full.
constexpr std::uint64_t kFastForwardS = 30 * 3600;
// detect_f1 scores the publications whose window ends before this hour,
// against the campaigns active for at least six hours by then.
constexpr std::uint64_t kScoredEpochs = 33;
constexpr int kChildren = 3;
// One frame in ten looks up a never-seen host; the rest are the scenario's
// own frames (see LookupMix).
constexpr std::uint64_t kUnseenEvery = 10;
constexpr double kSteadyKqps = 24.0;  // lookups/s, thousands
// The sweep: from 60k lookups/s up by 15% a step. A step breaks the limit
// when its p99 is over kP99LimitUs, it achieves under 95% of its offered
// load, or any answer is rejected, stale or cut short. The step's p99 is the
// median over its 0.2 s windows of each window's p99: a stall of the shared
// box sets one window's, a queue that grows past capacity sets most. The
// sweep ends after two breaking steps in a row.
constexpr double kSweepStartKqps = 60.0;
constexpr double kSweepFactor = 1.15;
constexpr int kSweepMaxSteps = 24;
constexpr int kSweepBreaksToStop = 2;
constexpr double kP99LimitUs = 25000.0;
// Capacity: each child also serves a closed loop in rounds of
// kCapacityWindow frames for `seconds / 6`. One pool of kCapacityPoolLookups
// lookups is sent again and again with the same ids (a repetition starts
// once the last one is all answered). Every repetition is counted; every
// kCapacityCheckEvery-th is kept for the verdict check. Lookups answered
// over the time the repetitions took, pooled over the children, is the
// throughput figure. It is a pooled rate because a repetition's rate flips
// between ~1.1M and ~2M lookups/s in stretches of a few tenths of a second
// with the shared host's load, and a median would pick one level. The
// sweep's answer moves in whole 15% steps and ends early when two steps in
// a row meet a stall of the host, so it is only printed beside it.
constexpr std::size_t kCapacityWindow = 256;
constexpr double kCapacityPoolLookups = 20'000;
constexpr int kCapacityCheckEvery = 32;

// --- child: the system under test ------------------------------------------

struct ChildArgs {
  std::uint64_t seed = 1;
  bool smoke = false;
  bool trace = false;
  std::string result_path;
};

// Answers the mix's keys would get from `snapshot`: indices of the keys
// expected malicious.
std::vector<std::uint32_t> expected_malicious(const smash::stream::DetectionSnapshot& snapshot,
                                              const std::vector<LookupKey>& keys) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    if (snapshot.find_host(keys[k].host) != nullptr ||
        (!keys[k].ip.empty() && snapshot.find_ip(keys[k].ip) != nullptr)) {
      out.push_back(k);
    }
  }
  return out;
}

// Gives the calling thread, and the threads and child processes it starts,
// a 100 us scheduler slice (sched_setattr's runtime for SCHED_OTHER). The
// generator's sender and receiver and the server's loop share the one pinned
// CPU; with the default slice each could hold it for milliseconds before a
// woken peer ran, which set every step's p99 to milliseconds.
void use_short_slices() {
  struct {
    std::uint32_t size, policy;
    std::uint64_t flags;
    std::int32_t nice;
    std::uint32_t priority;
    std::uint64_t runtime, deadline, period;
  } attr{};
  attr.size = sizeof attr;
  attr.policy = SCHED_OTHER;
  attr.runtime = 100'000;  // ns
  ::syscall(SYS_sched_setattr, 0, &attr, 0);
}

// Moves thread `tid` to SCHED_IDLE: it runs only when the serving threads
// (and the load generator) leave the CPU idle, and they preempt it at once.
// At nice 10 on the one pinned CPU, the miner held it for whole slices and
// set the p99 of every rate to 5-9 ms.
void run_in_background(pid_t tid) {
  const sched_param param{};
  ::sched_setscheduler(tid, SCHED_IDLE, &param);
}

// Thread ids of this process.
std::set<pid_t> thread_ids() {
  std::set<pid_t> out;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    out.insert(static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  return out;
}

int run_child(const ChildArgs& args) {
  const auto scenario = make_stream_scenario(args.seed, args.smoke ? 1 : kScenarioDays, args.smoke);
  const auto mix = make_lookup_mix(scenario);
  const auto& keys = mix.keys;
  auto registry = std::make_shared<smash::obs::Registry>();

  smash::stream::StreamConfig config;
  config.epoch_seconds = 3600;
  config.window_epochs = 24;
  config.async_mining = true;
  config.smash.idf_threshold = 200;
  config.metrics = registry;
  // Serving has priority over mining on the shared CPU: the engine's
  // threads (its miner starts with it) and the feeder run in the
  // background, the server's loop in the foreground. Answer age shows what
  // the miner loses to serving.
  const auto tasks_before = thread_ids();
  smash::stream::StreamEngine engine(config, scenario.whois);
  for (const auto tid : thread_ids()) {
    if (!tasks_before.count(tid)) run_in_background(tid);
  }
  serve::ServeConfig serve_config;
  serve_config.metrics = registry;
  serve::VerdictServer server(engine.slot(), serve_config);

  // Feeder: paces the scenario (in laps) and records, for every snapshot
  // it sees published, which of the mix's keys that snapshot answers malicious.
  // Only the feeder writes these; the main thread reads them after join().
  std::map<std::uint64_t, std::vector<std::uint32_t>> expected;  // by sequence
  std::set<std::string> flagged_scored;
  std::uint64_t last_epoch = 0;
  std::atomic<bool> stop{false}, ready{false};
  std::thread feeder([&] {
    run_in_background(::gettid());
    Clock::time_point start{};  // wall time of scenario hour 0 once paced
    bool paced = false;
    std::uint64_t seen = 0;
    const auto observe = [&] {
      if (engine.snapshots_published() == seen) return;
      seen = engine.snapshots_published();
      const auto snapshot = engine.snapshot();
      expected[snapshot->sequence()] = expected_malicious(*snapshot, keys);
      last_epoch = std::max(last_epoch, snapshot->last_epoch());
      if (snapshot->last_epoch() < kScoredEpochs) {
        for (const auto& c : snapshot->campaigns()) {
          flagged_scored.insert(c.servers.begin(), c.servers.end());
        }
      }
    };
    for (std::uint64_t lap = 0; !stop; ++lap) {
      for (const auto& event : scenario.events) {
        if (stop) break;
        const std::uint64_t time_s = smash::synth::event_time(event) + lap * scenario.duration_s;
        const auto wall_ms = [](std::uint64_t scenario_s) {
          return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(
              static_cast<double>(scenario_s) / 3600.0 * kEpochWallMs));
        };
        if (!paced && time_s >= kFastForwardS) {
          engine.wait_for_mining();  // the fast-forward's last window is out
          observe();
          paced = true;
          start = Clock::now() - wall_ms(kFastForwardS);
          ready = true;
        }
        const auto due = start + wall_ms(time_s);
        while (paced && Clock::now() < due && !stop) {
          observe();
          std::this_thread::sleep_until(std::min(due, Clock::now() + std::chrono::milliseconds(5)));
        }
        std::visit(
            [&](auto e) {
              e.time_s = time_s;
              engine.ingest(e);
            },
            event);
        observe();
      }
    }
    observe();
  });

  while (!ready) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::printf("READY %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  char buf[256];
  while (::read(STDIN_FILENO, buf, sizeof buf) > 0) {
  }
  stop = true;
  feeder.join();
  server.stop();
  engine.wait_for_mining();

  std::ofstream out(args.result_path);
  out.precision(17);
  out << "rss_mib " << peak_rss_mib() << "\n";
  std::set<std::string> truth;
  for (const auto& c : scenario.campaigns) {
    if (c.start_s + 6 * 3600 <= kScoredEpochs * 3600) {
      truth.insert(c.servers.begin(), c.servers.end());
    }
  }
  Quality q;
  q.flagged = flagged_scored.size();
  q.truth = truth.size();
  for (const auto& s : flagged_scored) q.true_positives += truth.count(s);
  out << "f1 " << q.f1() << "\n";
  out << "last_epoch " << last_epoch << "\n";
  if (args.trace) {
    // VerdictService::lookup in-process over the traffic's mix, on the last
    // snapshot: every scenario frame, and one never-seen host after each
    // kUnseenEvery - 1 of them.
    smash::stream::VerdictService service(engine.slot());
    std::uint64_t hits = 0, lookups = 0;
    const auto lookup = [&](std::uint32_t k) {
      hits += service.lookup_request(keys[k].host, keys[k].ip).malicious;
      ++lookups;
    };
    const std::size_t unseen_frames = mix.frames.size() - mix.scenario_frames;
    const auto t = Clock::now();
    for (std::size_t f = 0; f < mix.scenario_frames; ++f) {
      for (const auto k : mix.frames[f]) lookup(k);
      if (f % (kUnseenEvery - 1) == kUnseenEvery - 2) {
        lookup(mix.frames[mix.scenario_frames + f % unseen_frames][0]);
      }
    }
    out << "verdict_lookup_ns "
        << std::chrono::duration<double, std::nano>(Clock::now() - t).count() / lookups << "\n";
    out << "verdict_hit_share " << static_cast<double>(hits) / lookups << "\n";
  }
  const auto m = registry->snapshot();
  for (const auto& c : m.counters) out << "counter " << c.name << " " << c.value << "\n";
  for (const auto& h : m.histograms) {
    out << "hist " << h.name << " " << h.count << " " << h.sum << "\n";
  }
  for (const auto& [seq, malicious] : expected) {
    out << "snap " << seq;
    for (auto k : malicious) out << " " << k;
    out << "\n";
  }
  std::ofstream(args.result_path + ".registry.json") << registry->render_json();
  return out.good() ? 0 : 1;
}

// --- parent: the load generator ---------------------------------------------

struct Request {
  double offset_s = 0.0;
  std::uint32_t frame = 0;  // index into LookupMix::frames
  std::uint8_t lookups = 0;
  std::string bytes;        // encoded frame
};

// What came back for one request. Answer j's verdict is bit j of
// `malicious` (frames hold at most LookupMix::kMaxFrameLookups lookups).
struct Outcome {
  std::int64_t arrival_ns = -1;
  std::int64_t sent_ns = -1;
  std::uint64_t sequence = 0;
  std::uint32_t age_ms = 0;
  std::uint32_t malicious = 0;
  std::uint16_t answers = 0;
  std::uint8_t responses = 0;
  serve::FrameStatus status = serve::FrameStatus::kOk;
};

struct Phase {
  std::string name;
  std::uint64_t first_id = 0;
  RateStage stage;  // lookups/s
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;
  double planned_lookups = 0.0;
  std::int64_t start_ns = 0;  // when the schedule's clock started
  bool sweep = false;         // a sweep step: shed answers only end the sweep
  std::size_t window = 0;     // > 0: closed loop, rounds of this many frames
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// Plans a phase: the schedule (in frames, from the lookup rate) and the
// frames, drawn from the mix with `rng`.
Phase plan_phase(const std::string& name, RateStage stage, const LookupMix& mix,
                 smash::util::Rng& rng, std::uint64_t& next_id) {
  double scenario_lookups = 0.0;
  for (std::size_t f = 0; f < mix.scenario_frames; ++f) {
    scenario_lookups += static_cast<double>(mix.frames[f].size());
  }
  const double lookups_per_frame =
      (scenario_lookups / static_cast<double>(mix.scenario_frames) * (kUnseenEvery - 1) + 1.0) /
      kUnseenEvery;
  Phase phase;
  phase.name = name;
  phase.first_id = next_id;
  phase.stage = stage;
  RateStage frames = stage;
  frames.rate_begin /= lookups_per_frame;
  frames.rate_end /= lookups_per_frame;
  for (double offset : schedule_offsets(frames)) {
    Request request;
    request.offset_s = offset;
    request.frame = static_cast<std::uint32_t>(
        rng.uniform(kUnseenEvery) == 0
            ? mix.scenario_frames + rng.uniform(mix.frames.size() - mix.scenario_frames)
            : rng.uniform(mix.scenario_frames));
    const auto& keys = mix.frames[request.frame];
    request.lookups = static_cast<std::uint8_t>(keys.size());
    serve::RequestFrame frame;
    frame.request_id = next_id++;
    frame.type = keys.size() > 1 ? serve::FrameType::kBatch : serve::FrameType::kLookup;
    for (const auto k : keys) frame.lookups.push_back({mix.keys[k].host, mix.keys[k].ip});
    serve::encode_request(request.bytes, frame);
    phase.planned_lookups += static_cast<double>(keys.size());
    phase.requests.push_back(std::move(request));
  }
  phase.outcomes.resize(phase.requests.size());
  return phase;
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const auto n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    done += static_cast<std::size_t>(n);
  }
}

// Reads the responses of one phase from both connections and records each
// request's first answer in phase.outcomes.
class Receiver {
 public:
  Receiver(Phase& phase, const int fds[2]) : phase_(phase), fds_{fds[0], fds[1]} {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (int c = 0; c < 2; ++c) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(c);
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, fds_[c], &ev);
    }
  }
  ~Receiver() { ::close(ep_); }
  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  // Waits up to `timeout_ms` for responses and records what arrived.
  void poll(int timeout_ms) {
    epoll_event events[2];
    const int n = ::epoll_wait(ep_, events, 2, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const int c = static_cast<int>(events[e].data.u32);
      const auto got = ::recv(fds_[c], buf_, sizeof buf_, MSG_DONTWAIT);
      if (got <= 0) continue;
      const auto arrival = now_ns();
      decoders_[c].feed(std::string_view(buf_, static_cast<std::size_t>(got)));
      while (decoders_[c].next(payload_)) record(arrival);
    }
  }

  std::atomic<std::size_t> received{0};  // requests with an answer

 private:
  void record(std::int64_t arrival) {
    const auto response = serve::decode_response(payload_);
    const std::uint64_t first_id = phase_.first_id;
    if (!response || response->request_id < first_id ||
        response->request_id >= first_id + phase_.requests.size()) {
      return;
    }
    auto& out = phase_.outcomes[response->request_id - first_id];
    if (out.responses < UINT8_MAX && out.responses++ == 0) {
      out.arrival_ns = arrival;
      out.status = response->status;
      out.sequence = response->snapshot_sequence;
      out.age_ms = response->snapshot_age_ms;
      out.answers = static_cast<std::uint16_t>(
          std::min<std::size_t>(response->answers.size(), UINT16_MAX));
      for (std::size_t j = 0; j < response->answers.size() && j < 32; ++j) {
        if (response->answers[j].malicious) out.malicious |= 1u << j;
      }
      ++received;
    }
  }

  Phase& phase_;
  int fds_[2];
  int ep_ = -1;
  serve::FrameDecoder decoders_[2];
  std::string payload_;
  char buf_[65536];
};

// Runs one phase and returns once every response is in or the drain
// deadline passes. On schedule, a sender thread sends while a receiver
// thread blocks in epoll_wait. A closed loop (phase.window set) runs in
// rounds on this thread: `window` frames in one write on the first
// connection, then every answer, then the next round. The server reads a
// round whole; frames sent one by one were split into batches by where the
// scheduler switched threads on the one CPU, and capacity moved by 40%.
void run_phase(Phase& phase, const int fds[2], SpanTracer* send_spans) {
  const std::size_t total = phase.requests.size();
  const auto begin = Clock::now();
  phase.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       begin.time_since_epoch()).count();
  const double deadline_s = phase.stage.duration_s + 3.0;
  Receiver receiver(phase, fds);
  const auto send = [&](std::size_t i) {
    int span = -1;
    if (send_spans != nullptr) span = send_spans->open("gen.send");
    phase.outcomes[i].sent_ns = now_ns();
    write_all(fds[i % 2], phase.requests[i].bytes);
    if (span >= 0) send_spans->close(span);
  };

  if (phase.window > 0) {
    std::string round;
    for (std::size_t next = 0; next < total && seconds_since(begin) < deadline_s;) {
      const std::size_t end = std::min(total, next + phase.window);
      round.clear();
      const auto sent_ns = now_ns();
      for (std::size_t i = next; i < end; ++i) {
        round += phase.requests[i].bytes;
        phase.outcomes[i].sent_ns = sent_ns;
      }
      write_all(fds[0], round);
      while (receiver.received < end && seconds_since(begin) < deadline_s) receiver.poll(100);
      next = end;
    }
    return;
  }

  std::thread receiving([&] {
    while (receiver.received < total && seconds_since(begin) < deadline_s) receiver.poll(100);
  });
  std::thread sender([&] {
    // Timer wake-ups default to 50 us of slack; the sender wants its due times.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t i = 0; i < total; ++i) {
      const auto due = begin + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(phase.requests[i].offset_s));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      send(i);
    }
  });
  sender.join();
  receiving.join();
}

struct PhaseStats {
  std::vector<double> latency_us, lateness_us, age_ms;
  std::vector<double> window_p75_us;  // p75 of each 0.5 s of the schedule
  std::vector<double> window_p99_us;  // p99 of each 0.2 s of the schedule
  double offered_kqps = 0.0, achieved_kqps = 0.0;
  double answered_lookups = 0.0, span_s = 0.0;  // complete kOk answers, last one's arrival
  std::size_t lost = 0;  // no answer, or more than one
  std::size_t shed = 0;  // rejected, stale or cut short
  // Failed operations: outside the sweep a shed answer is one too.
  std::size_t failed(bool sweep) const { return lost + (sweep ? 0 : shed); }
};

// Latency from scheduled send (closed loop: from the send), over the
// complete kOk answers; offered load is time-weighted (planned lookups /
// phase duration). A closed loop's achieved rate is over its own span.
PhaseStats phase_stats(const Phase& phase) {
  const std::int64_t phase_start_ns = phase.start_ns;
  PhaseStats s;
  std::int64_t last_arrival = phase_start_ns;
  double lookups = 0.0;
  std::vector<std::vector<double>> windows, short_windows;
  const auto add_to = [](std::vector<std::vector<double>>& into, std::size_t w, double v) {
    if (into.size() <= w) into.resize(w + 1);
    into[w].push_back(v);
  };
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    const auto& req = phase.requests[i];
    const auto& out = phase.outcomes[i];
    const auto due_ns = phase.window > 0
                            ? out.sent_ns
                            : phase_start_ns + static_cast<std::int64_t>(req.offset_s * 1e9);
    s.lateness_us.push_back(static_cast<double>(out.sent_ns - due_ns) / 1e3);
    if (out.responses != 1) {
      ++s.lost;
      continue;
    }
    if (out.status != serve::FrameStatus::kOk || out.answers != req.lookups) {
      ++s.shed;
      continue;
    }
    s.latency_us.push_back(static_cast<double>(out.arrival_ns - due_ns) / 1e3);
    add_to(windows, static_cast<std::size_t>(req.offset_s / 0.5), s.latency_us.back());
    add_to(short_windows, static_cast<std::size_t>(req.offset_s / 0.2), s.latency_us.back());
    s.age_ms.push_back(out.age_ms);
    last_arrival = std::max(last_arrival, out.arrival_ns);
    lookups += static_cast<double>(req.lookups);
  }
  for (const auto& w : windows) {
    if (!w.empty()) s.window_p75_us.push_back(percentile(w, 75.0));
  }
  for (const auto& w : short_windows) {
    if (!w.empty()) s.window_p99_us.push_back(percentile(w, 99.0));
  }
  s.offered_kqps = time_weighted_offered(phase.planned_lookups, {phase.stage}) / 1e3;
  s.answered_lookups = lookups;
  s.span_s = static_cast<double>(last_arrival - phase_start_ns) / 1e9;
  const double over_s = phase.window > 0 ? s.span_s : std::max(s.span_s, phase.stage.duration_s);
  s.achieved_kqps = s.span_s > 0.0 ? lookups / over_s / 1e3 : 0.0;
  return s;
}

struct Child {
  pid_t pid = -1;
  int in_fd = -1;
  std::uint16_t port = 0;
};

Child spawn_child(const char* self_exe, const Options& options, const std::string& result_path) {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const std::string seed = std::to_string(options.seed);
  std::vector<std::string> args = {self_exe, "serve-child", "--seed", seed, "--result", result_path,
                                   "--trace", options.trace ? "1" : "0"};
  if (options.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(in[0], STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(self_exe, argv.data());
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  Child child;
  child.pid = pid;
  child.in_fd = in[1];
  std::string line;
  pollfd p{out[0], POLLIN, 0};
  const auto begin = Clock::now();
  while (line.find('\n') == std::string::npos && seconds_since(begin) < 60.0) {
    if (::poll(&p, 1, 1000) <= 0) continue;
    char buf[64];
    const auto n = ::read(out[0], buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "READY %u", &port) != 1) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw std::runtime_error("serve child did not start");
  }
  child.port = static_cast<std::uint16_t>(port);
  return child;
}

// Closes the child's stdin (its stop signal) and waits for it to exit.
bool stop_child(Child& child) {
  ::close(child.in_fd);
  int status = 0;
  const auto begin = Clock::now();
  while (::waitpid(child.pid, &status, WNOHANG) == 0) {
    if (seconds_since(begin) > 30.0) {
      ::kill(child.pid, SIGKILL);
      ::waitpid(child.pid, &status, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct ChildResult {
  std::map<std::string, double> values;
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  // count, sum
  std::map<std::uint64_t, std::set<std::uint32_t>> expected;
};

ChildResult read_child_result(const std::string& path) {
  ChildResult r;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "counter") {
      std::string name;
      double v = 0;
      fields >> name >> v;
      r.counters[name] = v;
    } else if (tag == "hist") {
      std::string name;
      double count = 0, sum = 0;
      fields >> name >> count >> sum;
      r.histograms[name] = {count, sum};
    } else if (tag == "snap") {
      std::uint64_t seq = 0;
      fields >> seq;
      auto& set = r.expected[seq];
      std::uint32_t k;
      while (fields >> k) set.insert(k);
    } else {
      double v = 0;
      fields >> v;
      r.values[tag] = v;
    }
  }
  return r;
}

// Per-layer frame codec cost (server side: request decode, response
// encode), ns per frame.
void measure_frames(Report& report, const Phase& phase) {
  for (const bool batch : {false, true}) {
    std::vector<const Request*> sample;
    for (const auto& r : phase.requests) {
      if ((r.lookups > 1) == batch) sample.push_back(&r);
    }
    if (sample.empty()) continue;
    const std::string kind = batch ? "batch" : "single";
    std::vector<std::string> payloads;
    for (const auto* r : sample) payloads.push_back(r->bytes.substr(4));
    std::vector<serve::ResponseFrame> responses;
    const int reps = 20;
    auto t = Clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      for (const auto& p : payloads) {
        auto frame = serve::decode_request(p);
        if (rep == 0 && frame) {
          serve::ResponseFrame response;
          response.type = frame->type;
          response.request_id = frame->request_id;
          response.answers.resize(frame->lookups.size());
          responses.push_back(std::move(response));
        }
      }
    }
    const double frames = static_cast<double>(payloads.size()) * reps;
    report.add_layer("frame.decode_" + kind + "_ns",
                     std::chrono::duration<double, std::nano>(Clock::now() - t).count() / frames,
                     "ns");
    std::string out;
    t = Clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      for (const auto& r : responses) {
        out.clear();
        serve::encode_response(out, r);
      }
    }
    report.add_layer("frame.encode_" + kind + "_ns",
                     std::chrono::duration<double, std::nano>(Clock::now() - t).count() /
                         (static_cast<double>(responses.size()) * reps),
                     "ns");
  }
}

// One child's share of a run, checked against that child's own record of
// its publications.
struct ChildRun {
  std::vector<Phase> phases;
  std::vector<PhaseStats> stats;
  ChildResult result;
};

// Appends `from`'s samples to `into`.
void pool(PhaseStats& into, const PhaseStats& from) {
  into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(), from.latency_us.end());
  into.lateness_us.insert(into.lateness_us.end(), from.lateness_us.begin(),
                          from.lateness_us.end());
  into.age_ms.insert(into.age_ms.end(), from.age_ms.begin(), from.age_ms.end());
  into.window_p75_us.insert(into.window_p75_us.end(), from.window_p75_us.begin(),
                            from.window_p75_us.end());
}

// Correctness of every answer against the snapshot it came from: campaign
// keys must match that publication, benign and never-seen keys must never
// come back malicious. Returns the number of wrong responses.
std::size_t wrong_answers(const ChildRun& run, const LookupMix& mix, bool inject_fault,
                          std::size_t& answered) {
  const auto expected_at = [&](std::uint64_t seq, std::uint32_t key, bool next) -> int {
    auto it = run.result.expected.find(seq);
    if (it == run.result.expected.end()) return -1;
    if (next && ++it == run.result.expected.end()) return -1;
    return it->second.count(key) ? 1 : 0;
  };
  std::size_t wrong = 0;
  for (const auto& phase : run.phases) {
    for (std::size_t i = 0; i < phase.requests.size(); ++i) {
      const auto& out = phase.outcomes[i];
      // A shed frame's answers (stale, or a batch cut short) are still
      // checked; a rejected one has none.
      if (out.responses != 1 || out.answers == 0) continue;
      ++answered;
      const auto& keys = mix.frames[phase.requests[i].frame];
      bool ok = out.answers <= keys.size();
      for (std::size_t j = 0; ok && j < out.answers; ++j) {
        const auto key = keys[j];
        const auto kind = mix.keys[key].kind;
        const bool got = ((out.malicious >> j) & 1u) != 0 ||
                         (inject_fault && kind == LookupKey::Kind::kBenign);
        if (kind != LookupKey::Kind::kCampaign && got) ok = false;
        // An unrecorded publication cannot be checked and counts as wrong;
        // lookups after the first of a batch may see the next publication.
        const int now = expected_at(out.sequence, key, false);
        const int next = j > 0 ? expected_at(out.sequence, key, true) : -1;
        if (now < 0 || (got != (now == 1) && !(next >= 0 && got == (next == 1)))) ok = false;
      }
      if (!ok) ++wrong;
    }
  }
  return wrong;
}

}  // namespace

int serve_child_main(int argc, char** argv) {
  ChildArgs args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed" && i + 1 < argc) args.seed = std::stoull(argv[++i]);
    else if (a == "--result" && i + 1 < argc) args.result_path = argv[++i];
    else if (a == "--trace" && i + 1 < argc) args.trace = std::string(argv[++i]) == "1";
    else if (a == "--smoke") args.smoke = true;
  }
  if (args.result_path.empty()) return 2;
  ::signal(SIGPIPE, SIG_IGN);
  return run_child(args);
}

Report run_serve_mixed(const Options& options, const char* self_exe) {
  ::signal(SIGPIPE, SIG_IGN);
  use_short_slices();
  Report report;
  fs::create_directories(options.work_dir);
  const std::string result_path =
      (fs::path(options.work_dir) / ("serve-" + std::to_string(::getpid()) + ".txt")).string();

  // Inputs: the lookup mix and the steady phases' schedules. Three children
  // serve in turn, each a warm-up, a third of the steady phase and a
  // closed-loop capacity part; the last one also runs the sweep (traced: a
  // traced steady part instead of capacity and sweep). The shared host's
  // speed drifts within seconds, so the figures pool the three children's
  // steady parts and capacity repetitions rather than resting on one moment.
  auto t = Clock::now();
  const auto scenario = make_stream_scenario(options.seed, options.smoke ? 1 : kScenarioDays,
                                             options.smoke);
  const auto mix = make_lookup_mix(scenario);
  smash::util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 11);
  std::uint64_t next_id = 1;
  const RateStage warmup{0.5, kSteadyKqps * 1e3, kSteadyKqps * 1e3};
  const RateStage steady{std::max(0.5, options.seconds * 0.5 / kChildren), kSteadyKqps * 1e3,
                         kSteadyKqps * 1e3};
  std::vector<ChildRun> runs(kChildren);
  for (auto& run : runs) {
    run.phases.push_back(plan_phase("warmup", warmup, mix, rng, next_id));
    run.phases.push_back(plan_phase("steady", steady, mix, rng, next_id));
  }
  if (options.trace) {
    runs.back().phases.push_back(plan_phase("steady_traced", steady, mix, rng, next_id));
  }
  const double input_s = seconds_since(t);

  SpanTracer send_spans(true);
  std::vector<double> start_s;
  double max_kqps = 0.0;
  double capacity_lookups = 0.0, capacity_s = 0.0;  // over every repetition
  std::size_t capacity_repetitions = 0;
  struct SweepStep {
    double offered_kqps, achieved_kqps, p99_us;
    std::size_t shed;
  };
  std::vector<SweepStep> sweep;
  std::size_t wrong = 0, answered = 0, failed_requests = 0, shed_in_sweep = 0;
  const auto run_on = [&](ChildRun& run, Phase& phase, const int fds[2]) {
    run_phase(phase, fds, phase.name == "steady_traced" ? &send_spans : nullptr);
    run.stats.push_back(phase_stats(phase));
    // Sent sweep frames are not needed again; they are the bulk.
    if (phase.sweep) {
      for (auto& request : phase.requests) std::string().swap(request.bytes);
    }
  };
  for (auto& run : runs) {
    t = Clock::now();
    Child child = spawn_child(self_exe, options, result_path);
    start_s.push_back(seconds_since(t));
    int fds[2] = {-1, -1};
    try {
      fds[0] = connect_to(child.port);
      fds[1] = connect_to(child.port);
    } catch (...) {
      if (fds[0] >= 0) ::close(fds[0]);
      stop_child(child);
      throw;
    }
    for (auto& phase : run.phases) run_on(run, phase, fds);
    if (!options.trace) {
      const double lookups = kCapacityPoolLookups * (options.smoke ? 0.05 : 1.0);
      Phase pool = plan_phase("capacity", {1.0, lookups, lookups}, mix, rng, next_id);
      pool.window = kCapacityWindow;
      const auto capacity_begin = Clock::now();
      // Each repetition's own clock starts at its first send.
      for (int k = 0; k == 0 || seconds_since(capacity_begin) < options.seconds / 6.0; ++k) {
        std::fill(pool.outcomes.begin(), pool.outcomes.end(), Outcome{});
        run_phase(pool, fds, nullptr);
        const auto s = phase_stats(pool);
        capacity_lookups += s.answered_lookups;
        capacity_s += s.span_s;
        ++capacity_repetitions;
        if (k % kCapacityCheckEvery == 0) {
          run.phases.push_back(pool);
          for (auto& request : run.phases.back().requests) std::string().swap(request.bytes);
          run.stats.push_back(s);
        } else {
          report.attempted += pool.requests.size();
          failed_requests += s.failed(false);
        }
      }
    }
    if (&run == &runs.back() && !options.trace) {
      const double step_s = std::max(0.25, options.seconds / 60.0);
      double rate = kSweepStartKqps * 1e3 * (options.smoke ? 0.25 : 1.0);
      int breaks = 0;
      for (int k = 1; k <= kSweepMaxSteps && breaks < kSweepBreaksToStop; ++k, rate *= kSweepFactor) {
        run.phases.push_back(
            plan_phase("sweep_" + std::to_string(k), {step_s, rate, rate}, mix, rng, next_id));
        run.phases.back().sweep = true;
        run_on(run, run.phases.back(), fds);
        const auto& s = run.stats.back();
        const double p99 = median(s.window_p99_us);
        sweep.push_back({s.offered_kqps, s.achieved_kqps, p99, s.shed});
        if (s.lost + s.shed > 0 || p99 > kP99LimitUs || s.achieved_kqps < 0.95 * s.offered_kqps) {
          ++breaks;
        } else {
          breaks = 0;
          max_kqps = s.achieved_kqps;
        }
      }
    }
    ::close(fds[0]);
    ::close(fds[1]);
    report.check("serve.child_exit_clean", stop_child(child));
    run.result = read_child_result(result_path);
    std::error_code ignored;
    fs::remove(result_path, ignored);
    fs::remove(result_path + ".registry.json", ignored);

    // This child's answers are counted and checked now, and its capacity and
    // sweep requests, the bulk of them, are let go.
    for (std::size_t p = 0; p < run.phases.size(); ++p) {
      report.attempted += run.phases[p].requests.size();
      failed_requests += run.stats[p].failed(run.phases[p].sweep);
      if (run.phases[p].sweep) shed_in_sweep += run.stats[p].shed;
    }
    wrong += wrong_answers(run, mix, options.inject_fault == "serve_verdict", answered);
    for (auto& phase : run.phases) {
      if (phase.sweep || phase.window > 0) {
        std::vector<Request>().swap(phase.requests);
        std::vector<Outcome>().swap(phase.outcomes);
      }
    }
  }
  const double setup_s = input_s + median(start_s);

  PhaseStats pooled;
  std::vector<double> rss_mib;  // per child
  double f1_sum = 0.0, achieved_sum = 0.0;
  for (const auto& run : runs) {
    pool(pooled, run.stats[1]);
    achieved_sum += run.stats[1].achieved_kqps;
    rss_mib.push_back(run.result.values.count("rss_mib") ? run.result.values.at("rss_mib") : 0.0);
    f1_sum += run.result.values.count("f1") ? run.result.values.at("f1") : 0.0;
  }
  report.failed += failed_requests + wrong;
  report.check("serve.every_request_answered_once", failed_requests == 0,
               std::to_string(failed_requests) +
                   " lost or duplicated, or rejected, stale or short outside the sweep");
  report.check("serve.verdicts_match_published_snapshots", wrong == 0,
               std::to_string(wrong) + " of " + std::to_string(answered) + " responses wrong");

  const double p50_us = percentile(pooled.latency_us, 50.0);
  const double p90_us = percentile(pooled.latency_us, 90.0);
  const double p99_us = percentile(pooled.latency_us, 99.0);
  // Stalls of the shared box come in bursts; the median over 0.5 s windows
  // keeps one bad burst from moving the gated tail.
  const double window_p75_us = median(pooled.window_p75_us);
  // The frame carries whole milliseconds; the mean keeps the digits.
  const double age_ms = mean(pooled.age_ms);
  double offered_kqps = 0.0;
  for (const auto& run : runs) offered_kqps += run.stats[1].offered_kqps / kChildren;
  const double achieved_kqps = achieved_sum / kChildren;
  report.add_e2e("setup_s", setup_s, "s");
  // A child's peak depends on how many snapshots its starved miner had in
  // hand at once (121-141 MiB); the median child is the figure.
  report.add_e2e("peak_rss_mib", median(rss_mib), "MiB");
  report.add_e2e("detect_f1", f1_sum / kChildren, "ratio");
  report.add_e2e("op_p50_ms", p50_us / 1e3, "ms");
  // The gated tail is p75: on the shared box, stalls of the whole box set
  // everything above it in bad periods (p90 ranged 37-235 us over eight
  // runs, p99 0.06-10 ms); p90 and p99 are printed.
  report.add_e2e("op_tail_ms", window_p75_us / 1e3, "ms");
  const double capacity_kqps = capacity_s > 0.0 ? capacity_lookups / capacity_s / 1e3 : 0.0;
  report.add_e2e("throughput_kops", capacity_kqps, "k/s");
  report.add_e2e("answer_age_ms", age_ms, "ms");
  report.add_named("serve_p50_us", p50_us, "us");
  report.add_named("serve_p90_us", p90_us, "us");
  report.add_named("serve_window_p75_us", window_p75_us, "us");
  report.add_named("serve_p99_us", p99_us, "us");
  report.add_named("serve_samples", static_cast<double>(pooled.latency_us.size()), "count");
  // The planned steady mix, as the scenario and kUnseenEvery make it.
  double frames = 0, batches = 0, lookups = 0, campaign = 0, unseen = 0, with_ip = 0;
  for (const auto& run : runs) {
    for (const auto& request : run.phases[1].requests) {
      ++frames;
      batches += request.lookups > 1;
      for (const auto k : mix.frames[request.frame]) {
        ++lookups;
        campaign += mix.keys[k].kind == LookupKey::Kind::kCampaign;
        unseen += mix.keys[k].kind == LookupKey::Kind::kUnseen;
        with_ip += !mix.keys[k].ip.empty();
      }
    }
  }
  report.add_named("mix.batch_frame_share", batches / frames, "ratio");
  report.add_named("mix.lookups_per_frame", lookups / frames, "count");
  report.add_named("mix.campaign_share", campaign / lookups, "ratio");
  report.add_named("mix.unseen_share", unseen / lookups, "ratio");
  report.add_named("mix.host_ip_share", with_ip / lookups, "ratio");
  report.add_named("serve_capacity_kqps", capacity_kqps, "k/s");
  report.add_named("serve_capacity_repetitions", static_cast<double>(capacity_repetitions),
                   "count");
  report.add_named("serve_max_kqps", max_kqps, "k/s");
  report.add_named("serve_sweep_steps", static_cast<double>(sweep.size()), "count");
  report.add_named("serve_shed_in_sweep", static_cast<double>(shed_in_sweep), "count");
  report.add_named("answer_age_p50_ms", median(pooled.age_ms), "ms");
  report.add_named("answer_age_mean_ms", age_ms, "ms");
  report.add_named("gen.offered_kqps", offered_kqps, "k/s");
  report.add_named("gen.achieved_kqps", achieved_kqps, "k/s");
  report.add_named("gen.send_lateness_p50_us", percentile(pooled.lateness_us, 50.0), "us");
  report.add_named("gen.send_lateness_p99_us", percentile(pooled.lateness_us, 99.0), "us");
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    const std::string step = "sweep." + std::to_string(k + 1);
    report.add_named(step + ".offered_kqps", sweep[k].offered_kqps, "k/s");
    report.add_named(step + ".achieved_kqps", sweep[k].achieved_kqps, "k/s");
    report.add_named(step + ".p99_us", sweep[k].p99_us, "us");
    report.add_named(step + ".shed", static_cast<double>(sweep[k].shed), "count");
  }

  if (options.trace) {
    // Registry figures come from the last child, which served the traced part.
    const auto& run = runs.back();
    const auto value = [&](const char* name) {
      const auto it = run.result.values.find(name);
      return it == run.result.values.end() ? 0.0 : it->second;
    };
    const auto counter = [&](const char* name) {
      const auto it = run.result.counters.find(name);
      return it == run.result.counters.end() ? 0.0 : it->second;
    };
    const auto hist_mean = [&](const char* name) {
      const auto it = run.result.histograms.find(name);
      return it == run.result.histograms.end() || it->second.first == 0
                 ? 0.0
                 : it->second.second / it->second.first;
    };
    const double request_us = hist_mean("serve.request_ns") / 1e3;
    report.add_layer("verdict.lookup_ns", value("verdict_lookup_ns"), "ns");
    report.add_layer("verdict.hit_share", value("verdict_hit_share"), "ratio");
    measure_frames(report, run.phases[1]);
    report.add_layer("server.request_ns", hist_mean("serve.request_ns"), "ns");
    report.add_layer("server.rejected", counter("serve.rejected_total"), "count");
    report.add_layer("server.partial_batches", counter("serve.partial_batches_total"), "count");
    report.add_layer("server.connections", counter("serve.connections_opened_total"), "count");
    report.add_layer("gen.offered_kqps", offered_kqps, "k/s");
    report.add_layer("gen.achieved_kqps", achieved_kqps, "k/s");
    report.add_layer("gen.send_lateness_p50_us", percentile(pooled.lateness_us, 50.0), "us");
    report.add_layer("gen.send_lateness_p99_us", percentile(pooled.lateness_us, 99.0), "us");
    report.add_layer("gen.unattributed_us", p50_us - request_us, "us");
    report.add_layer("engine.publications", counter("stream.snapshots_published_total"), "count");
    report.add_layer("engine.windows_coalesced", counter("stream.windows_coalesced_total"), "count");
    report.add_layer("engine.mine_queue_wait_ms", hist_mean("stream.mine_queue_wait_ms"), "ms");
    report.add_layer("engine.mine_ms", hist_mean("stream.mine_ms"), "ms");
    report.add_layer("snapshot.build_ms", hist_mean("stream.snapshot_build_ms"), "ms");
    report.add_layer("trace.overhead_share",
                     percentile(run.stats[2].latency_us, 50.0) /
                             percentile(run.stats[1].latency_us, 50.0) -
                         1.0,
                     "ratio");
  }
  report.add_e2e("ok_share",
                 1.0 - static_cast<double>(report.failed) /
                           static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
                 "ratio");
  return report;
}

}  // namespace perfbench
