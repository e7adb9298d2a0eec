// Shared pieces of the benchmark: clocks, percentiles, the open-loop rate
// schedule, span recording, the run report and its JSON form.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Linear-interpolated percentile, q in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
double mean(const std::vector<double>& values);

// The highest of p99 / p90 / p75 / p50 that has at least `min_beyond`
// samples above it; the median when none has.
struct TailPick {
  double q = 50.0;
  double value = 0.0;
};
TailPick tail_percentile(const std::vector<double>& values,
                         std::size_t min_beyond = 10);

// One stage of an open-loop schedule: the offered rate moves linearly from
// rate_begin to rate_end (requests/s) over duration_s.
struct RateStage {
  double duration_s = 0.0;
  double rate_begin = 0.0;
  double rate_end = 0.0;
};

// Send offsets (seconds from the stage start) of every planned request:
// request k is due when the integral of the rate reaches k.
std::vector<double> schedule_offsets(const RateStage& stage);

// Offered load of a phase, time-weighted: its `planned` requests over the
// stages' whole duration, not a mean of the rate each request was sent at
// (which over-weights the fast end of a ramp).
double time_weighted_offered(double planned, const std::vector<RateStage>& stages);

// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

// Effective parallelism of `threads` spinning threads: their combined work
// rate over one thread's, measured over `window_ms` each.
double parallelism_probe(unsigned threads, double window_ms = 60.0);

// Spans recorded from the benchmark around calls into the program. Serial
// use only: each span's parent is the innermost open span.
class SpanTracer {
 public:
  explicit SpanTracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  int open(const std::string& name);
  void close(int id);

  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;  // minus the time child spans cover
  };
  std::map<std::string, Totals> totals() const;
  // Summed duration of root spans (the layer coverage of a traced run).
  double root_ms() const;

 private:
  struct Record {
    std::string name;
    int parent = -1;
    Clock::time_point start{}, end{};
  };
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(SpanTracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Span() { finish(); }
  void finish() {
    if (id_ >= 0) tracer_.close(id_);
    id_ = -1;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer& tracer_;
  int id_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // scaled-down inputs, for the self-tests
  std::string inject_fault;  // corrupt one checked output (self-tests)
  std::string work_dir = ".bench_build/tmp";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Result of one workload run, printed as one JSON line.
struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::size_t checks_passed = 0;
  std::vector<Metric> e2e;     // every end-to-end metric (untraced run)
  std::vector<Metric> layer;   // per-layer metrics (traced run)
  std::vector<Metric> named;   // the same end-to-end figures by workload name
  std::map<std::string, std::string> header;

  // Records a correctness check; a failure counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void add_e2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void add_layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  void add_named(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
  std::string to_json() const;
};

// Ground-truth scoring of a flagged-server set.
struct Quality {
  std::size_t flagged = 0, truth = 0, true_positives = 0;
  double f1() const;
};

}  // namespace perfbench
