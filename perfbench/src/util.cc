#include "util.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

TailPick tail_percentile(const std::vector<double>& values, std::size_t min_beyond) {
  for (int q : {99, 90, 75}) {
    if (values.size() * static_cast<std::size_t>(100 - q) / 100 >= min_beyond) {
      return {static_cast<double>(q), percentile(values, q)};
    }
  }
  return {50.0, percentile(values, 50.0)};
}

std::vector<double> schedule_offsets(const RateStage& stage) {
  std::vector<double> out;
  const double d = stage.duration_s;
  const double r0 = stage.rate_begin;
  const double slope = d > 0.0 ? (stage.rate_end - r0) / d : 0.0;
  const double planned = (r0 + stage.rate_end) / 2.0 * d;
  for (double k = 0.0; k < planned; k += 1.0) {
    // Solve r0 t + slope t^2 / 2 = k for t.
    double t;
    if (std::abs(slope) < 1e-12) {
      t = k / r0;
    } else {
      t = (-r0 + std::sqrt(r0 * r0 + 2.0 * slope * k)) / slope;
    }
    out.push_back(t);
  }
  return out;
}

double time_weighted_offered(double planned, const std::vector<RateStage>& stages) {
  double duration = 0.0;
  for (const auto& s : stages) duration += s.duration_s;
  return duration > 0.0 ? planned / duration : 0.0;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double parallelism_probe(unsigned threads, double window_ms) {
  const auto spin = [window_ms](std::atomic<std::uint64_t>& work) {
    const auto end = Clock::now() + std::chrono::duration<double, std::milli>(window_ms);
    std::uint64_t n = 0, x = 1;
    while (Clock::now() < end) {
      for (int i = 0; i < 1000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      ++n;
    }
    // x == 0 never holds; the test keeps the loop's arithmetic live.
    work.fetch_add(n + (x == 0 ? 1 : 0), std::memory_order_relaxed);
  };
  std::atomic<std::uint64_t> single{0}, multi{0};
  spin(single);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin, std::ref(multi));
  for (auto& th : pool) th.join();
  return single.load() == 0 ? 0.0
                            : static_cast<double>(multi.load()) / static_cast<double>(single.load());
}

int SpanTracer::open(const std::string& name) {
  Record rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.start = Clock::now();
  records_.push_back(std::move(rec));
  const int id = static_cast<int>(records_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanTracer::close(int id) {
  records_[id].end = Clock::now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, SpanTracer::Totals> SpanTracer::totals() const {
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const auto& r : records_) {
    if (r.parent >= 0) child_ms[r.parent] += ms_between(r.start, r.end);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const double d = ms_between(records_[i].start, records_[i].end);
    auto& t = out[records_[i].name];
    t.total_ms += d;
    t.self_ms += d - child_ms[i];
  }
  return out;
}

double SpanTracer::root_ms() const {
  double total = 0.0;
  for (const auto& r : records_) {
    if (r.parent < 0) total += ms_between(r.start, r.end);
  }
  return total;
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  ++attempted;
  if (ok) {
    ++checks_passed;
  } else {
    ++failed;
    failed_checks.emplace_back(name, detail);
  }
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ",";
    out += quote(metrics[i].name) + ":{\"value\":" + number(metrics[i].value) +
           ",\"unit\":" + quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"workload\":" << quote(workload) << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"checks_passed\":" << checks_passed
      << ",\"failed_checks\":[";
  for (std::size_t i = 0; i < failed_checks.size(); ++i) {
    if (i) out << ",";
    out << "{\"name\":" << quote(failed_checks[i].first)
        << ",\"detail\":" << quote(failed_checks[i].second) << "}";
  }
  out << "],\"header\":{";
  bool first = true;
  for (const auto& [k, v] : header) {
    if (!first) out << ",";
    first = false;
    out << quote(k) << ":" << quote(v);
  }
  out << "},\"e2e\":" << metrics_json(e2e) << ",\"layer\":" << metrics_json(layer)
      << ",\"named\":" << metrics_json(named) << "}";
  return out.str();
}

double Quality::f1() const {
  if (flagged == 0 && truth == 0) return 1.0;
  const double p = flagged == 0 ? 0.0 : static_cast<double>(true_positives) / flagged;
  const double r = truth == 0 ? 0.0 : static_cast<double>(true_positives) / truth;
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

}  // namespace perfbench
