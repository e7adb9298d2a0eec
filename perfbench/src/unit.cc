// Unit checks of the measurement helpers (`perfbench unit`).
#include <cmath>
#include <cstdio>

#include "util.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want, double tolerance) {
  const bool ok = std::abs(got - want) <= tolerance;
  std::printf("%s %s: got %.6g, want %.6g\n", ok ? "ok  " : "FAIL", what, got, want);
  if (!ok) ++failures;
}

}  // namespace

int run_unit_checks() {
  failures = 0;
  // Percentiles interpolate linearly between order statistics.
  expect_near("median of 1..5", median({5, 1, 4, 2, 3}), 3.0, 1e-12);
  expect_near("p90 of 1..11", percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90.0), 10.0, 1e-12);
  expect_near("p25 of 0,10", percentile({0, 10}, 25.0), 2.5, 1e-12);
  expect_near("empty sample", percentile({}, 50.0), 0.0, 0.0);

  // The tail is the highest percentile with at least ten samples above it.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect_near("tail of 100 picks p90", tail_percentile(hundred).q, 90.0, 0.0);
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect_near("tail of 1000 picks p99", tail_percentile(thousand).q, 99.0, 0.0);
  expect_near("tail of 12 falls back to p50",
              tail_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}).q, 50.0, 0.0);

  // A ramp over [2k, 16k] offers 9k/s time-weighted.
  const std::vector<RateStage> ramp = {{4.0, 2000.0, 16000.0}};
  const auto planned = [](const std::vector<RateStage>& stages) {
    double n = 0.0;
    for (const auto& s : stages) n += static_cast<double>(schedule_offsets(s).size());
    return n;
  };
  expect_near("ramp 2k..16k offered", time_weighted_offered(planned(ramp), ramp), 9000.0,
              9000.0 * 0.001);
  const std::vector<RateStage> steps = {{1.0, 1000.0, 1000.0}, {3.0, 5000.0, 5000.0}};
  expect_near("two static stages offered", time_weighted_offered(planned(steps), steps), 4000.0,
              1.0);

  // The schedule is ascending and spans the stage.
  const auto offsets = schedule_offsets({2.0, 100.0, 300.0});
  bool ascending = true;
  for (std::size_t i = 1; i < offsets.size(); ++i) ascending &= offsets[i] > offsets[i - 1];
  expect_near("ramp schedule ascending", ascending ? 1.0 : 0.0, 1.0, 0.0);
  expect_near("ramp schedule count", static_cast<double>(offsets.size()), 400.0, 0.0);
  expect_near("ramp schedule ends inside the stage", offsets.back(), 2.0, 0.01);

  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
