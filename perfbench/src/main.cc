// perfbench: runs one benchmark workload and prints its report as one JSON
// line (perfbench/run.py turns it into the benchmark's result line).
//
//   perfbench --workload batch_day|stream_week|serve_mixed --seed N
//             --seconds S --trace 0|1 [--smoke] [--inject-fault NAME]
//             [--work-dir DIR]
//   perfbench unit          unit checks of the measurement helpers
//   perfbench serve-child   (internal) the serve_mixed server process
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include <sched.h>

#include "workloads.h"

namespace {

// Pins this process, its threads and the serve child it forks to one CPU:
// the last one it may run on. Returns that CPU, or -1 when pinning failed.
//
// The benchmark's host lends its vCPUs as a varying number of real cores:
// for minutes at a time four spinning threads do the work of one, then of
// four again, while one thread's speed stays the same. On one CPU every
// workload measures the same machine in both states.
int pin_to_one_cpu() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--smoke] [--inject-fault NAME] [--work-dir DIR]\n"
               "       perfbench unit\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "unit") == 0) {
    return perfbench::run_unit_checks() == 0 ? 0 : 1;
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve-child") == 0) {
    return perfbench::serve_child_main(argc - 2, argv + 2);
  }
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = value() == "1";
      else if (arg == "--smoke") options.smoke = true;
      else if (arg == "--inject-fault") options.inject_fault = value();
      else if (arg == "--work-dir") options.work_dir = value();
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (!(options.seconds > 0.0)) return usage();

  // The probe measures the box as lent, before pinning.
  char probe[32];
  std::snprintf(probe, sizeof probe, "%.2f", perfbench::parallelism_probe(4));
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU\n");
    return 1;
  }

  perfbench::Report report;
  try {
    if (options.workload == "batch_day") {
      report = perfbench::run_batch_day(options);
    } else if (options.workload == "stream_week") {
      report = perfbench::run_stream_week(options);
    } else if (options.workload == "serve_mixed") {
      report = perfbench::run_serve_mixed(options, "/proc/self/exe");
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  report.workload = options.workload;
  report.header["seed"] = std::to_string(options.seed);
  report.header["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.header["parallelism_probe_4threads"] = probe;
  report.header["pinned_cpu"] = std::to_string(cpu);
  report.header["compiler"] = PERFBENCH_COMPILER;
  report.header["build_type"] = PERFBENCH_BUILD_TYPE;
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
