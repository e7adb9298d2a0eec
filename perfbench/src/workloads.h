#pragma once

#include "util.h"

namespace perfbench {

Report run_batch_day(const Options& options);
Report run_stream_week(const Options& options);
Report run_serve_mixed(const Options& options, const char* self_exe);

// The serve_mixed system under test, run as a child process.
int serve_child_main(int argc, char** argv);

// Unit checks of the percentile and rate helpers; returns failures.
int run_unit_checks();

}  // namespace perfbench
