// Workload entry points. Each prints its report and the result line, and
// returns the process exit code (non-zero when an oracle failed).
#pragma once

#include "common.hpp"

namespace perfbench {

int run_diag_pool(const RunOptions& options);
int run_sim_sweep(const RunOptions& options);
int run_serve_mix(const RunOptions& options);

}  // namespace perfbench
