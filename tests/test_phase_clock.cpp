// Phase accounting on the threads engine: every worker's phase clock and
// the makespan window share one origin, so the phases of all workers add
// up to P x makespan.  Wall-clock shares only mean something when the
// workers get the cores they ask for, so CTest runs this binary alone
// (RUN_SERIAL in tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "program/fig1.hpp"
#include "runtime/scheduler.hpp"

namespace selfsched {
namespace {

/// A cold run_threads spawns its team, so workers reach the start line at
/// different times.  Phase time must start at the start line, as the
/// makespan does; the phases of all workers then add up to P × makespan.
TEST(ThreadsScheduler, ColdRunPhasesSumToProcessorTime) {
  const program::Fig1Params p = testing::fig1_loop_params(32, 8);
  const auto prog = program::make_fig1(p);
  runtime::SchedOptions opts;
  opts.strategy = runtime::Strategy::gss();
  const u32 cores = std::max(1u, std::thread::hardware_concurrency());
  for (const u32 procs : {1u, std::min(4u, cores)}) {
    std::vector<double> ratios;
    for (int run = 0; run < 5; ++run) {
      const auto r = runtime::run_threads(prog, procs, opts);
      ratios.push_back(static_cast<double>(r.total.total_cycles()) /
                       (static_cast<double>(procs) *
                        static_cast<double>(r.makespan)));
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[ratios.size() / 2];
    EXPECT_GE(median, 0.95) << "P=" << procs;
    EXPECT_LE(median, 1.03) << "P=" << procs;
  }
}

}  // namespace
}  // namespace selfsched
