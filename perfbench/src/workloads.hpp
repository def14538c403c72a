// The benchmark's three workloads on the threads engine, each checked
// against the serial reference on every operation.
//
//   nest_churn  fig1 (NI=32, NJ=8) under GSS, batch run_threads_on on one
//               persistent team: scheduling time goes to the high level
//               (SEARCH, EXIT/ENTER, task pool, ICB pool, BAR_COUNT).
//   flat_fine   one flat Doall of 2^18 fine iterations (seeded bimodal
//               cost) under `self`, batch: one instance, so the high level
//               idles and the shared-index fetch&add (O1) dominates.
//   serve_mix   a resident serve::Service, two tenants in one tier, fed by
//               a closed-loop generator with 2 x workers submissions
//               outstanding, over four program shapes drawn from the seed
//               (small fig1 under GSS, triangular, Doacross chain, small
//               flat loop).
//
// BENCHMARK.json gates flat_fine and serve_mix only: on a shared VM,
// nest_churn's spinning team stalls whenever the host takes a vCPU away,
// so its figures follow the host's load (perfbench/README.md).
//
// A run with trace=false reports the end-to-end metrics with phase timing
// off; a run with trace=true reports the per-layer metrics from operations
// with phase timing on, alternated with untimed ones so the cost of the
// timing itself is measured too.
#pragma once

#include <string>
#include <vector>

#include "checked.hpp"
#include "exec/thread_team.hpp"
#include "runtime/options.hpp"
#include "spans.hpp"

namespace perfbench {

inline constexpr const char* kWorkloads[] = {"nest_churn", "flat_fine",
                                             "serve_mix"};

struct Config {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  u32 procs = 0;           // batch P; serve_mix runs procs-1 workers
  std::string root = ".";  // checkout root, for examples/programs
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  u32 procs = 0;  // processors the workload's runtime used
  u64 attempted = 0;
  u64 failed = 0;  // threw, returned a failure, was rejected, or miscounted
  bool correct = true;  // no run claimed success with a wrong tally
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // extra human-readable report lines
};

/// Run one workload for cfg.seconds (plus set-up).  Spans go to `spans`
/// when it is enabled.
Result run_workload(const Config& cfg, SpanLog& spans);

/// One batch operation: reset the tallies, run `cp` on `team`, verify.
struct OpOutcome {
  bool ok = false;
  bool wrong_answer = false;  // completed without failure, tally mismatch
  double latency_ms = 0;      // the run_threads_on call alone
  selfsched::runtime::RunResult result;
  std::string error;  // what() of a thrown exception
};
OpOutcome run_batch_op(selfsched::exec::ThreadTeam& team, CheckedProgram& cp,
                       const Reference& ref,
                       const selfsched::runtime::SchedOptions& opts,
                       SpanLog& spans, u64 op);

}  // namespace perfbench
