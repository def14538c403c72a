// E4 — the task pool's m parallel linked lists + control word SW vs a
// single-list single-lock central queue (§III-A, Fig. 7).
//
// A wide program with many innermost parallel loops and many small
// instances makes processors hit the high level constantly; the central
// queue's lock serializes them, the parallel lists spread them.
#include "bench_util.hpp"
#include "program/ast.hpp"
#include "runtime/scheduler.hpp"

using namespace selfsched;

namespace {

/// par I (1..width) { L0(4); L1(4); ... L(m-1)(4) } — m innermost loops,
/// width instances each, tiny bodies: activation-dominated.
program::NestedLoopProgram wide_program(u32 m, i64 width, Cycles body) {
  using namespace program;
  NodeSeq inner;
  for (u32 l = 0; l < m; ++l) {
    inner.push_back(doall(std::string("L").append(std::to_string(l)),
                          4, nullptr,
                          [body](const IndexVec&, i64) { return body; }));
  }
  NodeSeq top;
  top.push_back(par(width, std::move(inner)));
  return NestedLoopProgram(std::move(top));
}

}  // namespace

int main() {
  bench::banner(
      "E4  task pool: m parallel lists + SW vs central queue (Fig. 7)",
      "multiple parallel linked lists with leading-one-detection avoid the "
      "serial bottleneck of a single task queue");

  constexpr u32 kLoops = 16;
  constexpr i64 kWidth = 24;
  constexpr Cycles kBody = 60;

  bench::Table table({"procs", "parallel_lists_makespan",
                      "central_queue_makespan", "central/parallel",
                      "par_search_steps", "cq_search_steps"});
  for (u32 procs : {1u, 2u, 4u, 8u, 16u, 32u}) {
    runtime::SchedOptions par_opts;
    runtime::SchedOptions cq_opts;
    cq_opts.central_queue = true;

    auto prog_a = wide_program(kLoops, kWidth, kBody);
    const auto rp = runtime::run_vtime(prog_a, procs, par_opts);
    auto prog_b = wide_program(kLoops, kWidth, kBody);
    const auto rc = runtime::run_vtime(prog_b, procs, cq_opts);

    table.row({bench::fmt(procs), bench::fmt(rp.makespan),
               bench::fmt(rc.makespan),
               bench::fmt(static_cast<double>(rc.makespan) /
                              static_cast<double>(rp.makespan),
                          2),
               bench::fmt(rp.total.search_steps),
               bench::fmt(rc.total.search_steps)});
  }
  table.print();
  std::printf(
      "\nexpect: the central queue walks far longer list chains "
      "(search_steps) and its makespan degrades relative to parallel lists "
      "as P grows.\n");
  return 0;
}
