// E10 — ablations of the high-level design choices (DESIGN.md §3):
//   (a) number of parallel linked lists m (the paper's one-list-per-loop
//       layout vs collapsing everything into one list) across program
//       widths;
//   (b) the simulated cost model's influence on the two-level scheme
//       (sensitivity of end-to-end makespan to the sync-op price).
#include "bench_util.hpp"
#include "program/ast.hpp"
#include "program/fig1.hpp"
#include "runtime/scheduler.hpp"

using namespace selfsched;

namespace {

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
      "E10  ablations: per-loop lists vs one list; sync-cost sensitivity",
      "one list per innermost loop keeps SEARCH short; the scheme's "
      "overhead scales with the machine's synchronization price");

  constexpr u32 kProcs = 16;

  std::printf("\n--- (a) per-loop lists vs one shared list, across m ---\n");
  bench::Table table_a({"m_loops", "per_loop_lists", "single_list",
                        "single/per_loop", "steps_per_search(per-loop)",
                        "steps_per_search(single)"});
  for (u32 m : {2u, 8u, 32u, 96u}) {
    auto prog_a = wide_program(m, 12, 50);
    const auto rp = runtime::run_vtime(prog_a, kProcs);
    auto prog_b = wide_program(m, 12, 50);
    runtime::SchedOptions cq;
    cq.central_queue = true;
    const auto rc = runtime::run_vtime(prog_b, kProcs, cq);
    const auto steps = [](const runtime::RunResult& r) {
      return r.total.searches
                 ? static_cast<double>(r.total.search_steps) /
                       static_cast<double>(r.total.searches)
                 : 0.0;
    };
    table_a.row({bench::fmt(m), bench::fmt(rp.makespan),
                 bench::fmt(rc.makespan),
                 bench::fmt(static_cast<double>(rc.makespan) /
                                static_cast<double>(rp.makespan),
                            2),
                 bench::fmt(steps(rp), 2), bench::fmt(steps(rc), 2)});
  }
  table_a.print();

  std::printf("\n--- (b) sync-op price sensitivity on the Fig. 1 nest ---\n");
  bench::Table table_b({"machine", "sync_op", "makespan", "eta"});
  program::Fig1Params p;
  p.ni = 6;
  p.nj = 3;
  p.body_cost = 200;
  struct M {
    const char* name;
    vtime::CostModel c;
  } machines[] = {
      {"cheap_sync", vtime::CostModel::cheap_sync()},
      {"cedar", vtime::CostModel::cedar()},
      {"expensive_sync", vtime::CostModel::expensive_sync()},
  };
  for (const auto& m : machines) {
    auto prog = program::make_fig1(p);
    runtime::SchedOptions opts;
    opts.costs = m.c;
    const auto r = runtime::run_vtime(prog, kProcs, opts);
    table_b.row({m.name, bench::fmt(static_cast<i64>(m.c.sync_op)),
                 bench::fmt(r.makespan), bench::fmt(r.utilization())});
  }
  table_b.print();
  std::printf(
      "\nexpect: (a) the single-list walk length grows with m while "
      "per-loop lists stay short; (b) utilization falls as the sync price "
      "rises — quantifying how much the scheme leans on cheap "
      "fetch-and-add.\n");
  return 0;
}
