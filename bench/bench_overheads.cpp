// E8 — real-hardware cost of the overhead components of §IV, measured with
// google-benchmark on the threaded backend (std::atomic):
//   O1: the per-iteration {index <= b; Fetch&Add} + {icount; Fetch&Add} pair,
//       and the grab alone under 1, 2 and 4 contending threads
//   O2: one SEARCH round (leading-one-detection + list walk + attach)
//   O3: one EXIT + ENTER activation round trip
// plus the end-to-end per-iteration cost of a scheduled flat loop, swept over
// its bound under `self` (one index shard per worker once the bound is large
// enough) and under `chunk:1` (always the flat index).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "exec/real_context.hpp"
#include "exec/thread_team.hpp"
#include "program/ast.hpp"
#include "runtime/high_level.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "workloads/programs.hpp"

using namespace selfsched;
using exec::RContext;

namespace {

// --- O1: the two per-iteration synchronization instructions ---
void BM_O1_IterationSyncPair(benchmark::State& state) {
  RContext ctx(0, 1, /*measure_phases=*/false);
  runtime::Icb<RContext> icb;
  icb.init(0, 1000000000, 1000000000, IndexVec{}, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runtime::ctx_claim(ctx, icb.index, 1000000000, 1));
    benchmark::DoNotOptimize(
        ctx.sync_op(icb.icount, sync::Test::kNone, 0, sync::Op::kFetchAdd,
                    1));
  }
}
BENCHMARK(BM_O1_IterationSyncPair);

// --- O1 under contention: the grab alone, on one shared index ---
// google-benchmark runs each row on 1, 2 and 4 threads hammering one index
// with an unreachable bound, and reports the time per grab on each thread.
// The tested grab is the instruction as SyncVar emulates it (load, then
// CAS until it lands); ctx_claim is the single fetch&add the claim
// strategies issue on real cores.
sync::SyncVar g_grab_index;
constexpr i64 kGrabBound = i64{1} << 62;

void BM_O1_GrabTestedCas(benchmark::State& state) {
  RContext ctx(static_cast<ProcId>(state.thread_index()),
               static_cast<u32>(state.threads()), false);
  if (state.thread_index() == 0) g_grab_index.reset(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.sync_op(g_grab_index, sync::Test::kLE,
                                         kGrabBound, sync::Op::kFetchAdd, 1));
  }
}
BENCHMARK(BM_O1_GrabTestedCas)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

void BM_O1_GrabClaim(benchmark::State& state) {
  RContext ctx(static_cast<ProcId>(state.thread_index()),
               static_cast<u32>(state.threads()), false);
  if (state.thread_index() == 0) g_grab_index.reset(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runtime::ctx_claim(ctx, g_grab_index, kGrabBound, 1));
  }
}
BENCHMARK(BM_O1_GrabClaim)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

// --- dispatch cost by strategy ---
void BM_DispatchSelf(benchmark::State& state) {
  RContext ctx(0, 8, false);
  runtime::Icb<RContext> icb;
  icb.init(0, 1000000000, 1000000000, IndexVec{}, false);
  const auto strat = runtime::Strategy::self();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::dispatch_iterations(ctx, icb, strat));
  }
}
BENCHMARK(BM_DispatchSelf);

void BM_DispatchGss(benchmark::State& state) {
  RContext ctx(0, 8, false);
  runtime::Icb<RContext> icb;
  const auto strat = runtime::Strategy::gss();
  i64 remaining = 0;
  for (auto _ : state) {
    if (remaining <= 0) {
      state.PauseTiming();
      icb.init(0, 1 << 20, runtime::step_count(strat, 1 << 20, 8),
               IndexVec{}, false);
      remaining = 1 << 20;
      state.ResumeTiming();
    }
    const auto d = runtime::dispatch_iterations(ctx, icb, strat);
    remaining -= d.count;
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DispatchGss);

// --- O2: one SEARCH round over a pool with one hot list ---
void BM_O2_SearchAttach(benchmark::State& state) {
  program::NodeSeq top;
  top.push_back(program::doall("x", 1 << 30));
  program::NestedLoopProgram prog(std::move(top));
  runtime::SchedOptions opts;
  runtime::SchedState<RContext> st(prog.tables(), opts);
  RContext ctx(0, 1, false);
  // Publish one instance with a huge bound so attach always succeeds.
  IndexVec ivec;
  ivec.resize(1);
  runtime::enter(ctx, st, 0, 0, ivec);
  runtime::WorkerCursor<RContext> cursor;
  cursor.ivec.resize(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::search(ctx, st, cursor));
    // Detach so pcount does not grow unboundedly.
    ctx.sync_op(cursor.ip->pcount, sync::Test::kNone, 0,
                sync::Op::kDecrement);
  }
}
BENCHMARK(BM_O2_SearchAttach);

// --- O3: one EXIT + ENTER round (activate successor of a 2-loop chain) ---
void BM_O3_ExitEnter(benchmark::State& state) {
  // par I(huge) { A(1); B(1) }: completing A activates B; we measure the
  // exit_from+enter pair for A's instance at I=1 repeatedly.
  using namespace program;
  NodeSeq top;
  top.push_back(par(1 << 30, seq(doall("A", 1), doall("B", 1))));
  NestedLoopProgram prog(std::move(top));
  runtime::SchedOptions opts;
  runtime::SchedState<RContext> st(prog.tables(), opts);
  RContext ctx(0, 1, false);
  IndexVec ivec;
  ivec.resize(prog.tables().max_depth);
  ivec[0] = 1;
  ivec[1] = 1;
  for (auto _ : state) {
    IndexVec scratch = ivec;
    const Level lev = runtime::exit_from(ctx, st, 0, 2, scratch);
    benchmark::DoNotOptimize(lev);
    if (lev != 0) {
      runtime::enter(ctx, st, prog.loop(0).at_level(lev).next, lev, scratch);
      // Drain: delete + release the B instance we just activated.
      state.PauseTiming();
      runtime::WorkerCursor<RContext> cursor;
      cursor.ivec.resize(prog.tables().max_depth);
      runtime::search(ctx, st, cursor);
      st.pool.delete_icb(ctx, st.list_of(cursor.i), cursor.ip);
      ctx.sync_op(cursor.ip->pcount, sync::Test::kNone, 0,
                  sync::Op::kDecrement);
      st.icbs.release(ctx, cursor.ip);
      ctx.sync_op(st.outstanding, sync::Test::kNone, 0, sync::Op::kDecrement);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_O3_ExitEnter);

// --- end-to-end per-iteration cost of the full runtime ---
/// One worker, zero-cost bodies, GSS (one chunk): the runtime's own cost
/// per iteration with no contention, team setup included.
void BM_EndToEnd_SerialRuntimePerIteration(benchmark::State& state) {
  const i64 n = state.range(0);
  for (auto _ : state) {
    auto prog = workloads::flat_doall(
        n, [](const IndexVec&, i64) -> Cycles { return 0; });
    runtime::SchedOptions opts;
    opts.measure_phases = false;
    opts.strategy = runtime::Strategy::gss();
    const auto r = runtime::run_threads(prog, 1, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EndToEnd_SerialRuntimePerIteration)->Arg(1024)->Arg(16384);

/// One team per worker count, reused by every run of the sweep.
exec::ThreadTeam& team_of(u32 procs) {
  static std::map<u32, std::unique_ptr<exec::ThreadTeam>> teams;
  auto& t = teams[procs];
  if (t == nullptr) t = std::make_unique<exec::ThreadTeam>(procs);
  return *t;
}

/// Full runtime on a flat Doall of b iterations at COST 100 (the common
/// iteration of perfbench's flat_fine), one iteration per grab: the
/// crossover sweep behind runtime::kShardMinItersPerWorker.  Args are
/// (b, P, self).  self = 1 runs `self`, whose layout index_shards_for picks
/// (one shard per worker at b >= kShardMinItersPerWorker * P, flat below).
/// self = 0 runs `chunk:1`, which grabs exactly as `self` does but always
/// keeps the flat index.  A run whose layout differs from the rule's is
/// reported as an error rather than measured.
void BM_EndToEnd_FlatLoopPerIteration(benchmark::State& state) {
  const i64 n = state.range(0);
  const auto procs = static_cast<u32>(state.range(1));
  auto prog = workloads::flat_doall(
      n, [](const IndexVec&, i64) -> Cycles { return 100; });
  runtime::SchedOptions opts;
  opts.measure_phases = false;
  opts.strategy = state.range(2) != 0 ? runtime::Strategy::self()
                                      : runtime::Strategy::chunked(1);
  RContext probe(0, procs, /*measure_phases=*/false);
  const bool rule_shards =
      runtime::index_shards_for(probe, opts.strategy, false, n) > 1;
  exec::ThreadTeam& team = team_of(procs);
  const bool sharded =
      runtime::run_threads_on(team, prog, opts).counters.shard_grants > 0;
  if (sharded != rule_shards) {
    state.SkipWithError("the run's index layout does not match the rule");
    return;
  }
  for (auto _ : state) {
    const auto r = runtime::run_threads_on(team, prog, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["ns_per_iter"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EndToEnd_FlatLoopPerIteration)
    ->ArgNames({"b", "P", "self"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      const i64 cores = std::max(1u, std::thread::hardware_concurrency());
      for (i64 n = 256; n <= 65536; n *= 2) {
        b->Args({n, 1, 0});
        if (cores > 1) {
          b->Args({n, cores, 0});
          b->Args({n, cores, 1});
        }
      }
    })
    ->UseRealTime();

}  // namespace
