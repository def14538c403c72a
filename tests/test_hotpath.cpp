// Instance-churn hot path: the ENTER differential battery across the
// strategy portfolio and team sizes; default-path bit-identity (explicit
// pool defaults must be indistinguishable from the seed path); the directed regressions for the eval_bound constant-path bound
// check and the named normalizer diagnostic; and the ICB-pool /
// quiescence-token unit surface (atomic allocated() sampling, host
// accessors refused while workers are live).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exec/real_context.hpp"
#include "program/ast.hpp"
#include "runtime/bar_count.hpp"
#include "runtime/high_level.hpp"
#include "runtime/icb_pool.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/verify.hpp"
#include "workloads/iteration_cost.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using exec::RContext;
using runtime::EngineKind;
using runtime::RunResult;
using runtime::SchedOptions;
using runtime::Strategy;

/// The full strategy portfolio, in Kind order, plus variants in slots 5-9
/// (the positional test names stay put): trapezoid with automatic
/// endpoints, min-chunk GSS, a chunk larger than most instances (one step
/// each), min-chunk factoring and trapezoid with an automatic first chunk
/// over a floor of 4, so the step rules' clamps are differential-tested
/// too.
const std::vector<Strategy>& portfolio() {
  static const std::vector<Strategy> p = {
      Strategy::self(),
      Strategy::chunked(3),
      Strategy::gss(),
      Strategy::factoring(),
      Strategy::trapezoid(8, 2),
      Strategy::trapezoid(),
      Strategy::gss(4),
      Strategy::chunked(64),
      Strategy::factoring(3),
      Strategy::trapezoid(0, 4),
  };
  return p;
}

/// Doall nest with a wide sibling set: an outer parallel loop of n1
/// instances of an inner Doall of n2 iterations.  Entering the outer loop
/// activates all n1 siblings in one Fig. 8(b) walk.
runtime::ProgramBuilder doall_builder(i64 n1, i64 n2) {
  return [n1, n2](const program::BodyFactory& bodies) {
    program::NodeSeq top;
    top.push_back(program::par(
        n1, program::seq(program::doall("inner", n2, bodies("inner"),
                                        workloads::constant_cost(20)))));
    return program::NestedLoopProgram(std::move(top));
  };
}

/// Doacross chain, so ENTER carries a needs_da instance through init's
/// flag-array sizing.
runtime::ProgramBuilder doacross_builder(i64 n) {
  return [n](const program::BodyFactory& bodies) {
    program::DoacrossSpec spec;
    spec.distance = 2;
    spec.post_fraction = 0.5;
    program::NodeSeq top;
    top.push_back(program::doacross("chain", n, spec, bodies("chain"),
                                    workloads::constant_cost(30)));
    return program::NestedLoopProgram(std::move(top));
  };
}

/// Every kChunk trace event as (worker, loop, first, count, start, end) in
/// merged order — the grant log two bit-identical runs must agree on.
using ChunkGrant = std::tuple<ProcId, LoopId, i64, i64, Cycles, Cycles>;

std::vector<ChunkGrant> chunk_log(const RunResult& r) {
  std::vector<ChunkGrant> out;
  for (const auto& e : r.trace_events) {
    if (e.kind == trace::EventKind::kChunk) {
      out.emplace_back(e.worker, e.loop, e.first, e.count, e.start, e.end);
    }
  }
  return out;
}

// ------------------------------------------ differential matrix (vtime) --

// ENTER activates a sibling set one instance at a time and publishes each
// into the loop's task-pool list; the matrix runs every strategy kind on
// teams of P = 3G workers, G in {1, 2, 4}.  The suite and test names date
// from when ENTER could batch the walk and G counted lists per loop; they
// are kept so results stay comparable.
class EnterBatchMatrix
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(EnterBatchMatrix, BatchedDoallMatchesSerialOracleAcrossSchedules) {
  const auto [si, g] = GetParam();
  SchedOptions opts;
  opts.strategy = portfolio()[si];
  opts.audit = true;  // audit_abort=true: any lifecycle forgery fails loudly
  runtime::ScheduleSweep sweep;
  sweep.schedules = 4;
  sweep.base_seed = 53;
  const auto d = runtime::differential_check(
      doall_builder(6, 30), /*procs=*/3 * g, EngineKind::kVtime, opts, sweep);
  EXPECT_TRUE(d.ok) << portfolio()[si].name() << " G=" << g << ": "
                    << d.detail;
  EXPECT_EQ(d.schedules_run, 4u);
}

TEST_P(EnterBatchMatrix, BatchedDoacrossMatchesSerialOracleAcrossSchedules) {
  const auto [si, g] = GetParam();
  SchedOptions opts;
  opts.doacross_strategy = portfolio()[si];
  opts.audit = true;
  runtime::ScheduleSweep sweep;
  sweep.schedules = 4;
  sweep.base_seed = 61;
  const auto d = runtime::differential_check(
      doacross_builder(40), /*procs=*/3 * g, EngineKind::kVtime, opts, sweep);
  EXPECT_TRUE(d.ok) << portfolio()[si].name() << " G=" << g << ": "
                    << d.detail;
  EXPECT_EQ(d.schedules_run, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllShardCounts, EnterBatchMatrix,
    ::testing::Combine(::testing::Range(0u, 10u),
                       ::testing::Values(1u, 2u, 4u)));

// ------------------------------------------------- determinism / replay --

TEST(HotpathFlatEquivalence, ExplicitDefaultsAreBitIdenticalToSeedPath) {
  // central_queue=false must not merely be correct — it must take the
  // per-loop-list seed code path: identical makespan, op count and grant
  // log to a run with all-default options, and no shard counter may tick
  // (factoring never shards its index).
  const SchedOptions defaults;
  EXPECT_FALSE(defaults.central_queue) << "one list per loop is the default";
  auto run_with = [](bool explicit_flags) {
    SchedOptions opts;
    opts.strategy = Strategy::factoring();
    if (explicit_flags) opts.central_queue = false;
    opts.trace_events = true;
    auto prog = workloads::nested_pair(4, 50, 30);
    return runtime::run_vtime(prog, 8, opts);
  };
  const RunResult seed = run_with(false);
  const RunResult flat = run_with(true);
  EXPECT_EQ(seed.makespan, flat.makespan);
  EXPECT_EQ(seed.engine_ops, flat.engine_ops);
  EXPECT_EQ(chunk_log(seed), chunk_log(flat));
  EXPECT_EQ(flat.counters.shard_grants, 0u);
  EXPECT_EQ(flat.counters.shard_steals, 0u);
}

// ------------------------------------- eval_bound regression (satellite) --

TEST(HotpathBound, EvalBoundRejectsNegativeConstantBound) {
  // Regression: the constant path used to return the raw value unchecked,
  // so a raw CompiledProgram (no normalizer) fed a negative trip count
  // straight into Icb::init and BAR_COUNT.  The check is host-side and
  // release-mode.
  RContext ctx(0, 1);
  IndexVec ivec;
  EXPECT_EQ(runtime::eval_bound(ctx, program::Bound(7), ivec), 7);
  EXPECT_EQ(runtime::eval_bound(ctx, program::Bound(0), ivec), 0);
  EXPECT_THROW(runtime::eval_bound(ctx, program::Bound(-5), ivec),
               std::logic_error);
}

TEST(HotpathBound, NormalizerNamesTheOffendingLoopInTheDiagnostic) {
  // Regression: the compile-time rejection used to fire before leaf
  // auto-naming and without naming the loop at all, so a multi-loop
  // program's diagnostic gave no way to find the offender.
  auto diag_of = [](program::NodeSeq top) {
    try {
      program::NestedLoopProgram p(std::move(top));
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  program::NodeSeq named;
  named.push_back(program::doall("offender", -3));
  const std::string d1 = diag_of(std::move(named));
  EXPECT_NE(d1.find("offender"), std::string::npos) << d1;
  EXPECT_NE(d1.find("-3"), std::string::npos) << d1;

  // An unnamed leaf is auto-named before the check, so the diagnostic
  // carries the same "L<k>" label every other report uses.
  program::NodeSeq anon;
  anon.push_back(program::doall("", -2));
  const std::string d2 = diag_of(std::move(anon));
  EXPECT_NE(d2.find("L1"), std::string::npos) << d2;

  // Container loops have no leaf name; the diagnostic says so explicitly.
  program::NodeSeq container;
  container.push_back(program::par(-4, program::seq(program::doall("x", 3))));
  const std::string d3 = diag_of(std::move(container));
  EXPECT_NE(d3.find("<anonymous>"), std::string::npos) << d3;
}

// ------------------------------------------------------ ICB-pool sampling --

TEST(HotpathPool, AllocatedIsSafeToSampleUnderChurn) {
  // Regression for the allocated() data race: a host thread sampling the
  // high-water mark while workers churn the freelist must be clean under
  // TSan (the counter is atomic; the freelist stays locked).
  runtime::IcbPool<RContext> pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3000;
  std::atomic<bool> done{false};
  std::atomic<u64> max_seen{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const u64 a = pool.allocated();
      u64 prev = max_seen.load();
      while (a > prev && !max_seen.compare_exchange_weak(prev, a)) {
      }
    }
  });
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&pool, t] {
      RContext ctx(static_cast<ProcId>(t), kThreads);
      std::vector<runtime::Icb<RContext>*> mine;
      for (int r = 0; r < kRounds; ++r) {
        runtime::Icb<RContext>* p = pool.acquire(ctx);
        const i64 b = 1 + r % 7;
        p->init(static_cast<LoopId>(t), b, b, IndexVec{}, r % 3 == 0);
        mine.push_back(p);
        if (mine.size() >= 4) {
          pool.release(ctx, mine.back());
          mine.pop_back();
        }
      }
      for (auto* p : mine) pool.release(ctx, p);
    });
  }
  for (auto& t : team) t.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_LE(pool.allocated(), static_cast<u64>(kThreads) * 5);
  EXPECT_LE(max_seen.load(), pool.allocated());
}

// ------------------------------------------- quiescence token (satellite) --

#ifndef NDEBUG

TEST(HotpathQuiescence, HostAccessorsThrowWhileTokenIsRevoked) {
  // The token is granted by default (hand-driven tests see no change) and
  // revoked by ProgramRun while workers are live; a host-side structural
  // read in that window is the race the SS_DCHECKs now reject.
  runtime::TaskPool<RContext> pool(2);
  pool.set_host_quiescent(false);
  EXPECT_THROW(pool.empty(), std::logic_error);
  EXPECT_THROW(pool.host_clear(), std::logic_error);
  pool.set_host_quiescent(true);
  EXPECT_TRUE(pool.empty());

  runtime::IcbPool<RContext> icbs;
  icbs.set_host_quiescent(false);
  EXPECT_THROW(icbs.host_drain([](runtime::Icb<RContext>*) {}),
               std::logic_error);
  icbs.set_host_quiescent(true);
  icbs.host_drain([](runtime::Icb<RContext>*) {});

  runtime::BarCountTable<RContext> bars(8);
  bars.set_host_quiescent(false);
  EXPECT_THROW(bars.live_counters(), std::logic_error);
  EXPECT_THROW(bars.host_clear(), std::logic_error);
  bars.set_host_quiescent(true);
  EXPECT_EQ(bars.live_counters(), 0u);
}

#endif  // NDEBUG

}  // namespace
}  // namespace selfsched
