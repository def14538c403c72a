// Sharded per-instance dispatch (distributed chunk calculation, ISSUE 8):
// the differential battery pinning SchedOptions::index_shards.  Every
// strategy kind x {Doall, Doacross} x G in {1, 2, 4} must preserve the
// serial iteration multiset across a 4-schedule sweep with the auditor
// shadowing each run; a recorded sharded vtime run — including which shard
// every worker stole from — must replay bit-identically; G=1 must be
// indistinguishable from the flat paper path; and the new shard counters
// must obey their conservation relations.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "program/ast.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/verify.hpp"
#include "vtime/costs.hpp"
#include "workloads/iteration_cost.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using runtime::EngineKind;
using runtime::RunResult;
using runtime::SchedOptions;
using runtime::Strategy;

/// The full strategy portfolio, in Kind order, plus min-chunk GSS and
/// factoring in slots 6 and 8 so the step recurrence's clamp is
/// differential-tested too (the positional test names stay put).
const std::vector<Strategy>& portfolio() {
  static const std::vector<Strategy> p = {
      Strategy::self(),
      Strategy::chunked(3),
      Strategy::gss(),
      Strategy::factoring(),
      Strategy::trapezoid(8, 2),
      Strategy::factoring2(),
      Strategy::gss(4),
      Strategy::trapezoid_tuned(),
      Strategy::factoring(3),
      Strategy::adaptive(),
  };
  return p;
}

/// Doall nest: an outer parallel loop of n1 instances of an inner Doall of
/// n2 iterations — several concurrent instances, each with its own sharded
/// index, plus instance churn through the ICB pool (shard-array recycling).
runtime::ProgramBuilder doall_builder(i64 n1, i64 n2) {
  return [n1, n2](const program::BodyFactory& bodies) {
    program::NodeSeq top;
    top.push_back(program::par(
        n1, program::seq(program::doall("inner", n2, bodies("inner"),
                                        workloads::constant_cost(20)))));
    return program::NestedLoopProgram(std::move(top));
  };
}

/// Single Doacross chain of n iterations, dependence distance 2.  Doacross
/// instances keep the flat index whatever G is (docs/sharding.md), so these
/// runs check that a G > 1 setting leaves chains correct.
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

class ShardMatrix
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(ShardMatrix, DoallMatchesSerialOracleAcrossSchedules) {
  const auto [si, g] = GetParam();
  SchedOptions opts;
  opts.strategy = portfolio()[si];
  opts.index_shards = g;
  opts.audit = true;  // audit_abort=true: any shard violation fails loudly
  runtime::ScheduleSweep sweep;
  sweep.schedules = 4;
  sweep.base_seed = 31;
  const auto d = runtime::differential_check(
      doall_builder(3, 40), /*procs=*/6, EngineKind::kVtime, opts, sweep);
  EXPECT_TRUE(d.ok) << portfolio()[si].name() << " G=" << g << ": "
                    << d.detail;
  EXPECT_EQ(d.schedules_run, 4u);
}

TEST_P(ShardMatrix, DoacrossMatchesSerialOracleAcrossSchedules) {
  const auto [si, g] = GetParam();
  SchedOptions opts;
  opts.doacross_strategy = portfolio()[si];
  opts.index_shards = g;
  opts.audit = true;
  runtime::ScheduleSweep sweep;
  sweep.schedules = 4;
  sweep.base_seed = 47;
  const auto d = runtime::differential_check(
      doacross_builder(40), /*procs=*/6, EngineKind::kVtime, opts, sweep);
  EXPECT_TRUE(d.ok) << portfolio()[si].name() << " G=" << g << ": "
                    << d.detail;
  EXPECT_EQ(d.schedules_run, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllShardCounts, ShardMatrix,
    ::testing::Combine(::testing::Range(0u, 10u),
                       ::testing::Values(1u, 2u, 4u)));

TEST(ShardThreads, ShardedMatchesSerialOracleOnThreads) {
  // Real contention: the sharded grab/steal/election protocol under actual
  // threads, audited, against the serial oracle.
  for (const u32 g : {2u, 4u}) {
    SchedOptions opts;
    opts.strategy = Strategy::gss();
    opts.index_shards = g;
    opts.audit = true;
    const auto d = runtime::differential_check(
        doall_builder(3, 60), /*procs=*/4, EngineKind::kThreads, opts);
    EXPECT_TRUE(d.ok) << "G=" << g << ": " << d.detail;
  }
}

TEST(ShardRandomSweep, RandomProgramsHoldUnderSharding) {
  // Seeded random nests (serial containers, IFs, Doacross leaves, zero and
  // expression bounds) with a seed-derived shard count: the structural
  // edge cases — b=0, b < G, single-iteration instances — all flow through
  // the sharded init and election paths.
  for (u64 seed = 800; seed < 808; ++seed) {
    auto builder = [seed](const program::BodyFactory& bodies) {
      return workloads::random_program(seed, {}, bodies);
    };
    SchedOptions opts;
    opts.index_shards = 1 + static_cast<u32>(seed % 4);
    opts.audit = true;
    const auto d = runtime::differential_check(builder, 5, EngineKind::kVtime,
                                               opts);
    EXPECT_TRUE(d.ok) << "seed=" << seed << " G=" << opts.index_shards << "\n"
                      << d.detail;
  }
}

// ------------------------------------------------- determinism / replay --

TEST(ShardReplay, RecordedShardedRunReplaysBitIdentical) {
  // A sharded run under the NUMA topology model, seeded-shuffle schedule:
  // record it, replay the decision trace, and require the whole execution
  // — makespan, op count, every grant (worker, loop, first, count, start,
  // end), and the shard counters including which grabs were steals — to
  // match bit for bit.
  for (const u64 seed : {3ull, 9ull}) {
    SchedOptions rec_opts;
    rec_opts.strategy = Strategy::gss();
    rec_opts.index_shards = 4;
    rec_opts.costs = vtime::CostModel::numa(4);
    rec_opts.trace_events = true;
    rec_opts.record_schedule = true;
    rec_opts.schedule.kind = vtime::ControllerKind::kSeededShuffle;
    rec_opts.schedule.seed = 100 + seed;
    rec_opts.schedule.jitter = 3;
    auto prog = workloads::flat_doall(300, workloads::constant_cost(40));
    const RunResult recorded = runtime::run_vtime(prog, 8, rec_opts);
    ASSERT_GT(recorded.counters.shard_steals, 0u)
        << "seed=" << seed << ": no steal decisions to replay";

    SchedOptions rep_opts = rec_opts;
    rep_opts.schedule = vtime::replay_of(rec_opts.schedule);
    rep_opts.schedule.decisions = recorded.schedule_decisions;
    auto prog2 = workloads::flat_doall(300, workloads::constant_cost(40));
    const RunResult replayed = runtime::run_vtime(prog2, 8, rep_opts);

    EXPECT_FALSE(replayed.schedule_diverged) << "seed=" << seed;
    EXPECT_EQ(recorded.makespan, replayed.makespan) << "seed=" << seed;
    EXPECT_EQ(recorded.engine_ops, replayed.engine_ops) << "seed=" << seed;
    EXPECT_EQ(recorded.schedule_decisions, replayed.schedule_decisions);
    EXPECT_EQ(chunk_log(recorded), chunk_log(replayed)) << "seed=" << seed;
    EXPECT_EQ(recorded.counters.shard_grants, replayed.counters.shard_grants);
    EXPECT_EQ(recorded.counters.shard_steals, replayed.counters.shard_steals);
    EXPECT_EQ(recorded.counters.cross_shard_ops,
              replayed.counters.cross_shard_ops);
    EXPECT_EQ(recorded.trace_events_dropped, 0u);
  }
}

TEST(ShardFlatEquivalence, SingleShardIsBitIdenticalToDefaultPath) {
  // index_shards=1 must not merely be correct — it must take the flat code
  // path: identical makespan, op count, and grant log to a run with the
  // default options, under both the uniform and the NUMA cost models.
  for (const bool numa : {false, true}) {
    auto run_with = [numa](u32 shards) {
      SchedOptions opts;
      opts.strategy = Strategy::factoring2();
      opts.index_shards = shards;
      if (numa) opts.costs = vtime::CostModel::numa(4);
      opts.trace_events = true;
      auto prog = workloads::nested_pair(4, 50, 30);
      return runtime::run_vtime(prog, 8, opts);
    };
    const SchedOptions defaults;
    EXPECT_EQ(defaults.index_shards, 1u) << "flat layout must be the default";
    const RunResult flat = run_with(1);
    const RunResult again = run_with(1);
    EXPECT_EQ(flat.makespan, again.makespan) << "numa=" << numa;
    EXPECT_EQ(flat.engine_ops, again.engine_ops) << "numa=" << numa;
    EXPECT_EQ(chunk_log(flat), chunk_log(again)) << "numa=" << numa;
    EXPECT_EQ(flat.counters.shard_grants, 0u);
    EXPECT_EQ(flat.counters.shard_steals, 0u);
    EXPECT_EQ(flat.counters.cross_shard_ops, 0u);
  }
}

// ----------------------------------------------------- counter semantics --

TEST(ShardCounters, GrantsStealsAndCrossOpsAreConsistent) {
  // Single sharded loop, G=4 on 8 workers: every successful dispatch is a
  // shard grant (shard_grants == dispatches), steals are a subset of
  // grants, and every steal was preceded by a cross-shard probe.
  SchedOptions opts;
  opts.strategy = Strategy::gss();
  opts.index_shards = 4;
  opts.audit = true;
  auto prog = workloads::flat_doall(400, workloads::constant_cost(25));
  const RunResult r = runtime::run_vtime(prog, 8, opts);
  EXPECT_GT(r.counters.shard_grants, 0u);
  EXPECT_EQ(r.counters.shard_grants, r.counters.dispatches);
  EXPECT_LE(r.counters.shard_steals, r.counters.shard_grants);
  EXPECT_GE(r.counters.cross_shard_ops, r.counters.shard_steals);
}

TEST(ShardCounters, DegenerateBoundLeavesEmptyShardsUngranted) {
  // b=3 split 8 ways: only 3 live shards; the run must still complete with
  // exactly b iterations dispatched and the auditor silent.
  SchedOptions opts;
  opts.strategy = Strategy::self();
  opts.index_shards = 8;
  opts.audit = true;
  auto prog = workloads::flat_doall(3, workloads::constant_cost(25));
  const RunResult r = runtime::run_vtime(prog, 8, opts);
  EXPECT_EQ(r.total.iterations, 3u);
  EXPECT_EQ(r.counters.shard_grants, 3u);
}

// ------------------------------------------------- topology cost model --

TEST(ShardTopology, FlatIndexPaysRemoteHopsAndShardingRecoversThem) {
  // Under CostModel::numa(4) the flat index is homed in topology group 0,
  // so ~3/4 of all dispatches pay cross_group_sync_extra; sharding G=4
  // aligns each worker's home shard with its own group and recovers the
  // premium.  Deterministic canonical schedule, dispatch-heavy workload.
  auto run_with = [](u32 shards, const vtime::CostModel& cm) {
    SchedOptions opts;
    opts.strategy = Strategy::self();  // one grab per iteration: max traffic
    opts.index_shards = shards;
    opts.costs = cm;
    auto prog = workloads::nested_pair(8, 64, 20);
    return runtime::run_vtime(prog, 8, opts);
  };
  const Cycles flat_uniform = run_with(1, vtime::CostModel::cedar()).makespan;
  const Cycles flat_numa = run_with(1, vtime::CostModel::numa(4)).makespan;
  const Cycles sharded_numa = run_with(4, vtime::CostModel::numa(4)).makespan;
  EXPECT_GT(flat_numa, flat_uniform)
      << "flat index must pay the remote-hop premium under the NUMA model";
  EXPECT_LT(sharded_numa, flat_numa)
      << "sharding must recover the cross-group dispatch premium";
}

}  // namespace
}  // namespace selfsched
