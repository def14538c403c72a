// Sharded per-instance dispatch (distributed chunk calculation): the
// differential battery pinning runtime::index_shards_for's rule, which
// gives a `self` Doall of at least kShardMinItersPerWorker iterations per
// worker one index shard per worker on both engines.  Every strategy kind x
// {Doall, Doacross} x G in {1, 2, 4} must preserve the serial iteration
// multiset across a 4-schedule sweep with the auditor shadowing each run; a
// recorded sharded vtime run — including which shard every worker stole
// from — must replay bit-identically; an instance below the threshold must
// be indistinguishable from the flat paper path; and the shard counters
// must obey their conservation relations.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "program/ast.hpp"
#include "runtime/high_level.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/verify.hpp"
#include "workloads/iteration_cost.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

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
/// instances keep the flat index however long they are (docs/sharding.md),
/// so these runs check that chains at a sharding size stay correct.
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

/// The smallest ragged bound at which `self` shards G ways on G workers:
/// one past the threshold, so shard sizes differ by one.
constexpr i64 sharded_bound(u32 g) {
  return runtime::kShardMinItersPerWorker * static_cast<i64>(g) + 1;
}

// ------------------------------------------ differential matrix (vtime) --

/// Parameter G of the matrix: the shard count the rule gives `self`.  G = 1
/// runs 6 workers on short instances (the flat index); G > 1 runs G workers
/// on instances of sharded_bound(G) iterations.
u32 matrix_procs(u32 g) { return g == 1 ? 6 : g; }
i64 matrix_bound(u32 g) { return g == 1 ? 40 : sharded_bound(g); }

class ShardMatrix
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(ShardMatrix, DoallMatchesSerialOracleAcrossSchedules) {
  const auto [si, g] = GetParam();
  SchedOptions opts;
  opts.strategy = portfolio()[si];
  opts.audit = true;  // audit_abort=true: any shard violation fails loudly
  runtime::ScheduleSweep sweep;
  sweep.schedules = 4;
  sweep.base_seed = 31;
  const auto d = runtime::differential_check(
      doall_builder(3, matrix_bound(g)), matrix_procs(g), EngineKind::kVtime,
      opts, sweep);
  EXPECT_TRUE(d.ok) << portfolio()[si].name() << " G=" << g << ": "
                    << d.detail;
  EXPECT_EQ(d.schedules_run, 4u);
}

TEST_P(ShardMatrix, DoacrossMatchesSerialOracleAcrossSchedules) {
  const auto [si, g] = GetParam();
  SchedOptions opts;
  opts.doacross_strategy = portfolio()[si];
  opts.audit = true;
  runtime::ScheduleSweep sweep;
  sweep.schedules = 4;
  sweep.base_seed = 47;
  const auto d = runtime::differential_check(
      doacross_builder(matrix_bound(g)), matrix_procs(g), EngineKind::kVtime,
      opts, sweep);
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
    opts.audit = true;
    const auto d = runtime::differential_check(
        doall_builder(3, sharded_bound(g)), g, EngineKind::kThreads, opts);
    EXPECT_TRUE(d.ok) << "G=" << g << ": " << d.detail;
  }
}

TEST(ShardRandomSweep, RandomProgramsHoldUnderSharding) {
  // Seeded random nests (serial containers, IFs, Doacross leaves, zero and
  // expression bounds) with leaf bounds that straddle the sharding
  // threshold and a seed-derived worker count: flat and sharded instances
  // of every size run side by side, and the structural edge cases flow
  // through the sharded init and election paths.
  for (u64 seed = 800; seed < 808; ++seed) {
    const u32 procs = 2 + static_cast<u32>(seed % 4);
    workloads::RandomProgramConfig cfg;
    cfg.max_depth = 2;
    cfg.max_leaf_bound = 2 * sharded_bound(procs);
    auto builder = [seed, cfg](const program::BodyFactory& bodies) {
      return workloads::random_program(seed, cfg, bodies);
    };
    SchedOptions opts;
    opts.audit = true;
    const auto d = runtime::differential_check(builder, procs,
                                               EngineKind::kVtime, opts);
    EXPECT_TRUE(d.ok) << "seed=" << seed << " P=" << procs << "\n"
                      << d.detail;
  }
}

// ------------------------------------------------- determinism / replay --

TEST(ShardReplay, RecordedShardedRunReplaysBitIdentical) {
  // A sharded run under a seeded-shuffle schedule: record it, replay the
  // decision trace, and require the whole execution — makespan, op count,
  // every grant (worker, loop, first, count, start, end), and the shard
  // counters including which grabs were steals — to match bit for bit.
  for (const u64 seed : {3ull, 9ull}) {
    SchedOptions rec_opts;
    rec_opts.trace_events = true;
    rec_opts.record_schedule = true;
    rec_opts.schedule.kind = vtime::ControllerKind::kSeededShuffle;
    rec_opts.schedule.seed = 100 + seed;
    rec_opts.schedule.jitter = 3;
    const i64 n = sharded_bound(8) + 3;
    auto prog = workloads::flat_doall(n, workloads::constant_cost(40));
    const RunResult recorded = runtime::run_vtime(prog, 8, rec_opts);
    ASSERT_GT(recorded.counters.shard_steals, 0u)
        << "seed=" << seed << ": no steal decisions to replay";

    SchedOptions rep_opts = rec_opts;
    rep_opts.schedule = vtime::replay_of(rec_opts.schedule);
    rep_opts.schedule.decisions = recorded.schedule_decisions;
    auto prog2 = workloads::flat_doall(n, workloads::constant_cost(40));
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
  // A `self` instance below the threshold keeps one index and must take the
  // flat code path: identical makespan, op count and grant log to
  // `chunk:1`, which grabs the same way and never shards.
  auto run_with = [](const Strategy& s) {
    SchedOptions opts;
    opts.strategy = s;
    opts.trace_events = true;
    auto prog = workloads::nested_pair(4, 50, 30);
    return runtime::run_vtime(prog, 8, opts);
  };
  const RunResult self = run_with(Strategy::self());
  const RunResult chunk1 = run_with(Strategy::chunked(1));
  EXPECT_EQ(self.makespan, chunk1.makespan);
  EXPECT_EQ(self.engine_ops, chunk1.engine_ops);
  EXPECT_EQ(chunk_log(self), chunk_log(chunk1));
  EXPECT_EQ(self.counters.shard_grants, 0u);
  EXPECT_EQ(self.counters.shard_steals, 0u);
  EXPECT_EQ(self.counters.cross_shard_ops, 0u);
}

// ----------------------------------------------------- counter semantics --

TEST(ShardCounters, GrantsStealsAndCrossOpsAreConsistent) {
  // Single sharded loop, G=8 on 8 workers: every successful dispatch is a
  // shard grant (shard_grants == dispatches == b, one iteration each),
  // steals are a subset of grants, and every steal was preceded by a
  // cross-shard probe.
  SchedOptions opts;
  opts.audit = true;
  const i64 n = sharded_bound(8);
  auto prog = workloads::flat_doall(n, workloads::constant_cost(25));
  const RunResult r = runtime::run_vtime(prog, 8, opts);
  EXPECT_EQ(r.counters.shard_grants, static_cast<u64>(n));
  EXPECT_EQ(r.counters.shard_grants, r.counters.dispatches);
  EXPECT_LE(r.counters.shard_steals, r.counters.shard_grants);
  EXPECT_GE(r.counters.cross_shard_ops, r.counters.shard_steals);
}

}  // namespace
}  // namespace selfsched
