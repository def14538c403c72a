// The index-shard rule and the threads engine's deferred completion count.
// On both engines a large Doall instance under `self` gets one index shard
// per worker (runtime::index_shards_for), and a worker takes each next
// iteration straight from its home shard until that shard drains
// (runtime/worker.hpp, the grant loop).  On threads a worker publishes its
// completions once per attachment; vtime keeps the per-chunk update.
//
// The binary runs serially (tests/CMakeLists.txt): the sync-op count of a
// threads run includes idle workers' spins, which grow when other tests
// take the cores the run asked for.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "runtime/high_level.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/verify.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

constexpr u32 kShardProcs = 4;
constexpr i64 kLargeFlat = 16384;
static_assert(kLargeFlat >= runtime::kShardMinItersPerWorker * kShardProcs);

program::NestedLoopProgram large_flat(i64 n = kLargeFlat) {
  return workloads::flat_doall(
      n, [](const IndexVec&, i64) -> Cycles { return 20; });
}

runtime::SchedOptions with_strategy(const runtime::Strategy& s) {
  runtime::SchedOptions opts;
  opts.strategy = s;
  return opts;
}

TEST(ThreadsShardPolicy, LargeSelfDoallTakesOneSyncOpPerIteration) {
  // flat_fine's size.  Idle workers' SEARCH probes and teardown spins grow
  // with how long a descheduled peer stays off its core, not with b, so
  // on a loaded host one run can read well above the protocol's cost; the
  // best of five runs reads the protocol.  Each iteration used to cost a
  // grab and an icount update: 2.0.
  constexpr i64 kN = i64{1} << 18;
  const auto prog = large_flat(kN);
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto r = runtime::run_threads(
        prog, kShardProcs, with_strategy(runtime::Strategy::self()));
    EXPECT_EQ(r.total.iterations, static_cast<u64>(kN));
    EXPECT_GT(r.counters.shard_grants, 0u);
    const double per_iter =
        static_cast<double>(r.total.sync_ops) / static_cast<double>(kN);
    best = rep == 0 ? per_iter : std::min(best, per_iter);
  }
  EXPECT_LE(best, 1.1);
}

TEST(ThreadsShardPolicy, SmallDoacrossAndOtherStrategiesKeepOneIndex) {
  const auto expect_flat = [](const program::NestedLoopProgram& prog,
                              const runtime::SchedOptions& opts, i64 iters,
                              const char* what) {
    const auto r = runtime::run_threads(prog, kShardProcs, opts);
    EXPECT_EQ(r.total.iterations, static_cast<u64>(iters)) << what;
    EXPECT_EQ(r.counters.shard_grants, 0u) << what;
    EXPECT_EQ(r.counters.cross_shard_ops, 0u) << what;
  };
  const auto self = with_strategy(runtime::Strategy::self());
  const i64 small = runtime::kShardMinItersPerWorker * kShardProcs - 1;
  expect_flat(large_flat(small), self, small, "small instance");

  program::NodeSeq top;
  top.push_back(program::doacross(
      "chain", kLargeFlat, program::DoacrossSpec{1, 0.3}, nullptr,
      [](const IndexVec&, i64) -> Cycles { return 20; }));
  expect_flat(program::NestedLoopProgram(std::move(top)), self, kLargeFlat,
              "Doacross");

  expect_flat(large_flat(), with_strategy(runtime::Strategy::gss()),
              kLargeFlat, "GSS");
  expect_flat(large_flat(), with_strategy(runtime::Strategy::chunked(4)),
              kLargeFlat, "chunk:4");
}

TEST(ThreadsShardPolicy, GrantLoopGrantsEveryIterationExactlyOnce) {
  // The grant loop claims a worker's next iteration straight from its home
  // shard and steals only once that shard is drained.  At P = 2, P = 4 and
  // more workers than cores, every grant must still be one shard grant of
  // one iteration, every iteration must run exactly once against the serial
  // oracle, and the auditor's shard and icount rules must stay silent.
  const u32 cores = std::max(1u, std::thread::hardware_concurrency());
  for (const u32 procs : {2u, 4u, 2 * cores}) {
    const i64 b = runtime::kShardMinItersPerWorker * procs * 4 + 3;
    auto opts = with_strategy(runtime::Strategy::self());
    opts.audit = true;
    const auto r = runtime::run_threads(large_flat(b), procs, opts);
    const auto ub = static_cast<u64>(b);
    EXPECT_EQ(r.counters.dispatches, ub) << "P=" << procs;
    EXPECT_EQ(r.counters.shard_grants, ub) << "P=" << procs;
    EXPECT_EQ(r.total.dispatches, ub) << "P=" << procs;
    EXPECT_EQ(r.total.iterations, ub) << "P=" << procs;
    EXPECT_LE(r.counters.shard_steals, r.counters.shard_grants)
        << "P=" << procs;
    EXPECT_EQ(r.audit_violations, 0u) << "P=" << procs << "\n"
                                      << r.audit_report;

    const runtime::ProgramBuilder build =
        [b](const program::BodyFactory& bodies) {
          return workloads::flat_doall(
              b, [](const IndexVec&, i64) -> Cycles { return 20; },
              bodies("flat"));
        };
    const auto d = runtime::differential_check(
        build, procs, runtime::EngineKind::kThreads, opts);
    EXPECT_TRUE(d.ok) << "P=" << procs << ": " << d.detail;
    EXPECT_EQ(d.parallel_iterations, ub) << "P=" << procs;
  }
}

TEST(ThreadsShardPolicy, VtimeShardsLikeThreadsAndKeepsPerChunkUpdate) {
  // The suite's large flat program on vtime: every grab comes from a shard,
  // as on threads, and each is followed by its own icount update, so the
  // run stays at two sync ops per iteration plus the steal probes and the
  // drained-shard election.
  const auto r = runtime::run_vtime(large_flat(), kShardProcs,
                                    with_strategy(runtime::Strategy::self()));
  EXPECT_EQ(r.total.iterations, static_cast<u64>(kLargeFlat));
  EXPECT_EQ(r.counters.shard_grants, static_cast<u64>(kLargeFlat));
  EXPECT_EQ(r.total.sync_ops, 32932u);
  EXPECT_EQ(r.makespan, 180847);
}

TEST(ThreadsShardPolicy, AuditedLargeFlatRunsAreClean) {
  // The shard auditor rules (grants, drains, the completion election) and
  // the icount rules (overrun, completed twice) over the same runs.
  auto opts = with_strategy(runtime::Strategy::self());
  opts.audit = true;
  for (int rep = 0; rep < 5; ++rep) {
    const auto r = runtime::run_threads(large_flat(), kShardProcs, opts);
    EXPECT_EQ(r.total.iterations, static_cast<u64>(kLargeFlat));
    EXPECT_GT(r.counters.shard_grants, 0u);
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  }
}

TEST(ThreadsShardPolicy, CancelledMidFlightDrainsClean) {
  // A body fault halfway through shard 1 cancels the run while the other
  // workers hold unpublished completions in their own shards.  The run
  // must fail with that record, and the drain must leave the auditor
  // silent.
  constexpr i64 kBad = kLargeFlat * 3 / 8;
  const auto prog = workloads::flat_doall(
      kLargeFlat, nullptr, [](ProcId, const IndexVec&, i64 j) {
        if (j == kBad) throw std::runtime_error("boom");
      });
  auto opts = with_strategy(runtime::Strategy::self());
  opts.on_body_error = runtime::OnBodyError::kReturn;
  opts.audit = true;
  opts.audit_abort = false;
  for (int rep = 0; rep < 5; ++rep) {
    const auto r = runtime::run_threads(prog, kShardProcs, opts);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_EQ(r.failure->kind, fault::FailureRecord::Kind::kBodyException);
    EXPECT_EQ(r.counters.cancellations, 1u);
    EXPECT_GT(r.counters.shard_grants, 0u);
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  }
}

}  // namespace
}  // namespace selfsched
