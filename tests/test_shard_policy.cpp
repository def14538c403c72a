// The threads engine's index-shard policy and deferred completion count.
// On threads the default index_shards gives a large Doall instance under
// `self` one index shard per worker, and a worker publishes its completions
// once per attachment (runtime::index_shards_for, runtime/worker.hpp).
// vtime keeps the flat index and the per-chunk update.
//
// The binary runs serially (tests/CMakeLists.txt): the sync-op count of a
// threads run includes idle workers' spins, which grow when other tests
// take the cores the run asked for.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "runtime/high_level.hpp"
#include "runtime/scheduler.hpp"
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
  expect_flat(large_flat(), with_strategy(runtime::Strategy::adaptive()),
              kLargeFlat, "adaptive");
}

TEST(ThreadsShardPolicy, VtimeKeepsTheFlatIndexAndPerChunkUpdate) {
  // The suite's large flat program on vtime: a grab and an icount update
  // per iteration, pinned to the values the engine gave before threads
  // deferred the update.
  const auto r = runtime::run_vtime(large_flat(), kShardProcs,
                                    with_strategy(runtime::Strategy::self()));
  EXPECT_EQ(r.total.iterations, static_cast<u64>(kLargeFlat));
  EXPECT_EQ(r.counters.shard_grants, 0u);
  EXPECT_EQ(r.total.sync_ops, 32910u);
  EXPECT_EQ(r.makespan, 180786);
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
