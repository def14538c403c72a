// Tests of the invariant auditor (src/audit): the shadow state machine's
// directed violation rules, zero false positives across the workload suite
// on both engines, vtime bit-identity with auditing on, BAR_COUNT
// reclamation (including guard-chain vacuous-completion paths), and the
// fault-injection acceptance path — an injected double-release must yield a
// structured report that replays deterministically via kReplay.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/auditor.hpp"
#include "audit/hooks.hpp"
#include "exec/real_context.hpp"
#include "program/fig1.hpp"
#include "runtime/high_level.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "vtime/context.hpp"
#include "vtime/engine.hpp"
#include "vtime/schedule_ctrl.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using audit::Auditor;
using audit::Violation;
using runtime::RunResult;
using runtime::SchedOptions;
using vtime::ControllerKind;

bool has_rule(const Auditor& a, const std::string& rule) {
  for (const Violation& v : a.violations()) {
    if (v.rule == rule) return true;
  }
  return false;
}

/// Drive one fake ICB through the clean lifecycle.
void clean_cycle(Auditor& a, const void* icb, LoopId loop = 3, i64 bound = 4) {
  ASSERT_EQ(a.on_acquire(0, icb), 0u);
  ASSERT_EQ(a.on_publish(0, icb, loop, 0xabcdu, bound, 1), 0u);
  ASSERT_EQ(a.on_attach(1, icb), 0u);
  ASSERT_EQ(a.on_dispatch(1, icb, 1, bound), 0u);
  ASSERT_EQ(a.on_unlink(1, icb), 0u);
  ASSERT_EQ(a.on_complete(1, icb, 0, bound), 0u);
  ASSERT_EQ(a.on_detach(1, icb), 0u);
  ASSERT_EQ(a.on_release(1, icb), 0u);
}

// ------------------------------------------- directed state-machine rules --

TEST(Auditor, CleanLifecycleRecordsNoViolations) {
  Auditor a;
  int icb = 0;
  clean_cycle(a, &icb);
  a.on_terminate(0);
  EXPECT_EQ(a.on_quiescence(true, 0, 0), 0u);
  EXPECT_EQ(a.violation_count(), 0u);
  EXPECT_GT(a.events(), 0u);
}

TEST(Auditor, RecycledIcbGetsAFreshGeneration) {
  Auditor a;
  int icb = 0;
  clean_cycle(a, &icb);
  clean_cycle(a, &icb);  // second generation of the same address
  EXPECT_EQ(a.on_quiescence(true, 0, 0), 0u);
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST(Auditor, AcquireOfLiveIcbIsViolation) {
  Auditor a;
  int icb = 0;
  EXPECT_EQ(a.on_acquire(0, &icb), 0u);
  EXPECT_EQ(a.on_acquire(1, &icb), 1u);
  EXPECT_TRUE(has_rule(a, "acquire-live-icb"));
}

TEST(Auditor, PublishWithoutAcquireIsViolation) {
  Auditor a;
  int icb = 0;
  EXPECT_GE(a.on_publish(0, &icb, 0, 0, 4, 0), 1u);
  EXPECT_TRUE(has_rule(a, "publish-unacquired"));
}

TEST(Auditor, PublishAfterTerminationIsViolation) {
  Auditor a;
  int icb = 0;
  a.on_terminate(2);
  a.on_acquire(0, &icb);
  EXPECT_GE(a.on_publish(0, &icb, 0, 0, 4, 0), 1u);
  EXPECT_TRUE(has_rule(a, "publish-after-termination"));
}

TEST(Auditor, AttachToUnpublishedIcbIsViolation) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  EXPECT_EQ(a.on_attach(1, &icb), 1u);
  EXPECT_TRUE(has_rule(a, "attach-unpublished"));
}

TEST(Auditor, DetachObservingNonPositivePcountIsViolation) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 0, 0, 4, 0);
  EXPECT_EQ(a.on_detach_fetched(1, 0), 1u);
  EXPECT_TRUE(has_rule(a, "pcount-negative"));
}

TEST(Auditor, DispatchFromReleasedIcbIsViolation) {
  Auditor a;
  int icb = 0;
  clean_cycle(a, &icb);
  EXPECT_GE(a.on_dispatch(2, &icb, 1, 1), 1u);
  EXPECT_TRUE(has_rule(a, "dispatch-from-released"));
}

TEST(Auditor, DispatchBeyondBoundIsViolation) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 0, 0, 4, 0);
  EXPECT_EQ(a.on_dispatch(1, &icb, 4, 2), 1u);  // [4,5] of bound 4
  EXPECT_TRUE(has_rule(a, "dispatch-out-of-range"));
}

TEST(Auditor, IcountOverrunAndDoubleCompletionAreViolations) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 0, 0, 4, 0);
  EXPECT_EQ(a.on_complete(1, &icb, 0, 4), 0u);   // reaches bound: fine
  EXPECT_GE(a.on_complete(1, &icb, 2, 3), 1u);   // 5 > 4: overrun
  EXPECT_TRUE(has_rule(a, "icount-overrun"));
  EXPECT_GE(a.on_complete(2, &icb, 0, 4), 1u);   // bound reached twice
  EXPECT_TRUE(has_rule(a, "icount-completed-twice"));
}

TEST(Auditor, UnlinkOfNonPublishedIcbIsViolation) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  EXPECT_EQ(a.on_unlink(0, &icb), 1u);
  EXPECT_TRUE(has_rule(a, "unlink-unpublished"));
}

TEST(Auditor, DoubleReleaseIsViolation) {
  Auditor a;
  int icb = 0;
  clean_cycle(a, &icb);
  EXPECT_GE(a.on_release(0, &icb), 1u);
  EXPECT_TRUE(has_rule(a, "double-release"));
}

TEST(Auditor, ReleaseOfStillLinkedIcbIsViolation) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 0, 0, 4, 0);
  EXPECT_GE(a.on_release(0, &icb), 1u);  // never unlinked
  EXPECT_TRUE(has_rule(a, "release-while-linked"));
}

TEST(Auditor, ReleaseBeforeIcountCompletionIsViolation) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 0, 0, 4, 0);
  a.on_unlink(0, &icb);
  EXPECT_GE(a.on_release(0, &icb), 1u);  // icount never reached the bound
  EXPECT_TRUE(has_rule(a, "release-before-completion"));
}

TEST(Auditor, DoacrossDoublePostAndRangeAreViolations) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 0, 0, 4, 0);
  EXPECT_EQ(a.on_da_post(1, &icb, 2), 0u);
  EXPECT_EQ(a.on_da_post(1, &icb, 2), 1u);
  EXPECT_TRUE(has_rule(a, "da-double-post"));
  EXPECT_EQ(a.on_da_post(1, &icb, 5), 1u);
  EXPECT_TRUE(has_rule(a, "da-post-out-of-range"));
}

TEST(Auditor, BarCountOverrunAndLeakAreViolations) {
  Auditor a;
  EXPECT_EQ(a.on_bar_count(0, 7, true, 1, 2, false), 0u);
  EXPECT_GE(a.on_bar_count(1, 7, false, 3, 2, false), 1u);
  EXPECT_TRUE(has_rule(a, "bar-count-overrun"));
  // The counter of loop uid 7 was never reclaimed:
  EXPECT_GE(a.on_quiescence(true, 1, 0), 1u);
  EXPECT_TRUE(has_rule(a, "bar-count-leak"));
}

TEST(Auditor, QuiescenceCatchesLeakedStateAndBalances) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 2, 0, 4, 0);
  a.on_attach(1, &icb);
  // Never detached, never released, pool not drained, outstanding stuck.
  const u32 v = a.on_quiescence(false, 0, 1);
  EXPECT_GE(v, 4u);
  EXPECT_TRUE(has_rule(a, "pool-not-drained"));
  EXPECT_TRUE(has_rule(a, "outstanding-not-drained"));
  EXPECT_TRUE(has_rule(a, "icb-leaked"));
  EXPECT_TRUE(has_rule(a, "pcount-not-drained"));
}

// ------------------------------------------- sharded-index conservation --

/// Drive one fake sharded ICB (bound 4, G=2: shard 0 owns [1,2], shard 1
/// owns [3,4]) through the clean sharded lifecycle.
void clean_sharded_cycle(Auditor& a, const void* icb) {
  ASSERT_EQ(a.on_acquire(0, icb), 0u);
  ASSERT_EQ(a.on_publish(0, icb, 3, 0xabcdu, 4, 1, /*shards=*/2), 0u);
  ASSERT_EQ(a.on_attach(1, icb), 0u);
  ASSERT_EQ(a.on_shard_grant(1, icb, 0, 1, 2, /*stolen=*/false), 0u);
  ASSERT_EQ(a.on_shard_exhaust(1, icb, 0, /*elected=*/false), 0u);
  ASSERT_EQ(a.on_shard_grant(1, icb, 1, 3, 2, /*stolen=*/true), 0u);
  ASSERT_EQ(a.on_shard_exhaust(1, icb, 1, /*elected=*/true), 0u);
  ASSERT_EQ(a.on_unlink(1, icb), 0u);
  ASSERT_EQ(a.on_complete(1, icb, 0, 4), 0u);
  ASSERT_EQ(a.on_detach(1, icb), 0u);
}

TEST(AuditShard, CleanShardedLifecycleRecordsNoViolations) {
  Auditor a;
  int icb = 0;
  clean_sharded_cycle(a, &icb);
  EXPECT_EQ(a.on_release(1, &icb), 0u);  // shard-sum checks run here
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST(AuditShard, ForgedDoubleCompletionAcrossShardsIsViolation) {
  // Two shards both claim to have won the completion election: the second
  // elected exhaust trips shard-completion-twice immediately, and the
  // release-time tally trips shard-election-count.
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 3, 0, 4, 1, /*shards=*/2);
  a.on_shard_grant(1, &icb, 0, 1, 2, false);
  EXPECT_EQ(a.on_shard_exhaust(1, &icb, 0, /*elected=*/true), 0u);
  a.on_shard_grant(2, &icb, 1, 3, 2, true);
  EXPECT_GE(a.on_shard_exhaust(2, &icb, 1, /*elected=*/true), 1u);
  EXPECT_TRUE(has_rule(a, "shard-completion-twice"));
  a.on_unlink(1, &icb);
  a.on_complete(1, &icb, 0, 4);
  EXPECT_GE(a.on_release(1, &icb), 1u);
  EXPECT_TRUE(has_rule(a, "shard-election-count"));
}

TEST(AuditShard, GrantAfterStealDrainIsViolation) {
  // Shard 0 (size 2) is drained, then a forged grant pulls one more
  // iteration from it — the per-shard grant sum overruns the shard size.
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 3, 0, 4, 1, /*shards=*/2);
  EXPECT_EQ(a.on_shard_grant(1, &icb, 0, 1, 2, false), 0u);
  a.on_shard_exhaust(1, &icb, 0, false);
  EXPECT_GE(a.on_shard_grant(2, &icb, 0, 1, 1, /*stolen=*/true), 1u);
  EXPECT_TRUE(has_rule(a, "shard-grant-overrun"));
  EXPECT_GE(a.on_shard_exhaust(2, &icb, 0, false), 1u);
  EXPECT_TRUE(has_rule(a, "shard-drained-twice"));
}

TEST(AuditShard, GrantOutsideShardGeometryIsViolation) {
  // The auditor recomputes each shard's range from (bound, G) and never
  // trusts the runtime: a grant whose range belongs to shard 0 but is
  // attributed to shard 1 is out of that shard's geometry, and a grant
  // from a shard id past G doesn't even resolve to a range.
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 3, 0, 4, 1, /*shards=*/2);
  EXPECT_GE(a.on_shard_grant(1, &icb, 1, 1, 2, false), 1u);
  EXPECT_TRUE(has_rule(a, "shard-grant-out-of-range"));
  EXPECT_GE(a.on_shard_grant(1, &icb, 5, 1, 1, false), 1u);
  EXPECT_TRUE(has_rule(a, "shard-id-out-of-range"));
}

TEST(AuditShard, ReleaseCatchesUndrainedShardAndBrokenConservation) {
  // Shard 1's iterations are never granted: at release the per-shard
  // grant sums no longer add to the bound and shard 1 was never drained —
  // the conservation law fires even though every delivered hook looked
  // locally plausible.
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 3, 0, 4, 1, /*shards=*/2);
  a.on_shard_grant(1, &icb, 0, 1, 2, false);
  a.on_shard_exhaust(1, &icb, 0, /*elected=*/false);
  a.on_unlink(1, &icb);
  a.on_complete(1, &icb, 0, 4);
  EXPECT_GE(a.on_release(1, &icb), 3u);
  EXPECT_TRUE(has_rule(a, "shard-conservation"));
  EXPECT_TRUE(has_rule(a, "shard-not-drained"));
  EXPECT_TRUE(has_rule(a, "shard-election-count"));
}

TEST(AuditShard, CleanShardedSweepsAreSilentOnBothEngines) {
  // End to end: audited sharded runs across shard counts on both engines
  // must deliver shard hooks (audit_events > 0) and zero violations.  A
  // `self` instance of kShardMinItersPerWorker * G + 1 iterations on G
  // workers gets G ragged shards.
  for (const u32 g : {2u, 4u}) {
    const i64 n = runtime::kShardMinItersPerWorker * g + 1;
    SchedOptions opts;
    Auditor vsink;
    opts.audit_sink = &vsink;
    const RunResult rv =
        runtime::run_vtime(workloads::nested_pair(3, n, 25), g, opts);
    EXPECT_EQ(rv.audit_violations, 0u) << "vtime G=" << g << "\n"
                                       << rv.audit_report;
    EXPECT_GT(rv.counters.audit_events, 0u);
    EXPECT_GT(rv.counters.shard_grants, 0u);

    Auditor tsink;
    opts.audit_sink = &tsink;
    const RunResult rt =
        runtime::run_threads(workloads::nested_pair(3, n, 25), g, opts);
    EXPECT_EQ(rt.audit_violations, 0u) << "threads G=" << g << "\n"
                                       << rt.audit_report;
    EXPECT_GT(rt.counters.audit_events, 0u);
    EXPECT_GT(rt.counters.shard_grants, 0u);
  }
}

TEST(Auditor, ViolationStorageCapsButCountKeepsRunning) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  for (u32 k = 0; k < 2 * Auditor::kMaxStoredViolations; ++k) {
    a.on_attach(0, &icb);  // attach-unpublished every time
  }
  EXPECT_EQ(a.violation_count(), 2 * Auditor::kMaxStoredViolations);
  EXPECT_EQ(a.violations().size(), Auditor::kMaxStoredViolations);
  const std::string rep = a.report();
  EXPECT_NE(rep.find("further violation(s) not stored"), std::string::npos);
}

TEST(Auditor, ReportCarriesIdentityAndScheduleDecisions) {
  Auditor a;
  int icb = 0;
  a.on_acquire(4, &icb);
  a.on_publish(4, &icb, 9, 0x1234u, 3, 0);
  a.on_attach(4, &icb);
  a.on_attach(4, &icb);  // second attach is fine; force one violation below
  a.on_release(4, &icb);
  ASSERT_GT(a.violation_count(), 0u);
  const std::string rep = a.report({2, 0, 1});
  EXPECT_NE(rep.find("release-while-linked"), std::string::npos);
  EXPECT_NE(rep.find("worker=4"), std::string::npos);
  EXPECT_NE(rep.find("loop=9"), std::string::npos);
  EXPECT_NE(rep.find("kReplay"), std::string::npos);
  EXPECT_NE(rep.find(" 2 0 1"), std::string::npos);
}

// ------------------------------------------------- hook ordering (detach) --

/// RContext that runs `on_pcount_decrement` right after a {pcount ;
/// Decrement} on `pcount` lands, before control returns to the scheduler:
/// the window in which a peer can release and re-acquire the ICB.
struct DetachWindowCtx : exec::RContext {
  using exec::RContext::RContext;

  sync::SyncResult sync_op(Sync& v, sync::Test t, i64 test_value, sync::Op op,
                           i64 operand = 0) {
    const sync::SyncResult r =
        exec::RContext::sync_op(v, t, test_value, op, operand);
    if (&v == pcount && op == sync::Op::kDecrement && on_pcount_decrement) {
      std::exchange(on_pcount_decrement, nullptr)();
    }
    return r;
  }

  const Sync* pcount = nullptr;
  std::function<void()> on_pcount_decrement;
};

TEST(AuditHookOrder, DetachBalanceLandsOnTheGenerationItLeft) {
  // Worker 0 attaches, then yields through the detach path.  Right after
  // its {pcount ; Decrement} lands, worker 1 finishes the instance,
  // releases the ICB and re-acquires the block as a new generation.  The
  // detach's balance hook must reach the generation the worker left; one
  // delivered after the decrement is charged to the new generation and
  // reads as "pcount-not-drained" at quiescence.
  const program::NestedLoopProgram prog = workloads::flat_doall(4, nullptr);
  Auditor a;
  runtime::SchedState<DetachWindowCtx> st(prog.tables(), SchedOptions{});
  DetachWindowCtx ctx(0, 2);
  ctx.set_audit_sink(&a);
  runtime::seed_program(ctx, st);
  runtime::Icb<DetachWindowCtx>* ip = st.pool.list_head(st.list_of(0));
  ASSERT_NE(ip, nullptr);
  ctx.pcount = &ip->pcount;
  ctx.on_pcount_decrement = [&] {
    a.on_unlink(1, ip);
    a.on_complete(1, ip, 0, ip->bound);
    a.on_release(1, ip);
    a.on_acquire(1, ip);
  };
  int polls = 0;
  EXPECT_EQ(runtime::worker_session(ctx, st, [&] { return polls++ > 0; }),
            runtime::SessionExit::kYield);
  EXPECT_EQ(ctx.on_pcount_decrement, nullptr) << "the detach never ran";
  // The new generation runs a clean lifecycle of its own.
  a.on_publish(1, ip, 0, 0, ip->bound, 0);
  a.on_unlink(1, ip);
  a.on_complete(1, ip, 0, ip->bound);
  a.on_release(1, ip);
  EXPECT_EQ(a.on_quiescence(true, 0, 0), 0u) << a.report();
  EXPECT_FALSE(has_rule(a, "pcount-not-drained")) << a.report();
}

// ------------------------------------------------ end-to-end, both engines --

/// The workload suite the clean-run and reclamation sweeps cover.  The
/// branchy and high-IF/zero-bound random programs drive the guard-chain
/// vacuous-completion paths in enter() (BAR_COUNT arrivals with no ICB).
std::vector<program::NestedLoopProgram> workload_suite() {
  std::vector<program::NestedLoopProgram> progs;
  progs.push_back(program::make_fig1());
  progs.push_back(workloads::flat_doall(40, nullptr));
  progs.push_back(workloads::triangular(8, 10));
  progs.push_back(workloads::nested_pair(4, 6, 8));
  progs.push_back(workloads::branchy(10, 5, 40));
  progs.push_back(workloads::deep_alternating(5, 3, 10));
  progs.push_back(workloads::doacross_chain(24, 2, 0.3, 20));
  workloads::RandomProgramConfig vacuous;
  vacuous.if_permille = 600;
  vacuous.zero_bound_permille = 300;
  for (const u64 seed : {3ull, 11ull, 29ull}) {
    progs.push_back(workloads::random_program(seed));
    progs.push_back(workloads::random_program(seed * 7 + 1, vacuous));
  }
  return progs;
}

TEST(AuditRun, WorkloadSuiteIsCleanOnVtime) {
  for (const auto& prog : workload_suite()) {
    Auditor auditor;
    SchedOptions opts;
    opts.audit_sink = &auditor;
    const RunResult r = runtime::run_vtime(prog, 5, opts);
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
    EXPECT_GT(r.counters.audit_events, 0u);
    EXPECT_GT(auditor.events(), 0u);
  }
}

TEST(AuditRun, WorkloadSuiteIsCleanOnThreads) {
  for (const auto& prog : workload_suite()) {
    SchedOptions opts;
    opts.audit = true;
    const RunResult r = runtime::run_threads(prog, 4, opts);
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
    EXPECT_GT(r.counters.audit_events, 0u);
  }
}

TEST(AuditRun, AuditedVtimeRunIsBitIdenticalToUnaudited) {
  // The auditor does host work only — no sync_op, no charge — so enabling
  // it must not move a single virtual-time event.
  for (const u64 seed : {2ull, 17ull, 41ull}) {
    const auto prog = workloads::random_program(seed);
    SchedOptions plain;
    const RunResult a = runtime::run_vtime(prog, 6, plain);
    SchedOptions audited;
    audited.audit = true;
    const RunResult b = runtime::run_vtime(prog, 6, audited);
    EXPECT_EQ(a.makespan, b.makespan) << "seed=" << seed;
    EXPECT_EQ(a.engine_ops, b.engine_ops) << "seed=" << seed;
    EXPECT_EQ(b.audit_violations, 0u) << b.audit_report;
  }
}

TEST(AuditRun, EnvVarEnablesAuditing) {
  const auto prog = workloads::flat_doall(16, nullptr);
  SchedOptions opts;  // audit NOT requested programmatically
  setenv("SELFSCHED_AUDIT", "1", 1);
  const RunResult on = runtime::run_vtime(prog, 3, opts);
  setenv("SELFSCHED_AUDIT", "0", 1);
  const RunResult off = runtime::run_vtime(prog, 3, opts);
  unsetenv("SELFSCHED_AUDIT");
  EXPECT_GT(on.counters.audit_events, 0u);
  EXPECT_EQ(off.counters.audit_events, 0u);
}

// --------------------------------------- BAR_COUNT reclamation (satellite) --

TEST(AuditRun, BarCountTableIsReclaimedAfterEveryProgram) {
  // Drive the scheduler by hand so the BarCountTable itself is inspectable
  // after quiescence: every program of the suite must leave zero live
  // counters — including the guard-chain vacuous completions in enter(),
  // which arrive at barriers without ever publishing an ICB.
  for (const auto& prog : workload_suite()) {
    runtime::SchedState<vtime::VContext> st(prog.tables(), SchedOptions{});
    vtime::Engine engine(5);
    engine.run([&](ProcId id) {
      vtime::VContext ctx(engine, id, vtime::CostModel::cedar());
      if (id == 0) runtime::seed_program(ctx, st);
      runtime::worker_loop(ctx, st);
    });
    EXPECT_EQ(st.bars.live_counters(), 0u);
    EXPECT_TRUE(st.pool.empty());
    EXPECT_EQ(audit::sync_peek(st.outstanding), 0);
  }
}

// ------------------------------------------- fault injection + kReplay ----

TEST(AuditInjection, DoubleReleaseYieldsStructuredReport) {
  const auto prog = workloads::triangular(6, 10);
  Auditor auditor;
  auditor.arm_double_release(0);
  SchedOptions opts;
  opts.audit_sink = &auditor;
  opts.audit_abort = false;
  const RunResult r = runtime::run_vtime(prog, 4, opts);
  EXPECT_GT(r.audit_violations, 0u);
  EXPECT_NE(r.audit_report.find("double-release"), std::string::npos);
  EXPECT_TRUE(has_rule(auditor, "double-release"));
}

TEST(AuditInjection, AbortModeThrowsWithTheReport) {
  const auto prog = workloads::flat_doall(16, nullptr);
  Auditor auditor;
  auditor.arm_double_release(0);
  SchedOptions opts;
  opts.audit_sink = &auditor;
  opts.audit_abort = true;
  EXPECT_THROW(runtime::run_vtime(prog, 3, opts), std::logic_error);
}

TEST(AuditInjection, ViolationReplaysDeterministicallyViaKReplay) {
  // Acceptance path: record an injected violation under an explored
  // schedule, then replay the recorded decision trace — the report must
  // pin the same ICB generation at the same event, bit for bit.
  const auto prog = workloads::triangular(6, 10);

  Auditor rec_auditor;
  rec_auditor.arm_double_release(0);
  SchedOptions rec_opts;
  rec_opts.audit_sink = &rec_auditor;
  rec_opts.audit_abort = false;
  rec_opts.schedule.kind = ControllerKind::kSeededShuffle;
  rec_opts.schedule.seed = 77;
  rec_opts.schedule.jitter = 2;
  rec_opts.record_schedule = true;
  const RunResult recorded = runtime::run_vtime(prog, 4, rec_opts);
  ASSERT_GT(recorded.audit_violations, 0u);

  Auditor rep_auditor;
  rep_auditor.arm_double_release(0);
  SchedOptions rep_opts;
  rep_opts.audit_sink = &rep_auditor;
  rep_opts.audit_abort = false;
  rep_opts.schedule = vtime::replay_of(rec_opts.schedule);
  rep_opts.schedule.decisions = recorded.schedule_decisions;
  rep_opts.record_schedule = true;
  const RunResult replayed = runtime::run_vtime(prog, 4, rep_opts);

  EXPECT_FALSE(replayed.schedule_diverged);
  EXPECT_EQ(recorded.makespan, replayed.makespan);
  EXPECT_EQ(recorded.audit_violations, replayed.audit_violations);
  const auto va = rec_auditor.violations();
  const auto vb = rep_auditor.violations();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t k = 0; k < va.size(); ++k) {
    EXPECT_EQ(va[k].rule, vb[k].rule);
    EXPECT_EQ(va[k].loop, vb[k].loop);
    EXPECT_EQ(va[k].worker, vb[k].worker);
    EXPECT_EQ(va[k].ivec_hash, vb[k].ivec_hash);
    EXPECT_EQ(va[k].icb_serial, vb[k].icb_serial);
  }
}

// ----------------------------------- cancelled-run cleanliness (satellite) --

/// Flat Doall whose body throws midway; used to cancel runs under audit.
program::NestedLoopProgram cancelling_prog() {
  return workloads::flat_doall(300, nullptr,
                               [](ProcId, const IndexVec&, i64 j) {
                                 if (j == 100) throw std::runtime_error("x");
                               });
}

TEST(AuditCancel, CancelledVtimeRunAuditsClean) {
  // A cancelled run revokes published ICBs and host-drains the leftovers;
  // the auditor's drain hooks retire them and the quiescence conservation
  // checks (pool drained, zero live BAR_COUNT counters, outstanding == 0)
  // must hold exactly as for a completed run.
  Auditor auditor;
  SchedOptions opts;
  opts.audit_sink = &auditor;
  opts.on_body_error = runtime::OnBodyError::kReturn;
  const RunResult r = runtime::run_vtime(cancelling_prog(), 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  EXPECT_EQ(r.counters.cancellations, 1u);
}

TEST(AuditCancel, CancelledThreadedRunAuditsClean) {
  Auditor auditor;
  SchedOptions opts;
  opts.audit_sink = &auditor;
  opts.on_body_error = runtime::OnBodyError::kReturn;
  const RunResult r = runtime::run_threads(cancelling_prog(), 4, opts);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST(AuditCancel, DrainedStateIsEmptyAfterCancellation) {
  // Drive the scheduler by hand so the pool / ICB arena / BAR_COUNT table
  // are inspectable after the cancellation drain: everything must be back
  // to zero, with the auditor counting the drained releases as retired.
  const auto prog = cancelling_prog();
  Auditor auditor;
  runtime::SchedState<vtime::VContext> st(prog.tables(), SchedOptions{});
  vtime::Engine engine(4);
  engine.run([&](ProcId id) {
    vtime::VContext ctx(engine, id, vtime::CostModel::cedar());
    ctx.set_audit_sink(&auditor);
    if (id == 0) runtime::seed_program(ctx, st);
    runtime::worker_loop(ctx, st);
  });
  ASSERT_EQ(st.cancel.cancelled.load(), 1u);
  runtime::drain_cancelled(st, &auditor);
  EXPECT_TRUE(st.pool.empty());
  EXPECT_EQ(st.bars.live_counters(), 0u);
  EXPECT_EQ(audit::sync_peek(st.outstanding), 0);
  EXPECT_EQ(auditor.on_quiescence(st.pool.empty(), st.bars.live_counters(),
                                  audit::sync_peek(st.outstanding)),
            0u);
  EXPECT_EQ(auditor.violation_count(), 0u) << auditor.report();
}

TEST(AuditCancel, DrainWithoutCancelIsAViolation) {
  // The drain hooks are only legal after on_cancel: releasing a published
  // ICB behind the scheduler's back on a healthy run must be flagged.
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 0, 0, 4, 1);
  EXPECT_GE(a.on_drain_release(&icb), 1u);
  EXPECT_TRUE(has_rule(a, "drain-without-cancel"));
  Auditor b;
  EXPECT_GE(b.on_drain_bars(2), 1u);
  EXPECT_TRUE(has_rule(b, "drain-without-cancel"));
}

TEST(AuditCancel, DrainAfterCancelRetiresPublishedIcbs) {
  Auditor a;
  int icb = 0;
  a.on_acquire(0, &icb);
  a.on_publish(0, &icb, 0, 0, 4, 1);
  a.on_cancel(2);
  EXPECT_EQ(a.on_drain_release(&icb), 0u);
  // Retired: quiescence must not see it as leaked.
  EXPECT_EQ(a.on_quiescence(true, 0, 0), 0u);
  EXPECT_EQ(a.violation_count(), 0u) << a.report();
}

}  // namespace
}  // namespace selfsched
