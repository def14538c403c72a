// Tests of the resident scheduler service (serve/service.hpp): admission,
// priority dispatch order, granted-cycle fairness, tenant-scoped deadlines,
// and the bit-replayable deterministic mode.  The large-scale concurrent
// evidence (16 submitters, hundreds of programs, oracle verification) lives
// in tools/serve_stress.cpp; these tests pin the service's contractual
// behaviors one at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/sequential.hpp"
#include "helpers.hpp"
#include "runtime/fault.hpp"
#include "runtime/high_level.hpp"
#include "serve/service.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

std::shared_ptr<const program::NestedLoopProgram> shared_random(
    u64 seed, const program::BodyFactory& bodies = nullptr) {
  workloads::RandomProgramConfig cfg;
  cfg.max_depth = 2;
  cfg.max_bound = 3;
  cfg.max_leaf_bound = 5;
  return std::make_shared<const program::NestedLoopProgram>(
      workloads::random_program(seed, cfg, bodies));
}

// --- deterministic mode: ordering ---------------------------------------

TEST(Serve, DetModeSinglePriorityGrantsAreFifo) {
  serve::ServeOptions so;
  so.deterministic = true;
  so.priorities = 1;
  so.max_active = 1;
  serve::Service svc(4, so);

  std::vector<serve::Handle> handles;
  for (u64 i = 0; i < 5; ++i) {
    auto out = svc.submit(shared_random(100 + i));
    ASSERT_TRUE(out.accepted());
    handles.push_back(out.handle);
  }
  // Await out of submission order: grants must still follow FIFO seq.
  for (auto it = handles.rbegin(); it != handles.rend(); ++it) {
    const auto r = it->await();
    EXPECT_FALSE(r.failure.has_value());
  }
  const std::vector<u64> log = svc.grant_log();
  ASSERT_EQ(log.size(), handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(log[i], handles[i].id()) << "grant " << i;
  }
}

TEST(Serve, DetModeStrictTiersGrantHighBeforeLow) {
  serve::ServeOptions so;
  so.deterministic = true;
  so.priorities = 2;
  so.max_active = 1;
  serve::Service svc(4, so);

  serve::SubmitOptions low;
  low.priority = 1;
  serve::SubmitOptions high;
  high.priority = 0;
  // Low-tier work submitted FIRST; the high tier must still be granted
  // first because nothing was activated before the first await.
  std::vector<serve::Handle> lows, highs;
  for (u64 i = 0; i < 2; ++i) {
    lows.push_back(svc.submit(shared_random(10 + i), low).handle);
  }
  for (u64 i = 0; i < 2; ++i) {
    highs.push_back(svc.submit(shared_random(20 + i), high).handle);
  }
  for (auto& h : lows) h.await();
  const std::vector<u64> log = svc.grant_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], highs[0].id());
  EXPECT_EQ(log[1], highs[1].id());
  EXPECT_EQ(log[2], lows[0].id());
  EXPECT_EQ(log[3], lows[1].id());
}

// --- admission control ---------------------------------------------------

TEST(Serve, AdmissionRejectionsAreValuesNotExceptions) {
  serve::SubmitOptions t0;
  t0.tenant = 7;
  serve::SubmitOptions t1;
  t1.tenant = 8;

  {  // Queue-depth bound (checked first, so probe it in isolation).
    serve::ServeOptions so;
    so.deterministic = true;
    so.max_queue_depth = 1;
    serve::Service svc(2, so);
    auto first = svc.submit(shared_random(1), t0);
    ASSERT_TRUE(first.accepted());
    const auto full = svc.submit(shared_random(2), t0);
    EXPECT_EQ(full.status, serve::SubmitStatus::kQueueFull);
    EXPECT_FALSE(full.handle.valid());
    first.handle.await();
    const auto c = svc.counters();
    EXPECT_EQ(c.serve_submissions, 1u);
    EXPECT_EQ(c.serve_rejections, 1u);
  }

  // Distinct-tenant bound, and the stopped service.
  serve::ServeOptions so;
  so.deterministic = true;
  so.max_tenants = 1;
  serve::Service svc(2, so);
  auto first = svc.submit(shared_random(3), t0);
  ASSERT_TRUE(first.accepted());
  const auto crowded = svc.submit(shared_random(4), t1);
  EXPECT_EQ(crowded.status, serve::SubmitStatus::kTooManyTenants);
  EXPECT_FALSE(crowded.handle.valid());
  first.handle.await();

  svc.stop();
  const auto late = svc.submit(shared_random(5), t0);
  EXPECT_EQ(late.status, serve::SubmitStatus::kStopped);

  const auto c = svc.counters();
  EXPECT_EQ(c.serve_submissions, 1u);
  EXPECT_EQ(c.serve_rejections, 2u);
}

// --- threaded mode: fairness ---------------------------------------------

TEST(Serve, EqualPriorityTenantsShareGrantedCycles) {
  // Two tenants, identical per-submission work, submitted interleaved so
  // both are continuously runnable.  The dispatcher's least-granted-tenant
  // rule must keep their granted-cycle totals in the same ballpark.  The
  // tight (20%) bound is asserted at scale by tools/serve_stress.cpp; here
  // the bound is loose so scheduling noise on a loaded CI box cannot flake
  // a unit test.
  serve::ServeOptions so;
  so.priorities = 1;
  so.max_active = 2;
  so.slice_us = 200;
  serve::Service svc(4, so);

  std::vector<serve::Handle> handles;
  for (u64 round = 0; round < 6; ++round) {
    for (u64 tenant = 0; tenant < 2; ++tenant) {
      serve::SubmitOptions s;
      s.tenant = tenant;
      auto prog = std::make_shared<const program::NestedLoopProgram>(
          workloads::flat_doall(
              600, [](const IndexVec&, i64) -> Cycles { return 400; }));
      auto out = svc.submit(std::move(prog), s);
      ASSERT_TRUE(out.accepted());
      handles.push_back(out.handle);
    }
  }
  for (auto& h : handles) {
    const auto r = h.await();
    EXPECT_FALSE(r.failure.has_value());
    EXPECT_EQ(r.total.iterations, 600u);
  }
  const auto rows = svc.tenant_snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].submissions, 6u);
  EXPECT_EQ(rows[1].submissions, 6u);
  EXPECT_GT(rows[0].granted, 0u);
  EXPECT_GT(rows[1].granted, 0u);
  const double hi =
      static_cast<double>(std::max(rows[0].granted, rows[1].granted));
  const double lo =
      static_cast<double>(std::min(rows[0].granted, rows[1].granted));
  EXPECT_LT(hi / lo, 3.0) << "granted " << rows[0].granted << " vs "
                          << rows[1].granted;
}

// --- threaded mode: deadlines are tenant-scoped --------------------------

TEST(Serve, DeadlineCancelsOnlyThatTenant) {
  serve::ServeOptions so;
  so.priorities = 1;
  so.max_active = 2;
  serve::Service svc(4, so);

  // Tenant 9: far more work than its 2 ms deadline allows.
  serve::SubmitOptions doomed;
  doomed.tenant = 9;
  doomed.deadline_ms = 2;
  auto big = std::make_shared<const program::NestedLoopProgram>(
      workloads::flat_doall(
          20000, [](const IndexVec&, i64) -> Cycles { return 2000; }));
  auto hdoomed = svc.submit(std::move(big), doomed);
  ASSERT_TRUE(hdoomed.accepted());

  // Tenant 3: ordinary audited programs riding alongside.
  serve::SubmitOptions ok;
  ok.tenant = 3;
  ok.sched.audit = true;
  std::vector<serve::Handle> neighbors;
  std::vector<std::shared_ptr<const program::NestedLoopProgram>> progs;
  for (u64 i = 0; i < 3; ++i) {
    auto prog = shared_random(40 + i);
    auto out = svc.submit(prog, ok);
    ASSERT_TRUE(out.accepted());
    neighbors.push_back(out.handle);
    progs.push_back(std::move(prog));
  }

  const auto rd = hdoomed.handle.await();
  ASSERT_TRUE(rd.failure.has_value());
  EXPECT_EQ(rd.failure->kind, fault::FailureRecord::Kind::kDeadline);

  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const auto r = neighbors[i].await();
    EXPECT_FALSE(r.failure.has_value()) << "neighbor " << i;
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
    const auto serial = baselines::run_sequential(*progs[i], 1, false);
    EXPECT_EQ(r.total.iterations, serial.iterations) << "neighbor " << i;
  }
}

// --- threaded mode: oversubscribed Doacross -----------------------------

u64 spin_mix(u64 x, i64 j) {
  for (int i = 0; i < 400; ++i) {
    x = x * 0xd1342543de82ef95ULL + static_cast<u64>(j);
  }
  return x;
}

/// Program k of the oversubscribed mix, writing its values into `out`
/// (one slot per iteration, slot 0 the chain's seed).  Even k: a
/// distance-1 chain shaped like examples/programs/doacross_chain.loop
/// (source 30% into a COST 400 body) whose iteration j folds in j-1's
/// value, so a wait that lets j run before j-1 posted yields a wrong value
/// (and a race under TSan).  Odd k: a flat Doall of the same length.
program::NestedLoopProgram oversubscribed_program(u64 k,
                                                  std::vector<u64>& out) {
  const i64 n = static_cast<i64>(out.size()) - 1;
  const auto cost = [](const IndexVec&, i64) -> Cycles { return 400; };
  program::NodeSeq top;
  if (k % 2 == 0) {
    top.push_back(program::doacross(
        "chain", n, program::DoacrossSpec{1, 0.3},
        [&out, k](ProcId, const IndexVec&, i64 j) {
          const auto u = static_cast<std::size_t>(j);
          out[u] = spin_mix(out[u - 1] + k, j);
        },
        cost));
  } else {
    top.push_back(program::doall(
        "flat", n,
        [&out, k](ProcId, const IndexVec&, i64 j) {
          out[static_cast<std::size_t>(j)] = spin_mix(k, j);
        },
        cost));
  }
  return program::NestedLoopProgram(std::move(top));
}

TEST(Serve, OversubscribedDoacrossChainsMatchTheSerialOracle) {
  // Twice as many resident workers as cores, so a chain's poster is often
  // descheduled while its waiter spins.  Served waits keep the tenant's
  // tight Doacross cap, so they reach the yield only through ctx_pause's
  // per-wait spin budget; every chain must still finish and see each
  // predecessor's value.
  constexpr u64 kPrograms = 50;
  constexpr i64 kN = 512;
  const u32 cores = std::max(1u, std::thread::hardware_concurrency());
  serve::ServeOptions so;
  so.priorities = 1;
  serve::Service svc(2 * cores, so);

  std::vector<std::vector<u64>> outs(
      kPrograms, std::vector<u64>(static_cast<std::size_t>(kN) + 1, 0));
  std::vector<std::shared_ptr<const program::NestedLoopProgram>> progs;
  for (u64 k = 0; k < kPrograms; ++k) {
    progs.push_back(std::make_shared<const program::NestedLoopProgram>(
        oversubscribed_program(k, outs[k])));
  }
  // Two tenants, each submitting its own half of the mix concurrently.
  std::vector<serve::Handle> handles(kPrograms);
  std::vector<std::thread> tenants;
  for (u64 t = 0; t < 2; ++t) {
    tenants.emplace_back([&, t] {
      serve::SubmitOptions s;
      s.tenant = t;
      s.sched.audit = true;
      for (u64 k = t * kPrograms / 2; k < (t + 1) * kPrograms / 2; ++k) {
        auto out = svc.submit(progs[k], s);
        EXPECT_TRUE(out.accepted()) << "program " << k;
        handles[k] = out.handle;
      }
    });
  }
  for (auto& th : tenants) th.join();

  for (u64 k = 0; k < kPrograms; ++k) {
    if (!handles[k].valid()) continue;
    const auto r = handles[k].await();
    EXPECT_FALSE(r.failure.has_value()) << "program " << k;
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
    std::vector<u64> want(outs[k].size(), 0);
    const auto serial =
        baselines::run_sequential(oversubscribed_program(k, want), 1, true);
    EXPECT_EQ(r.total.iterations, serial.iterations) << "program " << k;
    EXPECT_EQ(outs[k], want) << "program " << k;
  }
}

TEST(Serve, ShardedIndexChainsAndFlatLoopsComplete) {
  // A closed loop of served chains and flat loops with index_shards = 4,
  // shaped like perfbench's serve_mix (3 workers, 2 tenants, 6 in flight).
  // A sharded chain needs its head iteration grabbed first, which only a
  // worker homed on shard 0 does, and a served namespace need not have
  // one: its other workers then spin on heads nobody grabs.  Doacross
  // instances now keep the flat index whatever G is.  The deadline turns a
  // hang into a failure; every result is checked against the serial
  // oracle.
  constexpr i64 kN = 512;
  constexpr u32 kDepth = 6;
  constexpr u64 kOps = 3000;
  serve::ServeOptions so;
  so.priorities = 1;
  so.max_queue_depth = 4 * kDepth;
  so.max_tenants = 2;
  serve::Service svc(3, so);

  // Shape k % 2: 0 is the chain, 1 the flat loop (oversubscribed_program).
  std::array<std::vector<u64>, 2> want;
  for (u64 k = 0; k < 2; ++k) {
    want[k].assign(static_cast<std::size_t>(kN) + 1, 0);
    baselines::run_sequential(oversubscribed_program(k, want[k]), 1, true);
  }
  std::vector<std::vector<u64>> outs(
      kDepth, std::vector<u64>(static_cast<std::size_t>(kN) + 1, 0));
  struct InFlight {
    u32 slot;
    u64 shape;
    serve::Handle handle;
  };
  std::deque<InFlight> q;
  u64 submitted = 0;
  const auto submit = [&](u32 slot) {
    const u64 shape = submitted % 2;
    serve::SubmitOptions s;
    s.tenant = submitted / 2 % 2;
    s.deadline_ms = 5000;
    s.sched.index_shards = 4;
    std::fill(outs[slot].begin(), outs[slot].end(), 0);
    auto out = svc.submit(std::make_shared<const program::NestedLoopProgram>(
                              oversubscribed_program(shape, outs[slot])),
                          s);
    ASSERT_TRUE(out.accepted()) << "op " << submitted;
    q.push_back({slot, shape, out.handle});
    ++submitted;
  };
  for (u32 slot = 0; slot < kDepth; ++slot) submit(slot);
  for (u64 op = 0; op < kOps; ++op) {
    InFlight f = q.front();
    q.pop_front();
    const auto r = f.handle.await();
    ASSERT_FALSE(r.failure.has_value())
        << "op " << op << ": " << r.failure->message;
    ASSERT_EQ(r.total.iterations, static_cast<u64>(kN)) << "op " << op;
    ASSERT_EQ(outs[f.slot], want[f.shape]) << "op " << op;
    if (submitted < kOps) submit(f.slot);
  }
}

/// Inner instances per nested program of the tiny-slice mix.
constexpr i64 kYieldInner = 64;

/// Program k of the tiny-slice mix, writing one value per iteration into
/// `out` (slot 0 unused).  Even k: one flat Doall over every slot.  Odd k:
/// a parallel loop of kYieldInner inner Doalls, each over its own block of
/// slots — many instance completions per program.
program::NestedLoopProgram yield_program(u64 k, std::vector<u64>& out) {
  const i64 n = static_cast<i64>(out.size()) - 1;
  program::NodeSeq top;
  if (k % 2 == 0) {
    top.push_back(program::doall(
        "flat", n, [&out, k](ProcId, const IndexVec&, i64 j) {
          out[static_cast<std::size_t>(j)] = spin_mix(k, j);
        }));
  } else {
    const i64 q = n / kYieldInner;
    top.push_back(program::par(
        kYieldInner,
        program::seq(program::doall(
            "inner", q, [&out, k, q](ProcId, const IndexVec& iv, i64 j) {
              const i64 slot = (iv[1] - 1) * q + j;
              out[static_cast<std::size_t>(slot)] = spin_mix(k, slot);
            }))));
  }
  return program::NestedLoopProgram(std::move(top));
}

TEST(Serve, TinySlicesPublishCompletionsAtTheYield) {
  // Slices this short end most attachments at a yield.  On threads a
  // worker publishes its completed iterations when it leaves, so the
  // worker whose publish completes an instance is sometimes a yielding
  // one (the service polls its clock on one probe in 32, so about one
  // instance completion in 32 lands on a yield: over this mix's ~500
  // instances, a dozen or more per run).  That worker must run the
  // completion path, and report the program done when it ended it, before
  // it leaves the namespace.  Both shapes shard on 4 workers.  Audited,
  // oracle-checked.
  constexpr u64 kPrograms = 16;
  constexpr i64 kN = kYieldInner * runtime::kShardMinItersPerWorker * 4;
  static_assert(kN / kYieldInner >= runtime::kShardMinItersPerWorker * 4);
  serve::ServeOptions so;
  so.priorities = 1;
  so.slice_us = 5;
  serve::Service svc(4, so);

  std::vector<std::vector<u64>> outs(
      kPrograms, std::vector<u64>(static_cast<std::size_t>(kN) + 1, 0));
  std::vector<serve::Handle> handles;
  for (u64 k = 0; k < kPrograms; ++k) {
    serve::SubmitOptions s;
    s.tenant = k % 2;
    s.deadline_ms = 20000;
    s.sched.audit = true;
    auto out = svc.submit(std::make_shared<const program::NestedLoopProgram>(
                              yield_program(k, outs[k])),
                          s);
    ASSERT_TRUE(out.accepted()) << "program " << k;
    handles.push_back(out.handle);
  }
  for (u64 k = 0; k < kPrograms; ++k) {
    const auto r = handles[k].await();
    EXPECT_FALSE(r.failure.has_value())
        << "program " << k << ": " << r.failure->message;
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
    EXPECT_GT(r.counters.serve_preemptions, 0u) << "program " << k;
    std::vector<u64> want(outs[k].size(), 0);
    baselines::run_sequential(yield_program(k, want), 1, true);
    EXPECT_EQ(r.total.iterations, static_cast<u64>(kN)) << "program " << k;
    EXPECT_EQ(outs[k], want) << "program " << k;
  }
}

// --- deterministic mode: replayability -----------------------------------

TEST(Serve, DeterministicModeIsBitIdentical) {
  const auto run_once = [](std::vector<runtime::RunResult>& results) {
    serve::ServeOptions so;
    so.deterministic = true;
    so.priorities = 2;
    so.max_active = 2;
    serve::Service svc(4, so);
    std::vector<serve::Handle> handles;
    for (u64 i = 0; i < 6; ++i) {
      serve::SubmitOptions s;
      s.tenant = i % 3;
      s.priority = i % 2;
      auto out = svc.submit(shared_random(500 + i), s);
      EXPECT_TRUE(out.accepted());
      handles.push_back(out.handle);
    }
    for (auto& h : handles) results.push_back(h.await());
    return svc.grant_log();
  };

  std::vector<runtime::RunResult> a, b;
  const std::vector<u64> log_a = run_once(a);
  const std::vector<u64> log_b = run_once(b);

  EXPECT_EQ(log_a, log_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].makespan, b[i].makespan) << "result " << i;
    EXPECT_EQ(a[i].total.iterations, b[i].total.iterations) << "result " << i;
    EXPECT_EQ(a[i].schedule_decisions, b[i].schedule_decisions)
        << "result " << i;
  }
}

// --- resilience layer (serve/resilience.hpp, docs/robustness.md) ---------

std::shared_ptr<const program::NestedLoopProgram> shared_doall(
    i64 n, program::BodyFn body = nullptr) {
  return std::make_shared<const program::NestedLoopProgram>(
      workloads::flat_doall(n, nullptr, std::move(body)));
}

program::BodyFn poison_body() {
  return [](ProcId, const IndexVec&, i64) {
    throw std::runtime_error("poison body");
  };
}

TEST(ServeResilience, DefaultPolicyIsFullyDisabled) {
  const serve::ResiliencePolicy pol;
  EXPECT_FALSE(pol.any_enabled());
  EXPECT_EQ(pol.max_retries, 0u);
  EXPECT_EQ(pol.quarantine_failures, 0u);
  EXPECT_EQ(pol.shed_watermark, 0u);
  EXPECT_EQ(pol.watchdog_stall_ms, 0);
  EXPECT_EQ(pol.watchdog_stall_vcycles, 0u);
}

#if SELFSCHED_FAULT
TEST(ServeResilience, RetriedTransientFailureCompletesOracleExact) {
  serve::ServeOptions so;
  so.deterministic = true;
  serve::Service svc(4, so);
  const auto prog = shared_doall(40);

  // Clean reference trajectory for the same program.
  serve::SubmitOptions clean;
  clean.tenant = 1;
  auto ref = svc.submit(prog, clean);
  ASSERT_TRUE(ref.accepted());
  const auto base = ref.handle.await();
  ASSERT_FALSE(base.failure.has_value());

  // One injected body throw; the retry budget absorbs it.  The plan is
  // not reset between attempts, so the retried run is unperturbed.
  fault::FaultPlan plan;
  plan.body_throw(kNoLoop, /*iteration=*/-1);
  serve::SubmitOptions s;
  s.tenant = 2;
  s.sched.fault_plan = &plan;
  serve::ResiliencePolicy pol;
  pol.max_retries = 1;
  s.resilience = pol;
  auto out = svc.submit(prog, s);
  ASSERT_TRUE(out.accepted());
  const auto r = out.handle.await();
  ASSERT_FALSE(r.failure.has_value());
  EXPECT_EQ(r.counters.serve_retries, 1u);
  EXPECT_EQ(plan.total_fired(), 1u);
  // Oracle-exact: the final attempt's trajectory equals the clean run's.
  EXPECT_EQ(r.total.iterations, base.total.iterations);
  EXPECT_EQ(r.makespan, base.makespan);
  EXPECT_EQ(r.schedule_decisions, base.schedule_decisions);

  const auto c = svc.counters();
  EXPECT_EQ(c.serve_retries, 1u);
  // The submission appears once per attempt in the grant log.
  u64 grants = 0;
  for (const u64 seq : svc.grant_log()) {
    if (seq == out.handle.id()) grants++;
  }
  EXPECT_EQ(grants, 2u);
}
#endif  // SELFSCHED_FAULT

TEST(ServeResilience, RetryBudgetExhaustionIsAPermanentFailure) {
  serve::ServeOptions so;
  so.deterministic = true;
  so.resilience.max_retries = 2;
  so.resilience.retry_body_errors = true;
  serve::Service svc(4, so);

  auto out = svc.submit(shared_doall(20, poison_body()));
  ASSERT_TRUE(out.accepted());
  const auto r = out.handle.await();
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->kind, fault::FailureRecord::Kind::kBodyException);
  EXPECT_EQ(r.counters.serve_retries, 2u);
  EXPECT_EQ(svc.counters().serve_retries, 2u);

  const auto health = svc.health_snapshot();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].retries, 2u);
  EXPECT_EQ(health[0].failures, 1u);
  EXPECT_TRUE(health[0].has_failure);
  EXPECT_EQ(health[0].last_failure,
            fault::FailureRecord::Kind::kBodyException);
}

TEST(ServeResilience, QuarantineTripsRejectsAndReadmitsOnProbation) {
  serve::ServeOptions so;
  so.deterministic = true;
  so.resilience.quarantine_failures = 2;
  so.resilience.quarantine_cooldown_vcycles = 50;
  serve::Service svc(4, so);

  serve::SubmitOptions bad;
  bad.tenant = 7;
  serve::SubmitOptions neighbor;
  neighbor.tenant = 1;

  const auto fail_once = [&] {
    auto out = svc.submit(shared_doall(20, poison_body()), bad);
    ASSERT_TRUE(out.accepted());
    const auto r = out.handle.await();
    ASSERT_TRUE(r.failure.has_value());
  };

  fail_once();
  fail_once();  // second failure in the window: the breaker trips
  EXPECT_EQ(svc.counters().serve_quarantines, 1u);

  // Cooldown running: structured rejection, nothing queued.
  const auto rejected = svc.submit(shared_doall(20), bad);
  EXPECT_EQ(rejected.status, serve::SubmitStatus::kQuarantined);
  EXPECT_FALSE(rejected.handle.valid());

  // A neighbor's grant advances virtual time past the cooldown.
  svc.submit(shared_doall(200), neighbor).handle.await();

  // Probationary readmission: exactly one probe at a time.
  auto probe = svc.submit(shared_doall(20), bad);
  ASSERT_TRUE(probe.accepted());
  const auto crowded = svc.submit(shared_doall(20), bad);
  EXPECT_EQ(crowded.status, serve::SubmitStatus::kQuarantined);
  const auto pr = probe.handle.await();
  EXPECT_FALSE(pr.failure.has_value());

  // The successful probe closed the breaker and cleared the window.
  auto healthy = svc.submit(shared_doall(20), bad);
  ASSERT_TRUE(healthy.accepted());
  healthy.handle.await();

  // A FAILED probe must re-trip immediately, window or no window.
  fail_once();
  fail_once();
  EXPECT_EQ(svc.counters().serve_quarantines, 2u);
  svc.submit(shared_doall(200), neighbor).handle.await();
  auto bad_probe = svc.submit(shared_doall(20, poison_body()), bad);
  ASSERT_TRUE(bad_probe.accepted());
  ASSERT_TRUE(bad_probe.handle.await().failure.has_value());
  EXPECT_EQ(svc.counters().serve_quarantines, 3u);
  EXPECT_EQ(svc.submit(shared_doall(20), bad).status,
            serve::SubmitStatus::kQuarantined);

  const auto health = svc.health_snapshot();
  for (const auto& h : health) {
    if (h.tenant != 7) continue;
    EXPECT_EQ(h.state, serve::TenantState::kQuarantined);
    EXPECT_EQ(h.quarantines, 3u);
  }
}

TEST(ServeResilience, ShedVictimIsTheNewestLowestTierPendingWork) {
  serve::ServeOptions so;
  so.deterministic = true;
  so.priorities = 2;
  so.resilience.shed_watermark = 2;
  serve::Service svc(4, so);

  serve::SubmitOptions low;
  low.priority = 1;
  serve::SubmitOptions high;
  high.priority = 0;

  auto a = svc.submit(shared_doall(20), low);
  auto b = svc.submit(shared_doall(20), low);
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());

  // At the watermark, a higher-tier arrival sheds the NEWEST queued entry
  // of the lowest tier strictly below it — b, not a.
  auto c = svc.submit(shared_doall(20), high);
  ASSERT_TRUE(c.accepted());
  const auto rb = b.handle.await();
  ASSERT_TRUE(rb.failure.has_value());
  EXPECT_EQ(rb.failure->kind, fault::FailureRecord::Kind::kShed);
  EXPECT_EQ(svc.counters().serve_sheds, 1u);

  // A lowest-tier arrival with no tier below it is itself refused.
  const auto d = svc.submit(shared_doall(20), low);
  EXPECT_EQ(d.status, serve::SubmitStatus::kShed);
  EXPECT_FALSE(d.handle.valid());
  EXPECT_EQ(svc.counters().serve_sheds, 2u);

  // Survivors run to completion, high tier first.
  EXPECT_FALSE(a.handle.await().failure.has_value());
  EXPECT_FALSE(c.handle.await().failure.has_value());
  const auto log = svc.grant_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], c.handle.id());
  EXPECT_EQ(log[1], a.handle.id());
}

TEST(ServeResilience, DisabledPolicyMatchesTheDefaultServiceBitForBit) {
  // Passing an all-disabled policy explicitly must not perturb the
  // trajectory relative to never mentioning resilience at all.
  const auto run_once = [](bool explicit_policy,
                           std::vector<runtime::RunResult>& results) {
    serve::ServeOptions so;
    so.deterministic = true;
    so.priorities = 2;
    so.max_active = 2;
    serve::Service svc(4, so);
    std::vector<serve::Handle> handles;
    for (u64 i = 0; i < 6; ++i) {
      serve::SubmitOptions s;
      s.tenant = i % 3;
      s.priority = i % 2;
      if (explicit_policy) s.resilience = serve::ResiliencePolicy{};
      auto out = svc.submit(shared_random(700 + i), s);
      EXPECT_TRUE(out.accepted());
      handles.push_back(out.handle);
    }
    for (auto& h : handles) results.push_back(h.await());
    return svc.grant_log();
  };

  std::vector<runtime::RunResult> a, b;
  const std::vector<u64> log_a = run_once(false, a);
  const std::vector<u64> log_b = run_once(true, b);
  EXPECT_EQ(log_a, log_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].makespan, b[i].makespan) << "result " << i;
    EXPECT_EQ(a[i].schedule_decisions, b[i].schedule_decisions)
        << "result " << i;
  }
}

#if SELFSCHED_FAULT
TEST(ServeResilience, DetChaosTrajectoryReplaysBitIdentically) {
  // A miniature of tools/serve_chaos --deterministic --replay-check: mixed
  // flavors (clean / injected throw / indefinite stall / poison), retries,
  // watchdog rescues, quarantine and shedding — the full trajectory must
  // be a pure function of the configuration.
  struct Mini {
    std::vector<std::string> statuses;
    std::vector<u64> grants;
    std::vector<runtime::RunResult> results;
    trace::Counters counters;
  };
  const auto run_once = [](Mini& m) {
    serve::ServeOptions so;
    so.deterministic = true;
    so.priorities = 2;
    so.resilience.max_retries = 1;
    so.resilience.retry_body_errors = true;
    so.resilience.watchdog_stall_vcycles = 20'000;
    so.resilience.quarantine_failures = 2;
    so.resilience.quarantine_cooldown_vcycles = 100;
    so.resilience.shed_watermark = 6;
    serve::Service svc(4, so);

    std::vector<std::unique_ptr<fault::FaultPlan>> plans;
    std::deque<serve::Handle> window;
    for (u64 i = 0; i < 16; ++i) {
      serve::SubmitOptions s;
      s.tenant = i % 3;
      s.priority = i % 2;
      auto plan = std::make_unique<fault::FaultPlan>();
      program::BodyFn body;
      switch (i % 4) {
        case 0: plan->body_throw(kNoLoop, -1); break;
        case 1: plan->worker_stall(kNoLoop, -1, /*cycles=*/0); break;
        case 2: body = poison_body(); break;
        default: break;
      }
      s.sched.fault_plan = plan.get();
      plans.push_back(std::move(plan));
      auto out = svc.submit(shared_doall(20 + 7 * static_cast<i64>(i),
                                         std::move(body)),
                            s);
      m.statuses.push_back(serve::submit_status_name(out.status));
      if (!out.accepted()) continue;
      window.push_back(out.handle);
      if (window.size() >= 8) {
        m.results.push_back(window.front().await());
        window.pop_front();
      }
    }
    while (!window.empty()) {
      m.results.push_back(window.front().await());
      window.pop_front();
    }
    svc.stop();
    m.grants = svc.grant_log();
    m.counters = svc.counters();
  };

  Mini a, b;
  run_once(a);
  run_once(b);

  // The chaos actually exercised the machinery...
  EXPECT_GT(a.counters.serve_retries, 0u);
  EXPECT_GT(a.counters.serve_watchdog_rescues, 0u);
  EXPECT_GT(a.counters.serve_sheds, 0u);

  // ...and replays bit-identically, counters included.
  EXPECT_EQ(a.statuses, b.statuses);
  EXPECT_EQ(a.grants, b.grants);
  trace::Counters::for_each_field([&](const char* name,
                                      u64 trace::Counters::* f) {
    EXPECT_EQ(a.counters.*f, b.counters.*f) << "counter " << name;
  });
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].makespan, b.results[i].makespan) << i;
    EXPECT_EQ(a.results[i].counters.serve_retries,
              b.results[i].counters.serve_retries)
        << i;
    EXPECT_EQ(a.results[i].schedule_decisions,
              b.results[i].schedule_decisions)
        << i;
  }
}
#endif  // SELFSCHED_FAULT

}  // namespace
}  // namespace selfsched
