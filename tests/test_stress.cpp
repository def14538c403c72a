// Concurrency stress of the runtime structures on real threads — the
// paper's protocols (list surgery under paper-locks, pcount drain, barrier
// counting) hammered directly and through the scheduler, plus engine
// watchdog and repeated-run determinism under varying cost models.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "exec/real_context.hpp"
#include "helpers.hpp"
#include "program/fig1.hpp"
#include "runtime/bar_count.hpp"
#include "runtime/icb_pool.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_pool.hpp"
#include "vtime/engine.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

using exec::RContext;

TEST(Stress, IcbPoolConcurrentAcquireRelease) {
  runtime::IcbPool<RContext> pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 5000;
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
  // High-water mark bounded by threads * max simultaneously held.
  EXPECT_LE(pool.allocated(), static_cast<u64>(kThreads) * 5);
}

TEST(Stress, BarCountConcurrentBarriers) {
  runtime::BarCountTable<RContext> bars(8);
  constexpr int kThreads = 4;
  constexpr i64 kBarriers = 400;
  std::atomic<i64> trips{0};
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      RContext ctx(static_cast<ProcId>(t), kThreads);
      for (i64 b = 0; b < kBarriers; ++b) {
        IndexVec prefix;
        prefix.push_back(b);
        // Every thread contributes once to each barrier of bound kThreads;
        // exactly one thread must see it trip.
        if (bars.increment_and_check(ctx, 1, 1, prefix, kThreads)) {
          trips.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(trips.load(), kBarriers);
  EXPECT_EQ(bars.live_counters(), 0u);
}

TEST(Stress, TaskPoolConcurrentAppendDeleteSearchLikeTraffic) {
  // Producers append ICBs; consumers walk with the paper's lock discipline
  // and delete what they claim.  Every ICB must be consumed exactly once.
  runtime::TaskPool<RContext> pool(4);
  runtime::IcbPool<RContext> icbs;
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr i64 kPerProducer = 3000;
  std::atomic<i64> consumed{0};
  std::atomic<bool> done_producing{false};

  std::vector<std::thread> team;
  for (int t = 0; t < kProducers; ++t) {
    team.emplace_back([&, t] {
      RContext ctx(static_cast<ProcId>(t), kProducers + kConsumers);
      for (i64 r = 0; r < kPerProducer; ++r) {
        auto* p = icbs.acquire(ctx);
        p->init(0, 1, 1, IndexVec{}, false);
        pool.append(ctx, static_cast<u32>(r % pool.num_lists()), p);
      }
    });
  }
  for (int t = 0; t < kConsumers; ++t) {
    team.emplace_back([&, t] {
      RContext ctx(static_cast<ProcId>(kProducers + t),
                   kProducers + kConsumers);
      sync::Backoff backoff;
      for (;;) {
        const u32 i = pool.sw().leading_one(ctx);
        if (i == runtime::CtxControlWord<RContext>::kEmpty) {
          if (done_producing.load() &&
              consumed.load() == kProducers * kPerProducer) {
            return;
          }
          runtime::ctx_pause(ctx, backoff);
          continue;
        }
        if (!runtime::ctx_try_lock(ctx, pool.list_lock(i))) continue;
        runtime::Icb<RContext>* head = pool.list_head(i);
        // Claim the head under the lock via its pcount (0 -> 1), exactly
        // the scheduler's attach discipline: only the claimant may delete.
        const bool claimed =
            head != nullptr &&
            ctx.sync_op(head->pcount, sync::Test::kEQ, 0,
                        sync::Op::kIncrement)
                .success;
        runtime::ctx_unlock(ctx, pool.list_lock(i));
        if (claimed) {
          pool.delete_icb(ctx, i, head);
          icbs.release(ctx, head);
          consumed.fetch_add(1);
          backoff.reset();
        }
      }
    });
  }
  // Join producers first, then signal.
  for (int t = 0; t < kProducers; ++t) team[static_cast<std::size_t>(t)].join();
  done_producing.store(true);
  for (std::size_t t = kProducers; t < team.size(); ++t) team[t].join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_TRUE(pool.empty());
}

TEST(Stress, RepeatedThreadedFig1Runs) {
  // Hammer the full scheduler end to end; every run must execute the exact
  // iteration count (shaking out rare interleavings on real threads).
  program::Fig1Params p;
  p.ni = 2;
  p.nj = 2;
  p.nk = 2;
  p.body_cost = 5;
  const i64 want = program::fig1_total_iterations(p);
  for (int round = 0; round < 30; ++round) {
    auto prog = program::make_fig1(p);
    runtime::SchedOptions opts;
    opts.measure_phases = false;
    opts.strategy = (round % 2) ? runtime::Strategy::gss()
                                : runtime::Strategy::self();
    opts.central_queue = round % 3 == 2;
    const auto r = runtime::run_threads(prog, 1 + round % 4, opts);
    ASSERT_EQ(static_cast<i64>(r.total.iterations), want)
        << "round " << round;
    ASSERT_EQ(r.total.enters, r.total.icbs_released) << "round " << round;
  }
}

/// Fig. 1 at twice as many workers as cores, with no prologue loop: worker
/// 0 seeds the NI top-level instances while preempted peers already run
/// them, and every chunk:4 grab on a drained instance overshoots its index.
/// Each run must execute every iteration and drain the pool.
void oversubscribed_fig1(bool audited) {
  const program::Fig1Params p = testing::fig1_loop_params(32, 8);
  const auto prog = program::make_fig1(p);
  const i64 want = program::fig1_total_iterations(p);
  const u32 procs = 2 * std::max(1u, std::thread::hardware_concurrency());
  for (int round = 0; round < 50; ++round) {
    runtime::SchedOptions opts;
    opts.measure_phases = false;
    opts.strategy = runtime::Strategy::chunked(4);
    opts.audit = audited;
    const auto r = runtime::run_threads(prog, procs, opts);
    ASSERT_EQ(static_cast<i64>(r.total.iterations), want)
        << "round " << round;
    ASSERT_EQ(r.total.enters, r.total.icbs_released) << "round " << round;
    ASSERT_EQ(r.audit_violations, 0u) << r.audit_report;
  }
}

TEST(Stress, OversubscribedFig1WithoutPrologue) { oversubscribed_fig1(false); }

TEST(Stress, OversubscribedFig1WithoutPrologueAudited) {
  oversubscribed_fig1(true);
}

TEST(Stress, VtimeDeterminismAcrossCostModels) {
  for (const auto& costs :
       {vtime::CostModel::cedar(), vtime::CostModel::cheap_sync(),
        vtime::CostModel::expensive_sync()}) {
    auto run_once = [&] {
      auto prog = workloads::random_program(4242);
      runtime::SchedOptions opts;
      opts.costs = costs;
      return runtime::run_vtime(prog, 7, opts);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.engine_ops, b.engine_ops);
  }
}

TEST(Stress, EngineWatchdogAborts) {
  // SELFSCHED_OP_LIMIT must turn a runaway spin into an abort with a
  // diagnostic dump.
  EXPECT_DEATH(
      {
        setenv("SELFSCHED_OP_LIMIT", "100", 1);
        vtime::Engine engine(2);
        vtime::VSync flag(0);
        engine.run([&](ProcId id) {
          // Both vps spin forever on a flag nobody sets.
          for (;;) {
            engine.sync_execute(id, 1, flag, sync::Test::kEQ, 1,
                                sync::Op::kFetch, 0);
          }
        });
      },
      "exceeded SELFSCHED_OP_LIMIT");
}

}  // namespace
}  // namespace selfsched
