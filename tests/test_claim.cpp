// The bounded grab {index <= b ; Fetch&Add(k)} behind every strategy
// (runtime::ctx_claim; a flat grab claims one step, {index <= N ;
// Fetch&Add(1)}).  On threads it is one unconditional fetch&add whose
// success is decided from the fetched value, so the index overshoots b+1;
// these tests pin that the overshoot is invisible: every iteration is
// granted exactly once, exactly one grab takes the last iteration, nothing
// succeeds after exhaustion, and a poison store still stops every grab.
// On vtime the claim must stay the tested instruction, event for event, and
// no strategy may grab any other way.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "exec/real_context.hpp"
#include "runtime/ctx_sync.hpp"
#include "runtime/strategy.hpp"
#include "vtime/context.hpp"
#include "vtime/engine.hpp"

namespace selfsched::runtime {
namespace {

u32 team_size() {
  return std::max(2u, std::thread::hardware_concurrency());
}

/// Every strategy kind, with min-chunk GSS and factoring for the clamp of
/// the step recurrence and the trapezoid endpoint rules.
const std::vector<Strategy>& every_kind() {
  static const std::vector<Strategy> p = {
      Strategy::self(),          Strategy::chunked(3),
      Strategy::gss(),           Strategy::gss(4),
      Strategy::factoring(),     Strategy::factoring(3),
      Strategy::trapezoid(8, 2), Strategy::trapezoid(),
      Strategy::trapezoid(0, 4),
  };
  return p;
}

/// Run `fn(ctx)` on `procs` threads, each with its own RContext, released
/// together so the claims contend from the first one.
template <typename Fn>
std::vector<exec::WorkerStats> run_team(u32 procs, Fn fn) {
  std::vector<exec::WorkerStats> stats(procs);
  std::atomic<u32> ready{0};
  std::vector<std::thread> team;
  for (u32 p = 0; p < procs; ++p) {
    team.emplace_back([&, p] {
      exec::RContext ctx(p, procs, /*measure_phases=*/false);
      ready.fetch_add(1);
      while (ready.load() < procs) std::this_thread::yield();
      fn(ctx);
      stats[p] = ctx.stats();
    });
  }
  for (auto& t : team) t.join();
  return stats;
}

TEST(Claim, ThreadsGrantEveryIterationExactlyOnce) {
  const u32 procs = team_size();
  constexpr int kLateClaims = 8;  // claims each worker makes after a failure
  for (const i64 b : {i64{1}, i64{7}, i64{10000}}) {
    for (const i64 k : {i64{1}, i64{3}}) {
      SCOPED_TRACE(::testing::Message() << "b=" << b << " k=" << k);
      sync::SyncVar index(1);
      auto granted = std::make_unique<std::atomic<int>[]>(
          static_cast<std::size_t>(b + 1));
      std::atomic<int> last_grabs{0};
      std::atomic<int> late_successes{0};
      const auto stats = run_team(procs, [&](exec::RContext& ctx) {
        for (;;) {
          const sync::SyncResult r = ctx_claim(ctx, index, b, k);
          if (!r.success) break;
          const i64 last = std::min(r.fetched + k - 1, b);
          for (i64 j = r.fetched; j <= last; ++j) granted[j].fetch_add(1);
          if (last == b) last_grabs.fetch_add(1);
        }
        for (int i = 0; i < kLateClaims; ++i) {
          if (ctx_claim(ctx, index, b, k).success) late_successes.fetch_add(1);
        }
      });
      for (i64 j = 1; j <= b; ++j) {
        EXPECT_EQ(granted[j].load(), 1) << "iteration " << j;
      }
      EXPECT_EQ(last_grabs.load(), 1);
      EXPECT_EQ(late_successes.load(), 0);
      EXPECT_GT(index.load(), b);
      // Every worker failed once to leave its loop, then kLateClaims times.
      u64 failed = 0;
      for (const auto& s : stats) failed += s.failed_sync_ops;
      EXPECT_EQ(failed, u64{procs} * (1 + kLateClaims));
    }
  }
}

TEST(Claim, ThreadsPoisonAfterOvershootStopsEveryGrab) {
  const u32 procs = team_size();
  constexpr i64 kBound = 1000;
  for (const i64 k : {i64{1}, i64{3}}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    sync::SyncVar index(1);
    // Drive the index well past b+1 first.
    run_team(procs, [&](exec::RContext& ctx) {
      while (ctx_claim(ctx, index, kBound, k).success) {
      }
      for (int i = 0; i < 16; ++i) ctx_claim(ctx, index, kBound, k);
    });
    ASSERT_GT(index.load(), kBound + 1);

    // poison_pool's store: index := b+1, racing claims from every worker.
    std::atomic<bool> poisoned{false};
    std::atomic<int> successes{0};
    run_team(procs, [&](exec::RContext& ctx) {
      if (ctx.proc() == 0) {
        ctx.sync_op(index, sync::Test::kNone, 0, sync::Op::kStore,
                    kBound + 1);
        poisoned.store(true);
      }
      while (!poisoned.load()) ctx_claim(ctx, index, kBound, k);
      for (int i = 0; i < 256; ++i) {
        if (ctx_claim(ctx, index, kBound, k).success) successes.fetch_add(1);
      }
    });
    EXPECT_EQ(successes.load(), 0);
    EXPECT_GT(index.load(), kBound);
  }
}

TEST(Claim, ThreadsPoisonMidDrainStopsLaterGrabs) {
  const u32 procs = team_size();
  constexpr i64 kBound = 200000;
  sync::SyncVar index(1);
  auto granted =
      std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(kBound + 1));
  std::atomic<bool> poisoned{false};
  std::atomic<int> after_poison{0};
  run_team(procs, [&](exec::RContext& ctx) {
    for (int n = 0;; ++n) {
      if (ctx.proc() == 0 && n == 64) {
        ctx.sync_op(index, sync::Test::kNone, 0, sync::Op::kStore,
                    kBound + 1);
        poisoned.store(true);
      }
      const bool seen = poisoned.load();
      const sync::SyncResult r = ctx_claim(ctx, index, kBound, 1);
      if (!r.success) break;
      if (seen) after_poison.fetch_add(1);
      granted[r.fetched].fetch_add(1);
    }
  });
  EXPECT_EQ(after_poison.load(), 0);
  for (i64 j = 1; j <= kBound; ++j) {
    ASSERT_LE(granted[j].load(), 1) << "iteration " << j;
  }
}

TEST(Claim, ThreadsEveryStrategyDrainsOneIcbExactlyOnce) {
  const u32 procs = team_size();
  for (const Strategy& s : every_kind()) {
    for (const i64 b : {i64{1}, i64{7}, i64{10000}}) {
      for (const u32 shards : {1u, 4u}) {
        // Only `self` instances of at least G iterations shard
        // (index_shards_for); the sharded grab ignores the strategy.
        if (shards > 1 && (s.kind != Strategy::Kind::kSelf || b < shards)) {
          continue;
        }
        SCOPED_TRACE(::testing::Message()
                     << s.name() << " chunk=" << s.chunk << " b=" << b
                     << " shards=" << shards);
        Icb<exec::RContext> icb;
        icb.init(0, b, plan_steps(icb, s, b, procs), IndexVec{}, false,
                 kMaxDepth, shards);
        auto granted = std::make_unique<std::atomic<int>[]>(
            static_cast<std::size_t>(b + 1));
        std::atomic<int> last_grabs{0};
        run_team(procs, [&](exec::RContext& ctx) {
          for (;;) {
            const Dispatch d = dispatch_iterations(ctx, icb, s);
            if (d.count == 0) break;
            for (i64 j = d.first; j < d.first + d.count; ++j) {
              granted[j].fetch_add(1);
            }
            if (d.last_scheduled) last_grabs.fetch_add(1);
          }
        });
        for (i64 j = 1; j <= b; ++j) {
          ASSERT_EQ(granted[j].load(), 1) << "iteration " << j;
        }
        EXPECT_EQ(last_grabs.load(), 1);
      }
    }
  }
}

/// Engine events of one vtime worker running `grab` three times against a
/// bound of 4 with chunk 3: two successes, then a failure.
template <typename Grab>
std::vector<vtime::TraceEvent> vtime_events(Grab grab) {
  vtime::Engine engine(1, /*trace=*/true);
  vtime::VSync index(1);
  engine.run([&](ProcId id) {
    vtime::VContext ctx(engine, id, vtime::CostModel{});
    for (int i = 0; i < 3; ++i) grab(ctx, index);
  });
  EXPECT_EQ(index.v, 7);  // the failed tested grab does not write
  return engine.trace();
}

TEST(Claim, VtimeRecordsTheTestedFetchAddEvent) {
  const auto old_call = vtime_events([](vtime::VContext& ctx,
                                        vtime::VSync& index) {
    ctx.sync_op(index, sync::Test::kLE, 4, sync::Op::kFetchAdd, 3);
  });
  const auto claim = vtime_events([](vtime::VContext& ctx,
                                     vtime::VSync& index) {
    ctx_claim(ctx, index, 4, 3);
  });
  ASSERT_EQ(claim.size(), 3u);
  ASSERT_EQ(old_call.size(), claim.size());
  for (std::size_t i = 0; i < claim.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "event " << i);
    const vtime::TraceEvent& a = old_call[i];
    const vtime::TraceEvent& e = claim[i];
    EXPECT_EQ(e.test, sync::Test::kLE);
    EXPECT_EQ(e.op, sync::Op::kFetchAdd);
    EXPECT_EQ(e.test_value, 4);
    EXPECT_EQ(e.operand, 3);
    EXPECT_EQ(e.seq, a.seq);
    EXPECT_EQ(e.time, a.time);
    EXPECT_EQ(e.success, a.success);
    EXPECT_EQ(e.fetched, a.fetched);
  }
  EXPECT_TRUE(claim[0].success);
  EXPECT_TRUE(claim[1].success);
  EXPECT_FALSE(claim[2].success);
}

TEST(Claim, VtimeDispatchIssuesNoEqualityGrab) {
  // Every grab is the tested claim: no strategy reads index and then
  // retries a {index == seen ; Fetch&Add} on it.
  constexpr u32 kProcs = 4;
  for (const Strategy& s : every_kind()) {
    for (const u32 shards : {1u, 4u}) {
      if (shards > 1 && s.kind != Strategy::Kind::kSelf) continue;
      SCOPED_TRACE(::testing::Message() << s.name() << " chunk=" << s.chunk
                                        << " shards=" << shards);
      vtime::Engine engine(kProcs, /*trace=*/true);
      Icb<vtime::VContext> icb;
      icb.init(0, 1000, plan_steps(icb, s, 1000, kProcs), IndexVec{}, false,
               kMaxDepth, shards);
      std::atomic<i64> total{0};
      engine.run([&](ProcId id) {
        vtime::VContext ctx(engine, id, vtime::CostModel{});
        for (;;) {
          const Dispatch d = dispatch_iterations(ctx, icb, s);
          if (d.count == 0) break;
          total.fetch_add(d.count);
        }
      });
      EXPECT_EQ(total.load(), 1000);
      for (const vtime::TraceEvent& e : engine.trace()) {
        EXPECT_FALSE(e.test == sync::Test::kEQ && e.op == sync::Op::kFetchAdd)
            << "equality grab at event " << e.seq;
      }
    }
  }
}

TEST(Claim, VtimeFlatGrabIsOneSyncOp) {
  // The step number is the grab: a flat grab under every kind is one
  // ctx_claim on the step counter.  A P = 1 drain issues exactly one sync
  // op per attempt, the failing one after the last step included.
  constexpr i64 kBound = 1000;
  for (const Strategy& s : every_kind()) {
    SCOPED_TRACE(::testing::Message() << s.name() << " chunk=" << s.chunk);
    vtime::Engine engine(1);
    Icb<vtime::VContext> icb;
    const i64 steps = plan_steps(icb, s, kBound, 1);
    icb.init(0, kBound, steps, IndexVec{}, false);
    i64 attempts = 0;
    i64 granted = 0;
    engine.run([&](ProcId id) {
      vtime::VContext ctx(engine, id, vtime::CostModel{});
      for (;;) {
        const u64 before = ctx.stats().sync_ops;
        const Dispatch d = dispatch_iterations(ctx, icb, s);
        ++attempts;
        EXPECT_EQ(ctx.stats().sync_ops - before, 1u) << "attempt " << attempts;
        if (d.count == 0) break;
        granted += d.count;
      }
    });
    EXPECT_EQ(attempts, steps + 1);
    EXPECT_EQ(granted, kBound);
  }
}

}  // namespace
}  // namespace selfsched::runtime
