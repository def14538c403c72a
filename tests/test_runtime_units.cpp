// Unit tests of the runtime building blocks in isolation, driven through a
// single-processor real context: ICB pool recycling, BAR_COUNT semantics,
// task-pool list surgery with SW invariants, the dispatch strategies'
// exact grab sequences (serial, and under contention on both engines), and
// the Gantt timeline renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/real_context.hpp"
#include "runtime/bar_count.hpp"
#include "runtime/high_level.hpp"
#include "runtime/icb_pool.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"
#include "runtime/strategy.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/verify.hpp"
#include "vtime/context.hpp"
#include "vtime/engine.hpp"
#include "workloads/iteration_cost.hpp"
#include "workloads/programs.hpp"

namespace selfsched::runtime {
namespace {

using exec::RContext;

IndexVec iv(std::initializer_list<i64> values) {
  IndexVec v;
  for (i64 x : values) v.push_back(x);
  return v;
}

// ---------------------------------------------------------------- IcbPool --

TEST(IcbPool, AcquireInitializesAndRecycles) {
  RContext ctx(0, 1);
  IcbPool<RContext> pool;
  Icb<RContext>* a = pool.acquire(ctx);
  a->init(3, 10, /*n_steps=*/10, iv({1, 2}), /*needs_da_flags=*/false);
  EXPECT_EQ(a->loop, 3u);
  EXPECT_EQ(a->bound, 10);
  EXPECT_EQ(a->index.load(), 1);
  EXPECT_EQ(a->icount.load(), 0);
  EXPECT_EQ(a->pcount.load(), 0);
  Icb<RContext>* b = pool.acquire(ctx);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.allocated(), 2u);
  pool.release(ctx, a);
  Icb<RContext>* c = pool.acquire(ctx);
  EXPECT_EQ(c, a) << "released block must be recycled";
  EXPECT_EQ(pool.allocated(), 2u);
}

TEST(IcbPool, DoacrossFlagArrayIsZeroedOnReuse) {
  RContext ctx(0, 1);
  IcbPool<RContext> pool;
  Icb<RContext>* a = pool.acquire(ctx);
  a->init(0, 5, 5, iv({}), /*needs_da_flags=*/true);
  a->da_flags[3].store(1);
  pool.release(ctx, a);
  Icb<RContext>* b = pool.acquire(ctx);
  ASSERT_EQ(a, b);
  b->init(0, 4, 4, iv({}), /*needs_da_flags=*/true);  // smaller: reuses array
  for (i64 j = 0; j <= 4; ++j) EXPECT_EQ(b->da_flags[j].load(), 0);
}

// ------------------------------------------------------------- BarCount --

TEST(BarCount, TripsExactlyAtBound) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(16);
  const IndexVec prefix = iv({1, 4});
  EXPECT_FALSE(bars.increment_and_check(ctx, 7, 2, prefix, 3));
  EXPECT_FALSE(bars.increment_and_check(ctx, 7, 2, prefix, 3));
  EXPECT_TRUE(bars.increment_and_check(ctx, 7, 2, prefix, 3));
  EXPECT_EQ(bars.live_counters(), 0u) << "tripped counter must be reclaimed";
}

TEST(BarCount, DistinguishesInstancesAndLoops) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(16);
  // Same uid, different prefixes: independent counters.
  EXPECT_FALSE(bars.increment_and_check(ctx, 1, 1, iv({1}), 2));
  EXPECT_FALSE(bars.increment_and_check(ctx, 1, 1, iv({2}), 2));
  // Different uid, same prefix: independent counters.
  EXPECT_FALSE(bars.increment_and_check(ctx, 2, 1, iv({1}), 2));
  EXPECT_EQ(bars.live_counters(), 3u);
  EXPECT_TRUE(bars.increment_and_check(ctx, 1, 1, iv({1}), 2));
  EXPECT_TRUE(bars.increment_and_check(ctx, 1, 1, iv({2}), 2));
  EXPECT_TRUE(bars.increment_and_check(ctx, 2, 1, iv({1}), 2));
  EXPECT_EQ(bars.live_counters(), 0u);
}

TEST(BarCount, BoundOneTripsImmediately) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(4);
  EXPECT_TRUE(bars.increment_and_check(ctx, 9, 0, iv({}), 1));
  EXPECT_EQ(bars.live_counters(), 0u);
}

TEST(BarCount, ReusedKeyAfterTripStartsFresh) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(4);
  EXPECT_FALSE(bars.increment_and_check(ctx, 3, 1, iv({5}), 2));
  EXPECT_TRUE(bars.increment_and_check(ctx, 3, 1, iv({5}), 2));
  // A later instance may legitimately reuse the same (uid, prefix) key
  // (e.g. the same loop re-entered in a new serial iteration of an outer
  // loop is keyed by a longer prefix, but semantically a fresh barrier
  // starts at zero).
  EXPECT_FALSE(bars.increment_and_check(ctx, 3, 1, iv({5}), 2));
  EXPECT_TRUE(bars.increment_and_check(ctx, 3, 1, iv({5}), 2));
}

TEST(BarCount, ManyKeysCollideSafely) {
  RContext ctx(0, 1);
  BarCountTable<RContext> bars(2);  // tiny: forces chains
  for (i64 k = 1; k <= 100; ++k) {
    EXPECT_FALSE(bars.increment_and_check(ctx, 1, 1, iv({k}), 2));
  }
  EXPECT_EQ(bars.live_counters(), 100u);
  for (i64 k = 1; k <= 100; ++k) {
    EXPECT_TRUE(bars.increment_and_check(ctx, 1, 1, iv({k}), 2));
  }
  EXPECT_EQ(bars.live_counters(), 0u);
}

// ------------------------------------------------------------- TaskPool --

TEST(TaskPool, AppendSetsSwAndLinks) {
  RContext ctx(0, 1);
  TaskPool<RContext> pool(4);
  IcbPool<RContext> icbs;
  EXPECT_EQ(pool.sw().leading_one(ctx), CtxControlWord<RContext>::kEmpty);

  Icb<RContext>* a = icbs.acquire(ctx);
  a->init(2, 3, 3, iv({}), false);
  pool.append(ctx, 2, a);
  EXPECT_EQ(pool.sw().leading_one(ctx), 2u);
  EXPECT_EQ(pool.list_head(2), a);

  Icb<RContext>* b = icbs.acquire(ctx);
  b->init(2, 3, 3, iv({}), false);
  pool.append(ctx, 2, b);
  EXPECT_EQ(pool.list_head(2), a);
  EXPECT_EQ(a->right, b);
  EXPECT_EQ(b->left, a);
  EXPECT_EQ(b->right, nullptr);
}

TEST(TaskPool, DeleteMiddleHeadTail) {
  RContext ctx(0, 1);
  TaskPool<RContext> pool(1);
  IcbPool<RContext> icbs;
  Icb<RContext>* n[3];
  for (auto& p : n) {
    p = icbs.acquire(ctx);
    p->init(0, 1, 1, iv({}), false);
    pool.append(ctx, 0, p);
  }
  // Delete middle.
  pool.delete_icb(ctx, 0, n[1]);
  EXPECT_EQ(pool.list_head(0), n[0]);
  EXPECT_EQ(n[0]->right, n[2]);
  EXPECT_EQ(n[2]->left, n[0]);
  EXPECT_EQ(pool.sw().leading_one(ctx), 0u);
  // Delete head.
  pool.delete_icb(ctx, 0, n[0]);
  EXPECT_EQ(pool.list_head(0), n[2]);
  EXPECT_EQ(n[2]->left, nullptr);
  EXPECT_EQ(pool.sw().leading_one(ctx), 0u);
  // Delete tail == last element: SW must clear.
  pool.delete_icb(ctx, 0, n[2]);
  EXPECT_EQ(pool.list_head(0), nullptr);
  EXPECT_EQ(pool.sw().leading_one(ctx),
            CtxControlWord<RContext>::kEmpty);
  EXPECT_TRUE(pool.empty());
}

TEST(TaskPool, ManyListsIndependent) {
  RContext ctx(0, 1);
  TaskPool<RContext> pool(130);  // multi-word SW
  IcbPool<RContext> icbs;
  Icb<RContext>* a = icbs.acquire(ctx);
  a->init(129, 1, 1, iv({}), false);
  pool.append(ctx, 129, a);
  EXPECT_EQ(pool.sw().leading_one(ctx), 129u);
  Icb<RContext>* b = icbs.acquire(ctx);
  b->init(5, 1, 1, iv({}), false);
  pool.append(ctx, 5, b);
  EXPECT_EQ(pool.sw().leading_one(ctx), 5u);
  pool.delete_icb(ctx, 5, b);
  EXPECT_EQ(pool.sw().leading_one(ctx), 129u);
  pool.delete_icb(ctx, 129, a);
  EXPECT_TRUE(pool.empty());
}

// -------------------------------------------------------- CtxControlWord --

TEST(CtxControlWord, LeafBoundaryBits) {
  // Bits 63/64/65 straddle the first word boundary of the context-side SW.
  RContext ctx(0, 1);
  CtxControlWord<RContext> sw(130);
  for (const u32 bit : {63u, 64u, 65u}) {
    sw.set(ctx, bit);
    EXPECT_TRUE(sw.test(ctx, bit)) << "bit=" << bit;
  }
  EXPECT_EQ(sw.leading_one(ctx), 63u);
  sw.reset(ctx, 63);
  EXPECT_FALSE(sw.test(ctx, 63));
  EXPECT_EQ(sw.leading_one(ctx), 64u);
  sw.reset(ctx, 64);
  EXPECT_EQ(sw.leading_one(ctx), 65u);
  EXPECT_EQ(sw.leading_one(ctx, 66), 65u) << "wrap across the boundary";
  sw.reset(ctx, 65);
  EXPECT_EQ(sw.leading_one(ctx), CtxControlWord<RContext>::kEmpty);
}

TEST(CtxControlWord, RaggedTailAndRotation) {
  RContext ctx(0, 1);
  CtxControlWord<RContext> sw(130);
  sw.set(ctx, 129);
  EXPECT_EQ(sw.leading_one(ctx), 129u);
  EXPECT_EQ(sw.leading_one(ctx, 129), 129u);
  sw.set(ctx, 2);
  EXPECT_EQ(sw.leading_one(ctx, 3), 129u);
  sw.reset(ctx, 129);
  EXPECT_EQ(sw.leading_one(ctx, 3), 2u) << "wrap from the ragged tail";
}

TEST(CtxControlWord, MultiWordMatchesABitsetOnRandomOps) {
  // The word-at-a-time rotated scan against a plain bitset oracle: one
  // deterministic op stream over four words, identical observable state
  // throughout (first set bit at or after every origin, wrapping).
  RContext ctx(0, 1);
  constexpr u32 kBits = 200;
  CtxControlWord<RContext> sw(kBits);
  std::vector<bool> oracle(kBits, false);
  const auto first_from = [&oracle](u32 start) {
    for (u32 k = 0; k < kBits; ++k) {
      const u32 bit = (start + k) % kBits;
      if (oracle[bit]) return bit;
    }
    return CtxControlWord<RContext>::kEmpty;
  };
  u64 rng = 0x243f6a8885a308d3ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 3000; ++step) {
    const u32 bit = static_cast<u32>(next() % kBits);
    const bool set = next() % 3 != 0;
    if (set) {
      sw.set(ctx, bit);
    } else {
      sw.reset(ctx, bit);
    }
    oracle[bit] = set;
    const u32 start = static_cast<u32>(next() % kBits);
    ASSERT_EQ(sw.leading_one(ctx, start), first_from(start))
        << "step=" << step << " start=" << start;
    ASSERT_EQ(sw.test(ctx, bit), set) << "step=" << step;
  }
}

// ------------------------------------------------------------ Strategies --

/// Drain an ICB of bound `b` with strategy `s`, returning the grab sizes in
/// dispatch order and checking coverage invariants.
std::vector<i64> drain(i64 b, const Strategy& s, u32 procs = 4) {
  RContext ctx(0, procs);
  Icb<RContext> icb;
  icb.init(0, b, plan_steps(icb, s, b, procs), IndexVec{}, false);
  std::vector<i64> sizes;
  std::set<i64> covered;
  bool saw_last = false;
  for (;;) {
    const Dispatch d = dispatch_iterations(ctx, icb, s);
    if (d.count == 0) break;
    EXPECT_FALSE(saw_last) << "grab after last_scheduled";
    sizes.push_back(d.count);
    for (i64 j = d.first; j < d.first + d.count; ++j) {
      EXPECT_TRUE(covered.insert(j).second) << "iteration " << j
                                            << " dispatched twice";
      EXPECT_GE(j, 1);
      EXPECT_LE(j, b);
    }
    saw_last = d.last_scheduled;
  }
  EXPECT_TRUE(saw_last || b == 0);
  EXPECT_EQ(static_cast<i64>(covered.size()), b) << "incomplete coverage";
  return sizes;
}

TEST(Strategy, SelfGrabsOneAtATime) {
  const auto sizes = drain(7, Strategy::self());
  EXPECT_EQ(sizes, (std::vector<i64>{1, 1, 1, 1, 1, 1, 1}));
}

TEST(Strategy, ChunkGrabsFixedBlocks) {
  const auto sizes = drain(10, Strategy::chunked(4));
  EXPECT_EQ(sizes, (std::vector<i64>{4, 4, 2}));
}

TEST(Strategy, ChunkLargerThanBound) {
  const auto sizes = drain(3, Strategy::chunked(100));
  EXPECT_EQ(sizes, (std::vector<i64>{3}));
}

TEST(Strategy, GssGuidedDecrease) {
  // P=4, b=100: ceil(100/4)=25, ceil(75/4)=19, ceil(56/4)=14, ...
  const auto sizes = drain(100, Strategy::gss(), 4);
  EXPECT_EQ(sizes.front(), 25);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], sizes[i - 1]) << "GSS chunks must not grow";
  }
  EXPECT_EQ(sizes.back(), 1);
}

TEST(Strategy, GssRespectsMinimumChunk) {
  const auto sizes = drain(100, Strategy::gss(8), 4);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    EXPECT_GE(sizes[i], 8);
  }
}

TEST(Strategy, FactoringHalvesGssChunks) {
  const auto gss_sizes = drain(256, Strategy::gss(), 4);
  const auto fac_sizes = drain(256, Strategy::factoring(), 4);
  EXPECT_EQ(fac_sizes.front(), 32);  // ceil(256 / (2*4))
  EXPECT_LT(fac_sizes.front(), gss_sizes.front());
}

TEST(Strategy, TrapezoidDecreasesLinearly) {
  const auto sizes = drain(128, Strategy::trapezoid(16, 2), 4);
  EXPECT_EQ(sizes.front(), 16);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], sizes[i - 1]);
  }
  EXPECT_GE(sizes.back(), 1);
}

// Closed-form chunk sequence of strategy `s` draining bound `b` with no
// interference (a single processor drains, so step order is index order):
// the analytic forms from §II-C / §IV that dispatch_iterations must match
// grab for grab.  GSS and factoring size off the true remaining count here,
// independently of the step recurrence the runtime uses.
std::vector<i64> closed_form(i64 b, const Strategy& s, u32 procs) {
  const i64 p = static_cast<i64>(procs);
  std::vector<i64> out;
  i64 index = 1;  // iterations are 1-based
  i64 n = 0;      // dispatch sequence number (trapezoid)
  while (index <= b) {
    const i64 remaining = b - index + 1;
    i64 want = 0;
    switch (s.kind) {
      case Strategy::Kind::kSelf:
        want = 1;
        break;
      case Strategy::Kind::kChunk:
        want = s.chunk;
        break;
      case Strategy::Kind::kGSS:
        want = std::max(s.chunk, (remaining + p - 1) / p);
        break;
      case Strategy::Kind::kFactoring:
        want = std::max(s.chunk, (remaining + 2 * p - 1) / (2 * p));
        break;
      case Strategy::Kind::kTrapezoid: {
        const i64 first =
            s.tss_first > 0 ? s.tss_first : std::max<i64>(1, b / (2 * p));
        const i64 avg = std::max<i64>(1, (first + s.tss_last) / 2);
        const i64 nd = std::max<i64>(1, (b + avg - 1) / avg);
        const i64 delta =
            nd > 1 ? std::max<i64>(0, (first - s.tss_last) / (nd - 1)) : 0;
        want = std::max(s.tss_last, first - n * delta);
        break;
      }
    }
    out.push_back(std::min(want, remaining));
    index += want;
    ++n;
  }
  return out;
}

i64 sum(const std::vector<i64>& v) {
  i64 s = 0;
  for (i64 x : v) s += x;
  return s;
}

TEST(Strategy, GssExactSequence) {
  // b=20, P=4: ceil(20/4)=5, ceil(15/4)=4, ceil(11/4)=3, ceil(8/4)=2,
  // ceil(6/4)=2, then 1s — and the closed form at scale.
  EXPECT_EQ(drain(20, Strategy::gss(), 4),
            (std::vector<i64>{5, 4, 3, 2, 2, 1, 1, 1, 1}));
  EXPECT_EQ(drain(100, Strategy::gss(), 4),
            closed_form(100, Strategy::gss(), 4));
}

TEST(Strategy, GssMinChunkExactSequence) {
  // min_chunk=8 floors the tail: 25,19,14,11,8 then max(8,·) until the
  // final short grab of the 7 leftover iterations.
  EXPECT_EQ(drain(100, Strategy::gss(8), 4),
            (std::vector<i64>{25, 19, 14, 11, 8, 8, 8, 7}));
}

TEST(Strategy, FactoringExactSequence) {
  // b=20, P=2: divisor 2P=4 gives the same decrease as GSS at P=4.
  EXPECT_EQ(drain(20, Strategy::factoring(), 2),
            (std::vector<i64>{5, 4, 3, 2, 2, 1, 1, 1, 1}));
  EXPECT_EQ(drain(256, Strategy::factoring(), 4),
            closed_form(256, Strategy::factoring(), 4));
}

TEST(Strategy, TrapezoidExactSequence) {
  // first=16, last=2, b=128, P=4: avg=9, N=ceil(128/9)=15,
  // delta=(16-2)/14=1 — chunks decrease by one per dispatch until the
  // bound clamps the final grab.
  EXPECT_EQ(drain(128, Strategy::trapezoid(16, 2), 4),
            (std::vector<i64>{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 2}));
}

TEST(Strategy, TrapezoidAutoFirstChunk) {
  // tss_first=0 selects first = b/(2P) = 128/8 = 16 (Tzen/Ni's conservative
  // default), decreasing to last=1.
  const auto sizes = drain(128, Strategy::trapezoid(0, 1), 4);
  EXPECT_EQ(sizes.front(), 16);
  EXPECT_EQ(sizes,
            (std::vector<i64>{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 2}));
  EXPECT_EQ(sizes, closed_form(128, Strategy::trapezoid(0, 1), 4));
}

TEST(Strategy, TrapezoidBoundSmallerThanLastChunk) {
  // b=3 with trapezoid(8,4): the single dispatch wants 8 but the bound
  // clamps it to the whole loop.
  EXPECT_EQ(drain(3, Strategy::trapezoid(8, 4), 4), (std::vector<i64>{3}));
  // Tiny auto-first: b < 2P makes first = max(1, b/(2P)) = 1.
  EXPECT_EQ(drain(3, Strategy::trapezoid(0, 1), 4),
            (std::vector<i64>{1, 1, 1}));
}

TEST(Strategy, AllKindsMatchClosedFormAndCoverBound) {
  // Sweep every strategy kind across bounds and processor counts: the
  // dispatched sequence must equal the analytic sequence grab for grab and
  // sum exactly to the bound (drain() additionally asserts no iteration is
  // dispatched twice).
  const std::vector<Strategy> strategies = {
      Strategy::self(),          Strategy::chunked(4),
      Strategy::gss(),           Strategy::gss(8),
      Strategy::factoring(),     Strategy::factoring(3),
      Strategy::trapezoid(16, 2), Strategy::trapezoid(0, 1),
      Strategy::trapezoid(8, 1),  Strategy::trapezoid(0, 5),
  };
  for (const i64 b : {1, 7, 64, 100, 333, 1000}) {
    for (const u32 procs : {1u, 2u, 4u, 8u}) {
      for (const auto& s : strategies) {
        const auto want = closed_form(b, s, procs);
        const auto got = drain(b, s, procs);
        EXPECT_EQ(got, want) << s.name() << " b=" << b << " P=" << procs;
        EXPECT_EQ(sum(got), b) << s.name() << " b=" << b << " P=" << procs;
      }
    }
  }
}

/// The guided walk as it was before the step table: step `seq`'s grant
/// re-walks the recurrence from step 0 (O(seq)), and the step count is the
/// bisection for the first step that starts past `span`.
Dispatch rewalk_step_at(i64 span, i64 div, i64 seq, i64 min_chunk) {
  const auto chunk = [&](i64 r) {
    return std::min(r, std::max(min_chunk, (r + div - 1) / div));
  };
  i64 remaining = span;
  for (i64 i = 0; i < seq && remaining > 0; ++i) remaining -= chunk(remaining);
  return {span - remaining + 1, chunk(remaining)};
}

i64 rewalk_step_count(i64 span, i64 div, i64 min_chunk) {
  i64 lo = 1;
  i64 hi = span;
  while (lo < hi) {
    const i64 mid = lo + (hi - lo) / 2;
    if (rewalk_step_at(span, div, mid, min_chunk).first > span) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(Strategy, GuidedStepTableMatchesTheRecurrenceRewalk) {
  // Exhaustive over b in [1, 400], P in [1, 9], min_chunk in [1, 6] and
  // both guided kinds, plus a few large bounds: the table plan_steps fills
  // at ENTER gives the same step count as the bisection and, step for
  // step, the same grant as re-walking the recurrence from step 0.
  std::vector<i64> bounds;
  for (i64 b = 1; b <= 400; ++b) bounds.push_back(b);
  for (const i64 b : {i64{1000}, i64{4097}, i64{65536}, i64{1} << 20}) {
    bounds.push_back(b);
  }
  RContext ctx(0, 1);
  Icb<RContext> icb;
  for (const Strategy::Kind kind :
       {Strategy::Kind::kGSS, Strategy::Kind::kFactoring}) {
    for (u32 procs = 1; procs <= 9; ++procs) {
      const i64 div = kind == Strategy::Kind::kGSS ? procs : 2 * procs;
      for (i64 min_chunk = 1; min_chunk <= 6; ++min_chunk) {
        const Strategy s = kind == Strategy::Kind::kGSS
                               ? Strategy::gss(min_chunk)
                               : Strategy::factoring(min_chunk);
        for (const i64 b : bounds) {
          SCOPED_TRACE(::testing::Message() << s.name() << " P=" << procs
                                            << " min=" << min_chunk
                                            << " b=" << b);
          const i64 n = plan_steps(icb, s, b, procs);
          ASSERT_EQ(n, rewalk_step_count(b, div, min_chunk));
          icb.init(0, b, n, IndexVec{}, false);
          for (i64 seq = 0; seq < n; ++seq) {
            const Dispatch want = rewalk_step_at(b, div, seq, min_chunk);
            const Dispatch got = step_at(s, icb, procs, seq);
            ASSERT_EQ(got.first, want.first) << "step " << seq;
            ASSERT_EQ(got.count, want.count) << "step " << seq;
          }
        }
      }
    }
  }
}

// The step number alone fixes a grant, so however the workers interleave,
// a flat Doall's grants are exactly those of a serial drain.  The sizes of
// a run's grants, in order of their first iteration; the grants must tile
// [1, b].
std::vector<i64> grant_sizes_by_first(const RunResult& r) {
  std::vector<std::pair<i64, i64>> grants;
  for (const auto& e : r.trace_events) {
    if (e.kind == trace::EventKind::kChunk) {
      grants.emplace_back(e.first, e.count);
    }
  }
  std::sort(grants.begin(), grants.end());
  std::vector<i64> sizes;
  i64 next = 1;
  for (const auto& [first, count] : grants) {
    EXPECT_EQ(first, next) << "grants overlap or leave a gap";
    next = first + count;
    sizes.push_back(count);
  }
  return sizes;
}

const std::vector<Strategy>& step_sized_kinds() {
  static const std::vector<Strategy> kinds = {
      Strategy::gss(), Strategy::factoring(), Strategy::trapezoid()};
  return kinds;
}

TEST(Strategy, ContendedVtimeRunsGrantTheSerialSequence) {
  // Seeded-shuffle schedules jitter every sync op's ordering key, so the
  // workers' claims land in many orders; a second counter that numbered
  // the steps apart from the claim would hand out sizes out of step order.
  constexpr i64 kBound = 600;
  const auto prog =
      workloads::flat_doall(kBound, workloads::uniform_cost(11, 20, 400));
  for (const Strategy& s : step_sized_kinds()) {
    for (const u32 procs : {4u, 8u}) {
      const auto want = closed_form(kBound, s, procs);
      for (const Cycles jitter : {3, 20, 200}) {
        for (u64 seed = 1; seed <= 50; ++seed) {
          SchedOptions opts;
          opts.strategy = s;
          opts.trace_events = true;
          opts.schedule.kind = vtime::ControllerKind::kSeededShuffle;
          opts.schedule.seed = seed;
          opts.schedule.jitter = jitter;
          const RunResult r = run_vtime(prog, procs, opts);
          ASSERT_EQ(grant_sizes_by_first(r), want)
              << s.name() << " P=" << procs << " jitter=" << jitter
              << " seed=" << seed;
        }
      }
    }
  }
}

TEST(Strategy, ContendedThreadsRunsGrantTheSerialSequence) {
  // The same on real cores, at one and two workers per core.
  constexpr i64 kBound = 600;
  const auto prog =
      workloads::flat_doall(kBound, workloads::uniform_cost(11, 20, 400));
  const u32 cores = std::max(1u, std::thread::hardware_concurrency());
  for (const Strategy& s : step_sized_kinds()) {
    for (const u32 procs : {cores, 2 * cores}) {
      const auto want = closed_form(kBound, s, procs);
      for (int run = 0; run < 5; ++run) {
        SchedOptions opts;
        opts.strategy = s;
        opts.trace_events = true;
        const RunResult r = run_threads(prog, procs, opts);
        ASSERT_EQ(grant_sizes_by_first(r), want)
            << s.name() << " P=" << procs << " run=" << run;
      }
    }
  }
}

// The step-sized portfolio swept across seeded-shuffle schedules with the
// invariant auditor shadowing each run: the parallel iteration multiset
// must equal the serial oracle and the auditor must stay silent.  Slots 0,
// 2 and 4 held deleted kinds (batched factoring, tuned trapezoid and the
// online-tuned adaptive); min-chunk factoring, explicit-endpoint trapezoid
// and min-chunk GSS keep the positional test names.
class PortfolioSweep : public ::testing::TestWithParam<u32> {};

TEST_P(PortfolioSweep, PreservesIterationSetAndAuditConservation) {
  const std::vector<Strategy> portfolio = {
      Strategy::factoring(3),
      Strategy::gss(),
      Strategy::trapezoid(8, 2),
      Strategy::factoring(),
      Strategy::gss(4),
  };
  const Strategy s = portfolio[GetParam()];
  for (const u64 seed : {3ULL, 17ULL}) {
    SchedOptions opts;
    opts.strategy = s;
    opts.audit = true;  // audit_abort=true: violations fail loudly
    ScheduleSweep sweep;
    sweep.schedules = 4;
    sweep.base_seed = 21;
    const ProgramBuilder build = [seed](const program::BodyFactory& bodies) {
      return workloads::random_program(seed, workloads::RandomProgramConfig{},
                                       bodies);
    };
    const auto d = differential_check(build, /*procs=*/4, EngineKind::kVtime,
                                      opts, sweep);
    EXPECT_TRUE(d.ok) << s.name() << " seed=" << seed << ": " << d.detail;
    EXPECT_EQ(d.schedules_run, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllNewKinds, PortfolioSweep, ::testing::Range(0u, 5u));

TEST(Strategy, ExhaustedIcbYieldsZero) {
  RContext ctx(0, 2);
  Icb<RContext> icb;
  icb.init(0, 1, 1, IndexVec{}, false);
  const Dispatch first = dispatch_iterations(ctx, icb, Strategy::self());
  EXPECT_EQ(first.count, 1);
  EXPECT_TRUE(first.last_scheduled);
  const Dispatch second = dispatch_iterations(ctx, icb, Strategy::self());
  EXPECT_EQ(second.count, 0);
}

TEST(Strategy, Names) {
  EXPECT_STREQ(Strategy::self().name(), "self(1)");
  EXPECT_STREQ(Strategy::gss().name(), "gss");
  EXPECT_STREQ(Strategy::chunked(5).name(), "chunk");
  EXPECT_STREQ(Strategy::factoring().name(), "factoring");
  EXPECT_STREQ(Strategy::trapezoid().name(), "trapezoid");
}

// ------------------------------------------------------------- shard math --

TEST(ShardMath, PartitionTilesTheBoundExactly) {
  // For every (b, G): shards are contiguous left to right, sizes differ by
  // at most one (balanced split of b = G*(b/G) + b%G), they sum to b, and
  // exactly min(b, G) shards are non-empty.
  for (const i64 b : {0, 1, 2, 3, 7, 10, 64, 100, 333}) {
    for (const u32 g_count : {1u, 2u, 3u, 4u, 7u, 8u, 64u}) {
      i64 next = 1;
      i64 total = 0;
      u32 nonempty = 0;
      i64 min_size = b + 1;
      i64 max_size = -1;
      for (u32 g = 0; g < g_count; ++g) {
        const i64 lo = shard::shard_lo(b, g_count, g);
        const i64 size = shard::shard_size(b, g_count, g);
        const i64 hi = shard::shard_hi(b, g_count, g);
        EXPECT_EQ(lo, next) << "b=" << b << " G=" << g_count << " g=" << g;
        EXPECT_EQ(hi, lo + size - 1);
        next = hi + 1;
        total += size;
        if (size > 0) ++nonempty;
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
      }
      EXPECT_EQ(total, b) << "b=" << b << " G=" << g_count;
      EXPECT_LE(max_size - min_size, 1) << "b=" << b << " G=" << g_count;
      EXPECT_EQ(nonempty, std::min<i64>(b, g_count))
          << "b=" << b << " G=" << g_count;
    }
  }
}

TEST(ShardMath, RaggedBoundExactSplit) {
  // b=10, G=4: 10 = 3+3+2+2, remainder shards first.
  const i64 b = 10;
  EXPECT_EQ(shard::shard_lo(b, 4, 0), 1);
  EXPECT_EQ(shard::shard_hi(b, 4, 0), 3);
  EXPECT_EQ(shard::shard_lo(b, 4, 1), 4);
  EXPECT_EQ(shard::shard_hi(b, 4, 1), 6);
  EXPECT_EQ(shard::shard_lo(b, 4, 2), 7);
  EXPECT_EQ(shard::shard_hi(b, 4, 2), 8);
  EXPECT_EQ(shard::shard_lo(b, 4, 3), 9);
  EXPECT_EQ(shard::shard_hi(b, 4, 3), 10);
}

TEST(ShardMath, BoundSmallerThanShardCountDegenerates) {
  // b=3, G=8: shards 0..2 own one iteration each; 3..7 are empty (lo > hi).
  // The runtime never builds such a split (it shards only when b >= G), but
  // the closed forms stay total, so the auditor can evaluate any split.
  const i64 b = 3;
  for (u32 g = 0; g < 3; ++g) {
    EXPECT_EQ(shard::shard_lo(b, 8, g), static_cast<i64>(g) + 1);
    EXPECT_EQ(shard::shard_size(b, 8, g), 1);
  }
  for (u32 g = 3; g < 8; ++g) {
    EXPECT_EQ(shard::shard_size(b, 8, g), 0);
    EXPECT_GT(shard::shard_lo(b, 8, g), shard::shard_hi(b, 8, g));
  }
}

TEST(ShardMath, HomeShardBlockMapping) {
  // proc*G/P: proc 0 always homes shard 0 (the Doacross liveness anchor),
  // the mapping is monotone in proc, stays in range, and when P >= G every
  // shard is some worker's home.
  for (const u32 procs : {1u, 2u, 4u, 8u, 12u}) {
    for (const u32 g_count : {1u, 2u, 4u, 8u}) {
      EXPECT_EQ(shard::home_shard_of(0, procs, g_count), 0u);
      std::set<u32> homes;
      u32 prev = 0;
      for (u32 p = 0; p < procs; ++p) {
        const u32 h = shard::home_shard_of(p, procs, g_count);
        EXPECT_LT(h, g_count);
        EXPECT_GE(h, prev) << "home mapping must be monotone";
        prev = h;
        homes.insert(h);
      }
      if (procs >= g_count) {
        EXPECT_EQ(homes.size(), g_count) << "P=" << procs << " G=" << g_count;
      }
    }
  }
}

TEST(ShardRule, VtimeAndThreadsPickTheSameShardCount) {
  // index_shards_for is one rule on both engines: only a `self` Doall with
  // at least kShardMinItersPerWorker iterations per worker, on P >= 2,
  // shards, into min(P, kMaxIndexShards) shards.
  struct Row {
    Strategy s;
    bool doacross;
    i64 b;
    u32 procs;
    u32 want;
  };
  constexpr i64 kMin = kShardMinItersPerWorker;
  const std::vector<Row> rows = {
      {Strategy::self(), false, kMin * 4 - 1, 4, 1},
      {Strategy::self(), false, kMin * 4, 4, 4},
      {Strategy::self(), false, kMin * 2, 2, 2},
      {Strategy::self(), false, kMin * 2 - 1, 2, 1},
      {Strategy::self(), false, 1 << 20, 1, 1},
      {Strategy::self(), true, kMin * 4, 4, 1},
      {Strategy::self(), false, kMin * 64, 72, 64},
      {Strategy::self(), false, kMin * 64 - 1, 72, 1},
      {Strategy::factoring(), false, 1 << 16, 4, 1},
      {Strategy::chunked(4), false, 1 << 16, 4, 1},
      {Strategy::gss(), false, 1 << 16, 4, 1},
  };
  for (const Row& row : rows) {
    vtime::Engine engine(row.procs);
    vtime::VContext vctx(engine, 0, vtime::CostModel::cedar());
    RContext rctx(0, row.procs);
    const u32 v = index_shards_for(vctx, row.s, row.doacross, row.b);
    const u32 r = index_shards_for(rctx, row.s, row.doacross, row.b);
    EXPECT_EQ(v, row.want) << row.s.name() << " doacross=" << row.doacross
                           << " b=" << row.b << " P=" << row.procs;
    EXPECT_EQ(v, r) << row.s.name() << " doacross=" << row.doacross
                    << " b=" << row.b << " P=" << row.procs;
  }
}

TEST(Shard, IcbInitSetsCountersToShardRangesAndRecycles) {
  RContext ctx(0, 4);
  Icb<RContext> icb;
  icb.init(0, 10, 10, IndexVec{}, false, kMaxDepth, /*index_shards=*/4);
  EXPECT_EQ(icb.num_shards, 4u);
  EXPECT_EQ(icb.sched_done.load(), 0);
  for (u32 g = 0; g < 4; ++g) {
    EXPECT_EQ(icb.shards[g].lo, shard::shard_lo(10, 4, g));
    EXPECT_EQ(icb.shards[g].hi, shard::shard_hi(10, 4, g));
    EXPECT_EQ(icb.shards[g].index.load(), icb.shards[g].lo);
  }
  // Recycle into a wider split: capacity grows and every shard is re-armed
  // at its own lo.
  icb.shards[0].index.store(99);
  icb.init(1, 20, 20, IndexVec{}, false, kMaxDepth, /*index_shards=*/8);
  EXPECT_EQ(icb.num_shards, 8u);
  for (u32 g = 0; g < 8; ++g) {
    EXPECT_EQ(icb.shards[g].lo, shard::shard_lo(20, 8, g));
    EXPECT_EQ(icb.shards[g].index.load(), icb.shards[g].lo);
  }
  // And back down to the flat layout: sharded state must not leak.
  icb.init(2, 5, 5, IndexVec{}, false);
  EXPECT_EQ(icb.num_shards, 1u);
  EXPECT_EQ(icb.index.load(), 1);
}

/// Drain a sharded ICB single-threaded (as proc 0 of `procs`), returning the
/// grab sizes per shard in dispatch order and checking the sharded protocol
/// invariants: exactly-once coverage of [1, b], grabs stay inside the
/// granting shard's range, home-first probe order (shard g is touched only
/// after shards home..g-1 drained), and the completion election fires
/// exactly once, on the final grab.
std::vector<std::vector<i64>> sharded_drain(i64 b, u32 g_count,
                                            const Strategy& s, u32 procs) {
  RContext ctx(0, procs);
  Icb<RContext> icb;
  icb.init(0, b, plan_steps(icb, s, b, procs), IndexVec{}, false, kMaxDepth,
           g_count);
  std::vector<std::vector<i64>> per_shard(g_count);
  std::set<i64> covered;
  bool saw_last = false;
  for (;;) {
    const Dispatch d = dispatch_iterations(ctx, icb, s);
    if (d.count == 0) break;
    EXPECT_FALSE(saw_last) << "grab after the completion election";
    // Attribute the grab to the shard whose range contains it; the grab
    // must not straddle a shard boundary.
    u32 g = g_count;
    for (u32 cand = 0; cand < g_count; ++cand) {
      if (d.first >= shard::shard_lo(b, g_count, cand) &&
          d.first <= shard::shard_hi(b, g_count, cand)) {
        g = cand;
        break;
      }
    }
    EXPECT_LT(g, g_count) << "grab outside every shard range";
    if (g >= g_count) return per_shard;
    EXPECT_LE(d.first + d.count - 1, shard::shard_hi(b, g_count, g))
        << "grab straddles a shard boundary";
    per_shard[g].push_back(d.count);
    for (i64 j = d.first; j < d.first + d.count; ++j) {
      EXPECT_TRUE(covered.insert(j).second)
          << "iteration " << j << " dispatched twice";
    }
    saw_last = d.last_scheduled;
  }
  EXPECT_TRUE(saw_last || b == 0) << "completion election never fired";
  EXPECT_EQ(static_cast<i64>(covered.size()), b) << "incomplete coverage";
  return per_shard;
}

TEST(Shard, SingleShardMatchesFlatSequences) {
  // G=1 must be indistinguishable from the flat dispatcher: same grabs, in
  // the same order, for every strategy the flat conformance sweep covers.
  for (const auto& s : {Strategy::gss(), Strategy::factoring(),
                        Strategy::trapezoid(), Strategy::chunked(5)}) {
    const auto flat = drain(100, s, 4);
    const auto sharded = sharded_drain(100, 1, s, 4);
    EXPECT_EQ(sharded[0], flat) << s.name();
  }
}

TEST(Shard, StealOrderIsHomeFirstThenRotation) {
  // A single worker of an 8-proc team homes shard 0 and, as each shard
  // drains, rotates upward: shard g's first grab comes only after every
  // grab of shards 0..g-1.  With b=10, G=4 the grabs are single iterations
  // 1, 2, ..., 10: firsts ascend.
  RContext ctx(0, 8);
  Icb<RContext> icb;
  icb.init(0, 10, 10, IndexVec{}, false, kMaxDepth, 4);
  const Strategy s = Strategy::self();
  i64 prev_first = 0;
  u32 grabs = 0;
  bool last = false;
  for (;;) {
    const Dispatch d = dispatch_iterations(ctx, icb, s);
    if (d.count == 0) break;
    EXPECT_GT(d.first, prev_first) << "single-thread probe order regressed";
    prev_first = d.first;
    ++grabs;
    last = d.last_scheduled;
  }
  EXPECT_TRUE(last);
  EXPECT_EQ(grabs, 10u);  // a shard grab is one iteration
  EXPECT_EQ(icb.sched_done.load(), 4);  // every shard drained once
}

// ------------------------------------------------------------ render_gantt --

constexpr char kGanttHeader[] =
    "gantt over 10 cycles ('#'=body '+'=iter-sync 's'=search 'E'=exit/enter "
    "'.'=idle 'w'=doacross-wait 't'=teardown)\n";

RunResult gantt_result() {
  RunResult r;
  r.procs = 2;
  r.makespan = 10;
  r.timeline.resize(2);
  return r;
}

TEST(RenderGantt, SnapshotTwoProcs) {
  RunResult r = gantt_result();
  r.timeline[0] = {{exec::Phase::kBody, 0, 5}, {exec::Phase::kSearch, 5, 10}};
  r.timeline[1] = {{exec::Phase::kBody, 0, 10}};
  EXPECT_EQ(render_gantt(r, 10), std::string(kGanttHeader) +
                                     "p00 |#####sssss|\n"
                                     "p01 |##########|\n");
}

TEST(RenderGantt, ZeroLengthIntervalIsSkipped) {
  // A [3,3) interval has no area; it must neither paint a column nor
  // underflow the end-1 column computation.
  RunResult r = gantt_result();
  r.timeline[0] = {{exec::Phase::kSearch, 3, 3}, {exec::Phase::kBody, 0, 10}};
  r.timeline[1] = {{exec::Phase::kSearch, 0, 0}};
  EXPECT_EQ(render_gantt(r, 10), std::string(kGanttHeader) +
                                     "p00 |##########|\n"
                                     "p01 |          |\n");
}

TEST(RenderGantt, EmptyTimelineReturnsPlaceholder) {
  RunResult r;
  r.procs = 2;
  r.makespan = 10;
  EXPECT_EQ(render_gantt(r, 10),
            "(no timeline recorded; set SchedOptions::phase_timeline)\n");
}

TEST(RenderGantt, ZeroMakespanReturnsPlaceholder) {
  RunResult r = gantt_result();
  r.makespan = 0;
  r.timeline[0] = {{exec::Phase::kBody, 0, 0}};
  EXPECT_EQ(render_gantt(r, 10),
            "(no timeline recorded; set SchedOptions::phase_timeline)\n");
  EXPECT_EQ(render_gantt(gantt_result(), 0),
            "(no timeline recorded; set SchedOptions::phase_timeline)\n");
}

}  // namespace
}  // namespace selfsched::runtime
