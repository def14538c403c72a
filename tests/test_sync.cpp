// Unit tests of the synchronization substrate: the Cedar test-and-op
// vocabulary, SyncVar atomicity, the control word with leading-one
// detection and the paper's lock (over a real-hardware context), backoff,
// and the barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <thread>
#include <vector>

#include "exec/real_context.hpp"
#include "runtime/ctx_sync.hpp"
#include "sync/backoff.hpp"
#include "sync/barrier.hpp"
#include "sync/sync_var.hpp"

namespace selfsched::sync {
namespace {

// ------------------------------------------------------------- semantics --

TEST(TestOp, TestRelations) {
  EXPECT_TRUE(test_holds(sync::Test::kNone, 5, -100));
  EXPECT_TRUE(test_holds(sync::Test::kGT, 5, 4));
  EXPECT_FALSE(test_holds(sync::Test::kGT, 5, 5));
  EXPECT_TRUE(test_holds(sync::Test::kGE, 5, 5));
  EXPECT_FALSE(test_holds(sync::Test::kGE, 4, 5));
  EXPECT_TRUE(test_holds(sync::Test::kLT, 4, 5));
  EXPECT_FALSE(test_holds(sync::Test::kLT, 5, 5));
  EXPECT_TRUE(test_holds(sync::Test::kLE, 5, 5));
  EXPECT_FALSE(test_holds(sync::Test::kLE, 6, 5));
  EXPECT_TRUE(test_holds(sync::Test::kEQ, 5, 5));
  EXPECT_FALSE(test_holds(sync::Test::kEQ, 5, 6));
  EXPECT_TRUE(test_holds(sync::Test::kNE, 5, 6));
  EXPECT_FALSE(test_holds(sync::Test::kNE, 5, 5));
}

TEST(TestOp, OpSemantics) {
  EXPECT_EQ(apply_op(sync::Op::kFetch, 7, 99), 7);
  EXPECT_EQ(apply_op(sync::Op::kStore, 7, 99), 99);
  EXPECT_EQ(apply_op(sync::Op::kIncrement, 7, 99), 8);
  EXPECT_EQ(apply_op(sync::Op::kDecrement, 7, 99), 6);
  EXPECT_EQ(apply_op(sync::Op::kFetchAdd, 7, -3), 4);
  EXPECT_EQ(apply_op(sync::Op::kFetchOr, 0b0101, 0b0011), 0b0111);
  EXPECT_EQ(apply_op(sync::Op::kFetchAnd, 0b0101, 0b0011), 0b0001);
}

TEST(TestOp, Names) {
  EXPECT_STREQ(test_name(sync::Test::kGE), ">=");
  EXPECT_STREQ(op_name(sync::Op::kFetchAdd), "Fetch&Add");
}

// ---------------------------------------------------------------- SyncVar --

struct TryOpCase {
  Test test;
  i64 test_value;
  Op op;
  i64 operand;
  i64 initial;
  bool want_success;
  i64 want_fetched;
  i64 want_after;
};

// Names a case after its fields, e.g. LT100_FetchAdd3_on42.  GoogleTest's
// default printer dumps the struct's bytes, padding included, and CTest
// names each case after that dump, so without this the case names changed
// from build to build.
void PrintTo(const TryOpCase& c, std::ostream* os) {
  static constexpr const char* kTests[] = {"None", "GT", "GE", "LT",
                                           "LE",   "EQ", "NE"};
  static constexpr const char* kOps[] = {"Fetch",     "Store",    "Increment",
                                         "Decrement", "FetchAdd", "FetchOr",
                                         "FetchAnd"};
  *os << kTests[static_cast<u32>(c.test)] << c.test_value << '_'
      << kOps[static_cast<u32>(c.op)] << c.operand << "_on" << c.initial;
}

class SyncVarTruthTable : public ::testing::TestWithParam<TryOpCase> {};

TEST_P(SyncVarTruthTable, TryOp) {
  const TryOpCase& c = GetParam();
  SyncVar v(c.initial);
  const SyncResult r = v.try_op(c.test, c.test_value, c.op, c.operand);
  EXPECT_EQ(r.success, c.want_success);
  if (c.want_success) {
    EXPECT_EQ(r.fetched, c.want_fetched);
  }
  EXPECT_EQ(v.load(), c.want_after);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SyncVarTruthTable,
    ::testing::Values(
        // The paper's example: {A < 100; Fetch(a)&add(3)}.
        TryOpCase{sync::Test::kLT, 100, sync::Op::kFetchAdd, 3, 42, true, 42, 45},
        TryOpCase{sync::Test::kLT, 100, sync::Op::kFetchAdd, 3, 100, false, 0, 100},
        // P operation: {S > 0; Decrement}.
        TryOpCase{sync::Test::kGT, 0, sync::Op::kDecrement, 0, 1, true, 1, 0},
        TryOpCase{sync::Test::kGT, 0, sync::Op::kDecrement, 0, 0, false, 0, 0},
        // V operation: null test.
        TryOpCase{sync::Test::kNone, 0, sync::Op::kIncrement, 0, 0, true, 0, 1},
        // Lock acquire: {L == 1; Decrement}.
        TryOpCase{sync::Test::kEQ, 1, sync::Op::kDecrement, 0, 1, true, 1, 0},
        TryOpCase{sync::Test::kEQ, 1, sync::Op::kDecrement, 0, 0, false, 0, 0},
        // CAS via equality: {x == 7; Fetch&Add(5)}.
        TryOpCase{sync::Test::kEQ, 7, sync::Op::kFetchAdd, 5, 7, true, 7, 12},
        TryOpCase{sync::Test::kEQ, 7, sync::Op::kFetchAdd, 5, 8, false, 0, 8},
        // Store with test.
        TryOpCase{sync::Test::kNE, 3, sync::Op::kStore, 9, 4, true, 4, 9},
        TryOpCase{sync::Test::kNE, 3, sync::Op::kStore, 9, 3, false, 0, 3},
        // Pure fetch with failing test leaves value alone.
        TryOpCase{sync::Test::kGE, 10, sync::Op::kFetch, 0, 9, false, 0, 9},
        TryOpCase{sync::Test::kGE, 10, sync::Op::kFetch, 0, 10, true, 10, 10},
        // Bitwise extensions.
        TryOpCase{sync::Test::kNone, 0, sync::Op::kFetchOr, 0b100, 0b001, true, 0b001,
                  0b101},
        TryOpCase{sync::Test::kNone, 0, sync::Op::kFetchAnd, 0b110, 0b011, true, 0b011,
                  0b010}));

TEST(SyncVar, ContendedFetchAddSumsExactly) {
  SyncVar v(0);
  constexpr int kThreads = 4;
  constexpr i64 kPer = 20000;
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&v] {
      for (i64 i = 0; i < kPer; ++i) {
        v.try_op(sync::Test::kNone, 0, sync::Op::kFetchAdd, 1);
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(v.load(), kThreads * kPer);
}

TEST(SyncVar, BoundedFetchAddNeverOvershoots) {
  // The paper's "start:" instruction: {index <= b; Fetch&Increment}.
  // Under contention, exactly b successes must occur.
  constexpr i64 kBound = 10000;
  SyncVar index(1);
  std::atomic<i64> successes{0};
  std::vector<std::thread> team;
  for (int t = 0; t < 4; ++t) {
    team.emplace_back([&] {
      for (;;) {
        const SyncResult r =
            index.try_op(sync::Test::kLE, kBound, sync::Op::kIncrement);
        if (!r.success) return;
        successes.fetch_add(1);
        EXPECT_GE(r.fetched, 1);
        EXPECT_LE(r.fetched, kBound);
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(successes.load(), kBound);
  EXPECT_EQ(index.load(), kBound + 1);
}

TEST(SyncVar, IsCacheLineSized) {
  EXPECT_EQ(sizeof(SyncVar), kCacheLine);
}

// ------------------------------------------------------------ ControlWord --
//
// The control word and the lock as the scheduler uses them: over
// runtime::CtxControlWord / ctx_lock driven by a real-hardware context.

using exec::RContext;
using ControlWord = runtime::CtxControlWord<RContext>;

/// Set bits, counted with the host-side peek (no sync ops).
u32 popcount(const ControlWord& sw) {
  u32 n = 0;
  for (u32 i = 0; i < sw.size(); ++i) n += sw.peek(i) ? 1 : 0;
  return n;
}

TEST(ControlWord, SetResetTest) {
  RContext ctx(0, 1);
  ControlWord sw(8);
  EXPECT_EQ(popcount(sw), 0u);
  sw.set(ctx, 3);
  sw.set(ctx, 5);
  EXPECT_TRUE(sw.test(ctx, 3));
  EXPECT_TRUE(sw.test(ctx, 5));
  EXPECT_FALSE(sw.test(ctx, 4));
  EXPECT_EQ(popcount(sw), 2u);
  sw.reset(ctx, 3);
  EXPECT_FALSE(sw.test(ctx, 3));
  EXPECT_EQ(popcount(sw), 1u);
}

TEST(ControlWord, LeadingOneFindsLowestSetBit) {
  RContext ctx(0, 1);
  ControlWord sw(64);
  EXPECT_EQ(sw.leading_one(ctx), ControlWord::kEmpty);
  sw.set(ctx, 42);
  sw.set(ctx, 17);
  EXPECT_EQ(sw.leading_one(ctx), 17u);
  sw.reset(ctx, 17);
  EXPECT_EQ(sw.leading_one(ctx), 42u);
}

TEST(ControlWord, MultiWordScan) {
  RContext ctx(0, 1);
  ControlWord sw(200);
  sw.set(ctx, 199);
  EXPECT_EQ(sw.leading_one(ctx), 199u);
  sw.set(ctx, 64);
  EXPECT_EQ(sw.leading_one(ctx), 64u);
  sw.set(ctx, 63);
  EXPECT_EQ(sw.leading_one(ctx), 63u);
}

TEST(ControlWord, RotatedOriginWrapsAround) {
  RContext ctx(0, 1);
  ControlWord sw(128);
  sw.set(ctx, 10);
  // Starting the scan above the only set bit must still find it.
  EXPECT_EQ(sw.leading_one(ctx, 100), 10u);
  sw.set(ctx, 100);
  EXPECT_EQ(sw.leading_one(ctx, 100), 100u);
  EXPECT_EQ(sw.leading_one(ctx, 101), 10u);
}

TEST(ControlWord, OutOfRangeStartIsNormalized) {
  RContext ctx(0, 1);
  ControlWord sw(16);
  sw.set(ctx, 7);
  EXPECT_EQ(sw.leading_one(ctx, 9999), 7u);
}

TEST(ControlWord, SizeNotAMultipleOfWordSize) {
  // m = 130: three words, the last holding only two live bits — the top
  // bit must be reachable, and a rotated origin inside the ragged word
  // must wrap cleanly.
  RContext ctx(0, 1);
  ControlWord sw(130);
  sw.set(ctx, 129);
  EXPECT_EQ(sw.leading_one(ctx), 129u);
  EXPECT_EQ(sw.leading_one(ctx, 129), 129u);
  sw.set(ctx, 0);
  EXPECT_EQ(sw.leading_one(ctx, 129), 129u);
  sw.reset(ctx, 129);
  EXPECT_EQ(sw.leading_one(ctx, 129), 0u) << "wrap from the ragged tail";
}

TEST(ControlWord, RotatedOriginAcrossLeaves) {
  RContext ctx(0, 1);
  ControlWord sw(256);
  sw.set(ctx, 5);
  sw.set(ctx, 200);
  EXPECT_EQ(sw.leading_one(ctx, 64), 200u);
  EXPECT_EQ(sw.leading_one(ctx, 200), 200u);
  EXPECT_EQ(sw.leading_one(ctx, 201), 5u);
  sw.reset(ctx, 200);
  EXPECT_EQ(sw.leading_one(ctx, 64), 5u);
}

TEST(ControlWord, MultiWordSetVisibleUnderContention) {
  // Threads hammer set/reset on interleaved bits (thread t owns the bits
  // = t mod 4), so all four threads share every one of the four words:
  // no Fetch&Or or Fetch&And may lose another thread's bit, and a scan
  // from a bit its owner holds set must stop right there.
  ControlWord sw(256);
  constexpr u32 kThreads = 4;
  std::atomic<u32> misses{0};
  std::vector<std::thread> ts;
  for (u32 t = 0; t < kThreads; ++t) {
    ts.emplace_back([&sw, &misses, t] {
      RContext ctx(t, kThreads);
      for (int round = 0; round < 2000; ++round) {
        const u32 bit = static_cast<u32>(round % 64) * kThreads + t;
        sw.set(ctx, bit);
        if (!sw.test(ctx, bit) || sw.leading_one(ctx, bit) != bit) ++misses;
        sw.reset(ctx, bit);
      }
      sw.set(ctx, t * 64 + 60 + t);  // one survivor per thread and word
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(misses.load(), 0u);
  RContext ctx(0, 1);
  for (u32 t = 0; t < kThreads; ++t) {
    const u32 survivor = t * 64 + 60 + t;
    const u32 next = ((t + 1) % kThreads) * 64 + 60 + (t + 1) % kThreads;
    EXPECT_TRUE(sw.test(ctx, survivor));
    EXPECT_EQ(sw.leading_one(ctx, survivor), survivor);
    EXPECT_EQ(sw.leading_one(ctx, survivor + 1), next) << "t=" << t;
  }
  EXPECT_EQ(sw.leading_one(ctx), 60u);
  EXPECT_EQ(popcount(sw), 4u);
}

// ------------------------------------------------------------------- Lock --

TEST(SpinLock, MutualExclusionUnderContention) {
  SyncVar lock(1);  // the paper's lock: 1 = free
  i64 counter = 0;  // unprotected except by `lock`
  constexpr u32 kThreads = 4;
  constexpr i64 kPer = 20000;
  std::vector<std::thread> team;
  for (u32 t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      RContext ctx(t, kThreads, /*measure_phases=*/false);
      for (i64 i = 0; i < kPer; ++i) {
        runtime::ctx_lock(ctx, lock);
        counter += 1;
        runtime::ctx_unlock(ctx, lock);
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(counter, kThreads * kPer);
  EXPECT_EQ(lock.load(), 1) << "lock left held";
}

TEST(SpinLock, TryLock) {
  RContext ctx(0, 1);
  SyncVar lock(1);
  EXPECT_TRUE(runtime::ctx_try_lock(ctx, lock));
  EXPECT_EQ(lock.load(), 0);
  EXPECT_FALSE(runtime::ctx_try_lock(ctx, lock));
  runtime::ctx_unlock(ctx, lock);
  EXPECT_TRUE(runtime::ctx_try_lock(ctx, lock));
  runtime::ctx_unlock(ctx, lock);
}

// ----------------------------------------------------------------- misc --

TEST(Backoff, DoublesAndCaps) {
  Backoff b(2, 16);
  EXPECT_EQ(b.next(), 2);
  EXPECT_EQ(b.next(), 4);
  EXPECT_EQ(b.next(), 8);
  EXPECT_EQ(b.next(), 16);
  EXPECT_EQ(b.next(), 16);
  b.reset();
  EXPECT_EQ(b.next(), 2);
}

TEST(Backoff, GrowthIsMonotoneAndNeverExceedsTheCap) {
  // Non-power-of-two cap: doubling from 3 gives 3,6,12,24,48 — one more
  // doubling would pass 50, so the sequence parks exactly at the cap.
  Backoff b(3, 50);
  Cycles prev = 0;
  for (int k = 0; k < 64; ++k) {
    const Cycles c = b.next();
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 50);
    prev = c;
  }
  EXPECT_EQ(prev, 50);
}

TEST(Backoff, ResetRestartsFromTheInitialValueEveryTime) {
  Backoff b(4, 4096);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(b.next(), 4);
    EXPECT_EQ(b.next(), 8);
    b.reset();
  }
}

TEST(Backoff, CapAtOrBelowInitialPinsTheSequence) {
  // The Doacross wait uses a tight cap (doacross_backoff_max); a cap equal
  // to the initial value must degenerate to a constant pause, not zero.
  Backoff b(16, 16);
  EXPECT_EQ(b.next(), 16);
  EXPECT_EQ(b.next(), 16);
  Backoff d;  // defaults: initial 1, cap 1024
  EXPECT_EQ(d.next(), 1);
  Cycles last = 0;
  for (int k = 0; k < 20; ++k) last = d.next();
  EXPECT_EQ(last, 1024);
}

TEST(Backoff, SeededJitterStaysInsideTheUpperHalfOfTheEnvelope) {
  // The k-th unjittered envelope from (2, 16) is 2, 4, 8, 16, 16, ...; a
  // seeded draw must land in [ceil(env/2), env] every time.
  Backoff b(2, 16);
  b.seed_jitter(1987);
  Cycles env = 2;
  for (int k = 0; k < 32; ++k) {
    const Cycles c = b.next();
    EXPECT_GE(c, env - env / 2) << "draw " << k;
    EXPECT_LE(c, env) << "draw " << k;
    env = env * 2 <= 16 ? env * 2 : 16;
  }
}

TEST(Backoff, SeededJitterIsAPureFunctionOfTheSeed) {
  const auto draw = [](u64 seed, int n) {
    Backoff b(1, 4096);
    b.seed_jitter(seed);
    std::vector<Cycles> out;
    for (int k = 0; k < n; ++k) out.push_back(b.next());
    return out;
  };
  // Same seed: bit-identical; different seed: some draw differs (the
  // envelope is wide enough from attempt 3 on that a full collision would
  // mean the hash is ignoring the seed).
  EXPECT_EQ(draw(7, 24), draw(7, 24));
  EXPECT_NE(draw(7, 24), draw(8, 24));
}

TEST(Backoff, SeededResetReplaysTheExactDrawSequence) {
  Backoff b(2, 1024);
  b.seed_jitter(42);
  std::vector<Cycles> first, second;
  for (int k = 0; k < 12; ++k) first.push_back(b.next());
  b.reset();
  for (int k = 0; k < 12; ++k) second.push_back(b.next());
  EXPECT_EQ(first, second);
}

TEST(Backoff, UnseededModeIsUnchangedByTheJitterFeature) {
  // A Backoff that never calls seed_jitter must reproduce the historical
  // envelope exactly — the spin paths pay nothing for jitter existing.
  Backoff b(2, 16);
  EXPECT_EQ(b.next(), 2);
  EXPECT_EQ(b.next(), 4);
  EXPECT_EQ(b.next(), 8);
  EXPECT_EQ(b.next(), 16);
  EXPECT_EQ(b.next(), 16);
}

TEST(Backoff, SpentCountsEveryUnitHandedOut) {
  Backoff b(2, 16);
  EXPECT_EQ(b.spent(), 0);
  Cycles sum = 0;
  for (int k = 0; k < 8; ++k) sum += b.next();
  EXPECT_EQ(sum, 2 + 4 + 8 + 16 * 5);
  EXPECT_EQ(b.spent(), sum);
  b.reset();
  EXPECT_EQ(b.spent(), 0);
  EXPECT_EQ(b.next(), 2);
  EXPECT_EQ(b.spent(), 2);

  // Jittered: the draws are counted, not the envelope they came from.
  Backoff j(2, 16);
  j.seed_jitter(1987);
  Cycles drawn = 0;
  Cycles envelope = 0;
  Cycles env = 2;
  for (int k = 0; k < 32; ++k) {
    drawn += j.next();
    envelope += env;
    env = env * 2 <= 16 ? env * 2 : 16;
  }
  EXPECT_EQ(j.spent(), drawn);
  EXPECT_LT(drawn, envelope);
  j.reset();
  EXPECT_EQ(j.spent(), 0);
}

/// A context that logs every pause it is asked for, so a test sees which
/// ctx_pause rounds relaxed (or charged) and which yielded instead.
template <bool kSimulated>
class PauseLogContext {
 public:
  using Sync = SyncVar;
  static constexpr bool kIsSimulated = kSimulated;

  ProcId proc() const { return 0; }
  u32 num_procs() const { return 1; }
  SyncResult sync_op(Sync& v, Test t, i64 test_value, Op op,
                     i64 operand = 0) {
    return v.try_op(t, test_value, op, operand);
  }
  void work(Cycles) {}
  void pause(Cycles c) { relaxed.push_back(c); }
  exec::Phase set_phase(exec::Phase p) { return p; }
  exec::WorkerStats& stats() { return stats_; }

  std::vector<Cycles> relaxed;

 private:
  exec::WorkerStats stats_;
};

static_assert(exec::ExecutionContext<PauseLogContext<false>>);

/// 1-based round on which a wait backing off over (1, cap) first yields,
/// after checking that every relaxed round stayed within the cap and that
/// the wait keeps yielding once it has started to.
int first_yield_round(Cycles cap) {
  PauseLogContext<false> ctx;
  Backoff backoff(1, cap);
  int first = 0;
  for (int round = 1; round <= 200; ++round) {
    const std::size_t before = ctx.relaxed.size();
    runtime::ctx_pause(ctx, backoff);
    const bool yielded = ctx.relaxed.size() == before;
    if (first != 0) {
      EXPECT_TRUE(yielded) << "round " << round;
    }
    if (yielded && first == 0) first = round;
  }
  Cycles relaxed = 0;
  for (const Cycles c : ctx.relaxed) {
    EXPECT_LE(c, cap);
    relaxed += c;
  }
  // Both caps relax the same 1023 units before their first yield.
  EXPECT_EQ(relaxed, 1023);
  return first;
}

TEST(CtxPause, RealCoresYieldOnceTheWaitHasSpentItsSpinBudget) {
  // Idle cap: 1 + 2 + ... + 512 = 1023 units over rounds 1-10, so round 11
  // (the first 1024-unit draw) yields — the round the old at-the-cap rule
  // yielded on.
  EXPECT_EQ(first_yield_round(1024), 11);
  // Doacross cap: 1 + 2 + 4 + 8, then 16 per round, polling every <= 16
  // units; 1023 units are spent after round 67, so round 68 yields.
  EXPECT_EQ(first_yield_round(16), 68);
}

TEST(CtxPause, VtimeChargesEveryRoundAndNeverYields) {
  PauseLogContext<true> ctx;
  Backoff backoff(1, 16);
  Backoff twin(1, 16);
  for (int round = 0; round < 200; ++round) {
    runtime::ctx_pause(ctx, backoff);
    ASSERT_EQ(ctx.relaxed.size(), static_cast<std::size_t>(round + 1));
    EXPECT_EQ(ctx.relaxed.back(), twin.next());
  }
}

TEST(SpinBarrier, RendezvousRepeats) {
  constexpr u32 kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_count[3] = {{0}, {0}, {0}};
  std::vector<std::thread> team;
  for (u32 t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      for (int phase = 0; phase < 3; ++phase) {
        phase_count[phase].fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, every thread must see the full count.
        EXPECT_EQ(phase_count[phase].load(), static_cast<int>(kThreads));
      }
    });
  }
  for (auto& t : team) t.join();
}

}  // namespace
}  // namespace selfsched::sync
