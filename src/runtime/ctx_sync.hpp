// Context-generic synchronization building blocks used by the scheduler:
// the paper's lock protocol and the control word SW, expressed purely in
// terms of ExecutionContext::sync_op so the virtual-time engine can
// timestamp and charge every access.  Real cores run the same code over
// sync::SyncVar through RContext.
#pragma once

#include <bit>
#include <memory>
#include <thread>

#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "exec/context.hpp"
#include "exec/real_context.hpp"
#include "runtime/fault.hpp"
#include "sync/backoff.hpp"
#include "sync/test_op.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

using sync::Op;
using sync::Test;

/// One round of a spin-wait, and the only place a waiter gives up time.
/// vtime charges the backoff's next pause as idle virtual cycles.  Real
/// cores relax for it until the wait has spent its spin budget
/// (RContext::kPauseYieldThreshold), then yield the core on every further
/// round.  The backoff cap sets how often a waiter polls; the budget sets
/// when it stops holding the core.
template <exec::ExecutionContext C>
void ctx_pause(C& ctx, sync::Backoff& backoff) {
  const Cycles c = backoff.next();
  if constexpr (!C::kIsSimulated) {
    if (backoff.spent() > exec::RContext::kPauseYieldThreshold) {
      std::this_thread::yield();
      return;
    }
  }
  ctx.pause(c);
}

/// Paper lock acquire: spin: {L = 1; Decrement}; if (failure) goto spin.
/// Fault-injection seam: an armed kLockDelay fault pauses the matching
/// worker here, perturbing lock-arrival order (compiles out without a plan).
template <exec::ExecutionContext C>
void ctx_lock(C& ctx, typename C::Sync& l) {
  fault::on_lock(ctx);
  sync::Backoff backoff;
  while (!ctx.sync_op(l, Test::kEQ, 1, Op::kDecrement).success) {
    trace::bump(ctx, &trace::Counters::backoff_iterations);
    ctx_pause(ctx, backoff);
  }
  trace::bump(ctx, &trace::Counters::lock_acquisitions);
}

template <exec::ExecutionContext C>
bool ctx_try_lock(C& ctx, typename C::Sync& l) {
  const bool acquired = ctx.sync_op(l, Test::kEQ, 1, Op::kDecrement).success;
  if (acquired) trace::bump(ctx, &trace::Counters::lock_acquisitions);
  return acquired;
}

/// Paper lock release: {L; Increment}.
template <exec::ExecutionContext C>
void ctx_unlock(C& ctx, typename C::Sync& l) {
  ctx.sync_op(l, Test::kNone, 0, Op::kIncrement);
}

/// The paper's bounded grab {index <= b ; Fetch&Add(k)} (§III-B "start:"):
/// true iff the fetched value is a legal iteration, which then begins a
/// block of k iterations owned by this caller alone.
///
/// vtime issues exactly that tested instruction, so the engine serializes,
/// charges and traces it as one (kLE, Fetch&Add) event.  Real hardware has
/// no tested fetch&add, and emulating one costs a load-then-CAS retry loop
/// whose retries grow with contention.  There the claim is one
/// unconditional fetch_add (`lock xadd` on x86) that succeeds iff the
/// fetched value is <= b.  A failed claim still moves the index past b;
/// that overshoot is harmless because every reader compares the index
/// against its bound (see Icb::index) and a failure is still counted in
/// failed_sync_ops.
template <exec::ExecutionContext C>
sync::SyncResult ctx_claim(C& ctx, typename C::Sync& index, i64 b, i64 k) {
  if constexpr (C::kIsSimulated) {
    return ctx.sync_op(index, Test::kLE, b, Op::kFetchAdd, k);
  } else {
    const i64 fetched =
        ctx.sync_op(index, Test::kNone, 0, Op::kFetchAdd, k).fetched;
    if (fetched <= b) return {true, fetched};
    ++ctx.stats().failed_sync_ops;
    return {false, fetched};
  }
}

/// Charge simulated bookkeeping cycles; a no-op on real hardware, where the
/// bookkeeping itself takes the time.
template <exec::ExecutionContext C>
void charge_cycles([[maybe_unused]] C& ctx, [[maybe_unused]] Cycles c) {
  if constexpr (C::kIsSimulated) ctx.charge(c);
}

/// The control word SW over context sync variables: bit i set while linked
/// list i is non-empty.  leading_one() models the paper's hardware
/// leading-one-detection: one Fetch per 64-bit word (a single instruction
/// for m <= 64, exactly the paper's machine).  For m > 64 the scan sweeps
/// the words in rotated order from the caller's origin; each word sits on
/// its own cache line.
template <exec::ExecutionContext C>
class CtxControlWord {
 public:
  explicit CtxControlWord(u32 num_bits) { resize(num_bits); }

  static constexpr u32 kEmpty = 0xffffffffu;

  u32 size() const { return num_bits_; }

  /// Re-size to `num_bits` bits, all clear.  Word storage only grows.
  /// Host-side: no worker may be live.
  void resize(u32 num_bits) {
    SS_CHECK(num_bits > 0);
    num_bits_ = num_bits;
    num_words_ = (num_bits + 63) / 64;
    if (num_words_ > words_cap_) {
      words_ = std::make_unique<Padded[]>(num_words_);
      words_cap_ = num_words_;
    }
    for (u32 w = 0; w < num_words_; ++w) words_[w].v.reset(0);
  }

  void set(C& ctx, u32 i) {
    SS_DCHECK(i < num_bits_);
    ctx.sync_op(words_[i >> 6].v, Test::kNone, 0, Op::kFetchOr,
                static_cast<i64>(bit_mask(i)));
  }

  void reset(C& ctx, u32 i) {
    SS_DCHECK(i < num_bits_);
    ctx.sync_op(words_[i >> 6].v, Test::kNone, 0, Op::kFetchAnd,
                static_cast<i64>(~bit_mask(i)));
  }

  /// Host-side read of bit i — no sync_op, so no virtual-time charge and no
  /// schedule perturbation.  Exact only where the caller owns the ordering:
  /// all SW(i) mutations happen under list i's lock, so holding that lock
  /// (as the audit hooks do) makes the peek authoritative.
  bool peek(u32 i) const {
    SS_DCHECK(i < num_bits_);
    const u64 bits = static_cast<u64>(words_[i >> 6].v.load());
    return (bits & bit_mask(i)) != 0;
  }

  /// One-bit probe (the local-list-first fast path of SEARCH): one Fetch.
  bool test(C& ctx, u32 i) {
    SS_DCHECK(i < num_bits_);
    const u64 bits = static_cast<u64>(
        ctx.sync_op(words_[i >> 6].v, Test::kNone, 0, Op::kFetch).fetched);
    return (bits & bit_mask(i)) != 0;
  }

  /// First set bit at or after `start`, wrapping, or kEmpty.  Each word
  /// inspected costs one Fetch.
  u32 leading_one(C& ctx, u32 start = 0) {
    trace::bump(ctx, &trace::Counters::sw_scans);
    if (start >= num_bits_) start = 0;
    const u32 start_word = start >> 6;
    for (u32 k = 0; k < num_words_; ++k) {
      const u32 wi = (start_word + k) % num_words_;
      const u64 mask = k == 0 ? ~u64{0} << (start & 63) : ~u64{0};
      const u32 bit = scan_word(ctx, wi, mask);
      if (bit != kEmpty) return bit;
    }
    if ((start & 63) != 0) {
      return scan_word(ctx, start_word, (u64{1} << (start & 63)) - 1);
    }
    return kEmpty;
  }

 private:
  // Words live on their own cache lines so searchers sweeping SW do not
  // false-share with list surgery on neighboring lists.
  struct alignas(kCacheLine) Padded {
    typename C::Sync v;
  };

  static constexpr u64 bit_mask(u32 i) { return u64{1} << (i & 63); }

  u32 scan_word(C& ctx, u32 wi, u64 mask) {
    const u64 bits =
        static_cast<u64>(
            ctx.sync_op(words_[wi].v, Test::kNone, 0, Op::kFetch).fetched) &
        mask;
    if (bits == 0) return kEmpty;
    const u32 bit = wi * 64 + static_cast<u32>(std::countr_zero(bits));
    return bit < num_bits_ ? bit : kEmpty;
  }

  u32 num_bits_ = 0;
  u32 num_words_ = 0;
  u32 words_cap_ = 0;
  std::unique_ptr<Padded[]> words_;
};

}  // namespace selfsched::runtime
