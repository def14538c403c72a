// ICB allocator: a free list over an address-stable arena, guarded by the
// paper's lock protocol.  ICBs are created by ENTER and released by the
// last processor to leave a completed instance (Algorithm 3's "release the
// ICB"); recycling keeps activation cost flat and reuses the heap-backed
// auxiliaries — the Doacross per-iteration flag arrays and the sharded-index
// shard counter arrays (both capacity-tracked in Icb::init).  Arena growth
// never moves existing ICBs, and the recycle happens-before chain (icb.hpp)
// rests on the releaser's pool-lock release pairing with the next
// acquirer's pool-lock acquire.
#pragma once

#include <atomic>
#include <deque>
#include <unordered_set>

#include "audit/hooks.hpp"
#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "exec/context.hpp"
#include "runtime/ctx_sync.hpp"
#include "runtime/icb.hpp"

namespace selfsched::runtime {

template <exec::ExecutionContext C>
class IcbPool {
 public:
  IcbPool() { lock_.reset(1); }

  IcbPool(const IcbPool&) = delete;
  IcbPool& operator=(const IcbPool&) = delete;

  /// Pop a free ICB, growing the arena if the free list is empty.  The
  /// returned block is exclusively owned by the caller until APPEND
  /// publishes it.
  Icb<C>* acquire(C& ctx) {
    ctx_lock(ctx, lock_);
    Icb<C>* p = free_head_;
    if (p != nullptr) {
      free_head_ = p->right;
    } else {
      arena_.emplace_back();
      allocated_.fetch_add(1, std::memory_order_relaxed);
      p = &arena_.back();
    }
    // Inside the lock region: acquire/release hook delivery for one ICB is
    // therefore ordered exactly like the pool operations themselves.
    audit::on_acquire(ctx, p);
    ctx_unlock(ctx, lock_);
    return p;
  }

  /// Return a released ICB to the free list.  Caller must guarantee no
  /// other processor still holds a pointer (pcount protocol).
  void release(C& ctx, Icb<C>* p) {
    SS_DCHECK(p != nullptr);
    ctx_lock(ctx, lock_);
    audit::on_release(ctx, p);
    p->right = free_head_;
    p->left = nullptr;
    free_head_ = p;
    ctx_unlock(ctx, lock_);
  }

  /// Arena size (high-water mark of simultaneously live ICBs; tests verify
  /// it stays bounded by the program's activation width).  Safe to sample
  /// from a host thread while workers churn — the counter is atomic, so
  /// serve/stats readers never race the locked writers.
  u64 allocated() const { return allocated_.load(std::memory_order_relaxed); }

  /// Quiescence token for the host-side accessors below: granted by
  /// default (unit tests drive the pool single-threaded), revoked by
  /// ProgramRun while workers are live, re-granted once they have joined.
  void set_host_quiescent(bool q) { host_quiescent_ = q; }

  /// Host-side sweep of every in-use ICB (cancelled-run drain): invokes
  /// `fn(Icb<C>*)` on each arena block not on the free list, then returns
  /// it to the free list.  Caller must hold the quiescence token: every
  /// worker has joined, so no lock is taken and no hook ordering is at
  /// stake.
  template <typename Fn>
  void host_drain(Fn&& fn) {
    SS_DCHECK_MSG(host_quiescent_, "IcbPool::host_drain outside quiescence");
    std::unordered_set<const Icb<C>*> free;
    for (const Icb<C>* p = free_head_; p != nullptr; p = p->right) {
      free.insert(p);
    }
    for (Icb<C>& node : arena_) {
      if (free.count(&node) != 0) continue;
      fn(&node);
      node.right = free_head_;
      node.left = nullptr;
      free_head_ = &node;
    }
  }

 private:
  // On its own cache line, like the task-pool list locks.
  alignas(kCacheLine) typename C::Sync lock_;
  Icb<C>* free_head_ = nullptr;
  std::deque<Icb<C>> arena_;  // deque: growth never moves existing ICBs
  std::atomic<u64> allocated_{0};
  bool host_quiescent_ = true;
};

}  // namespace selfsched::runtime
