// The task pool (§III-A, Fig. 7): m parallel doubly-linked lists of ICBs —
// one list per innermost parallel loop — plus the control word SW whose bit
// i says list i is non-empty, and one paper-lock per list.  APPEND and
// DELETE are Algorithms 2 and 1 verbatim (including the transient SW(i)=0
// during surgery, which diverts searching processors to other lists instead
// of blocking them on the lock).
#pragma once

#include <memory>

#include "audit/hooks.hpp"
#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "exec/context.hpp"
#include "runtime/ctx_sync.hpp"
#include "runtime/icb.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

template <exec::ExecutionContext C>
class TaskPool {
 public:
  explicit TaskPool(u32 num_lists) : m_(num_lists), sw_(num_lists) {
    SS_CHECK(num_lists > 0);
    lists_ = std::make_unique<List[]>(m_);
    for (u32 i = 0; i < m_; ++i) lists_[i].lock.reset(1);
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  u32 num_lists() const { return m_; }
  CtxControlWord<C>& sw() { return sw_; }

  /// Algorithm 2: append `ip` to list i and mark the list non-empty.
  void append(C& ctx, u32 i, Icb<C>* ip) {
    SS_DCHECK(i < m_);
    trace::bump(ctx, &trace::Counters::pool_appends);
    List& l = lists_[i];
    ctx_lock(ctx, l.lock);
    Icb<C>* x = l.tail;
    sw_.reset(ctx, i);
    ip->left = x;
    ip->right = nullptr;
    l.tail = ip;
    if (x != nullptr) {
      x->right = ip;
    } else {
      l.head = ip;
    }
    sw_.set(ctx, i);
    // Publish point: the hook fires inside the lock region, so a searcher's
    // attach hook (also under this lock) cannot be delivered first.
    audit::on_publish_icb(ctx, ip, i);
    audit::check_list(ctx, i, static_cast<const Icb<C>*>(l.head),
                      static_cast<const Icb<C>*>(l.tail),
                      [&] { return sw_.peek(i); });
    ctx_unlock(ctx, l.lock);
  }

  /// Algorithm 1: unlink `ip` from list i; SW(i) ends up 1 iff the list is
  /// still non-empty.  The ICB itself stays alive until its pcount drains.
  void delete_icb(C& ctx, u32 i, Icb<C>* ip) {
    SS_DCHECK(i < m_);
    trace::bump(ctx, &trace::Counters::pool_deletes);
    List& l = lists_[i];
    ctx_lock(ctx, l.lock);
    sw_.reset(ctx, i);
    Icb<C>* y = ip->right;
    Icb<C>* x = ip->left;
    if (x != nullptr) {
      x->right = y;
    } else {
      l.head = y;
    }
    if (y != nullptr) {
      y->left = x;
    } else {
      l.tail = x;
    }
    if (x != nullptr || y != nullptr) sw_.set(ctx, i);
    audit::on_unlink(ctx, ip);
    audit::check_list(ctx, i, static_cast<const Icb<C>*>(l.head),
                      static_cast<const Icb<C>*>(l.tail),
                      [&] { return sw_.peek(i); });
    ctx_unlock(ctx, l.lock);
  }

  /// Raw list access for SEARCH (caller must follow the paper's locking
  /// discipline: try-lock, re-test SW, walk, restore SW, unlock).
  typename C::Sync& list_lock(u32 i) { return lists_[i].lock; }
  Icb<C>*& list_head(u32 i) { return lists_[i].head; }

  /// Quiescence token for the host-side accessors below: granted by
  /// default (unit tests drive the pool single-threaded), revoked by
  /// ProgramRun while workers are live, re-granted once they have joined.
  void set_host_quiescent(bool q) { host_quiescent_ = q; }

  /// All lists empty (test/diagnostic; quiescent states only — enforced by
  /// the quiescence token).
  bool empty() const {
    SS_DCHECK_MSG(host_quiescent_, "TaskPool::empty outside quiescence");
    for (u32 i = 0; i < m_; ++i) {
      if (lists_[i].head != nullptr) return false;
    }
    return true;
  }

  /// Host-side unlink of every list (cancelled-run drain; see
  /// drain_cancelled in high_level.hpp).  Caller must hold the quiescence
  /// token: every worker has joined.  The ICBs themselves are reclaimed
  /// separately through IcbPool::host_drain.
  void host_clear() {
    SS_DCHECK_MSG(host_quiescent_, "TaskPool::host_clear outside quiescence");
    for (u32 i = 0; i < m_; ++i) {
      lists_[i].head = nullptr;
      lists_[i].tail = nullptr;
    }
  }

 private:
  struct alignas(kCacheLine) List {
    typename C::Sync lock;
    Icb<C>* head = nullptr;
    Icb<C>* tail = nullptr;
  };

  u32 m_;
  CtxControlWord<C> sw_;
  std::unique_ptr<List[]> lists_;
  bool host_quiescent_ = true;
};

}  // namespace selfsched::runtime
