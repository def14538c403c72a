// BAR_COUNT: per-instance barrier counters for enclosing parallel loops.
//
// The paper's EXIT increments "the corresponding BAR_COUNTER" when the last
// innermost chain inside a parallel loop iteration completes; the counter
// reaching the loop bound means the whole parallel-loop instance is done
// and the walk continues one level up.  Each *instance* of each enclosing
// parallel loop needs its own counter (the paper's BAR_COUNT(1:3) for
// Fig. 1 is one counter for loop I plus one per instance of loop J).  With
// index-dependent bounds the instance set is not static, so we key counters
// dynamically by (loop_uid, enclosing index prefix) in a chained concurrent
// hash table with per-bucket paper-locks.  Counters are recycled the moment
// their barrier trips, so the table's footprint is bounded by the number of
// simultaneously active parallel-loop instances.
#pragma once

#include <memory>
#include <vector>

#include "audit/hooks.hpp"
#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "common/small_vec.hpp"
#include "exec/context.hpp"
#include "runtime/ctx_sync.hpp"

namespace selfsched::runtime {

template <exec::ExecutionContext C>
class BarCountTable {
 public:
  explicit BarCountTable(u32 num_buckets = 256)
      : mask_(round_up_pow2(num_buckets) - 1),
        buckets_(
            std::make_unique<Bucket[]>(static_cast<std::size_t>(mask_) + 1)) {
    for (u64 b = 0; b <= mask_; ++b) buckets_[b].lock.reset(1);
    node_lock_.reset(1);
  }

  BarCountTable(const BarCountTable&) = delete;
  BarCountTable& operator=(const BarCountTable&) = delete;

  /// Count one completed iteration of the parallel-loop instance identified
  /// by (loop_uid, first `prefix_len` entries of ivec).  Returns true when
  /// this was the bound-th arrival, i.e. the barrier tripped; the counter is
  /// reclaimed in that case.
  bool increment_and_check(C& ctx, u32 loop_uid, std::size_t prefix_len,
                           const IndexVec& ivec, i64 bound) {
    SS_DCHECK(bound >= 1);
    const u64 h =
        hash_prefix(ivec, prefix_len) ^ (u64{loop_uid} * 0x9e3779b97f4a7c15ULL);
    Bucket& bucket = buckets_[h & mask_];
    ctx_lock(ctx, bucket.lock);
    charge_cycles(ctx, kProbeCost);
    Node* prev = nullptr;
    Node* n = bucket.head;
    while (n != nullptr &&
           !(n->loop_uid == loop_uid && n->prefix_len == prefix_len &&
             prefix_equal(n->prefix, ivec, prefix_len))) {
      charge_cycles(ctx, kProbeCost);
      prev = n;
      n = n->next;
    }
    const bool created = (n == nullptr);
    if (n == nullptr) {
      n = alloc_node(ctx);
      n->loop_uid = loop_uid;
      n->prefix_len = prefix_len;
      copy_prefix(n->prefix, ivec, prefix_len);
      n->count.reset(0);
      n->next = bucket.head;
      bucket.head = n;
      prev = nullptr;
    }
    const i64 seen =
        ctx.sync_op(n->count, sync::Test::kNone, 0, sync::Op::kIncrement)
            .fetched;
    const bool tripped = (seen + 1 == bound);
    // Hook before the hard check so an overrun still yields a structured
    // audit report alongside the thrown diagnostic.
    audit::on_bar_count(ctx, loop_uid, created, seen + 1, bound, tripped);
    SS_CHECK_MSG(seen + 1 <= bound, "BAR_COUNT overran its loop bound");
    if (tripped) {
      // Unlink and recycle; the instance is complete and this key is dead.
      if (prev == nullptr) {
        // n may no longer be head's direct target if it was just inserted
        // at head; re-find prev defensively (list is short).
        if (bucket.head == n) {
          bucket.head = n->next;
        } else {
          Node* p = bucket.head;
          while (p->next != n) p = p->next;
          p->next = n->next;
        }
      } else {
        prev->next = n->next;
      }
      free_node(ctx, n);
    }
    ctx_unlock(ctx, bucket.lock);
    return tripped;
  }

  /// Quiescence token for the host-side accessors below: granted by
  /// default (unit tests drive the table single-threaded), revoked by
  /// ProgramRun while workers are live, re-granted once they have joined.
  void set_host_quiescent(bool q) { host_quiescent_ = q; }

  /// Number of live counters (test/diagnostic; takes no locks — quiescent
  /// states only, enforced by the quiescence token).
  u64 live_counters() const {
    SS_DCHECK_MSG(host_quiescent_,
                  "BarCountTable::live_counters outside quiescence");
    u64 live = 0;
    for (u64 b = 0; b <= mask_; ++b) {
      for (Node* n = buckets_[b].head; n != nullptr; n = n->next) ++live;
    }
    return live;
  }

  /// Host-side reclamation of every live counter (cancelled-run drain; see
  /// drain_cancelled in high_level.hpp).  Caller must hold the quiescence
  /// token.  Returns the number of nodes reclaimed.
  u64 host_clear() {
    SS_DCHECK_MSG(host_quiescent_,
                  "BarCountTable::host_clear outside quiescence");
    u64 reclaimed = 0;
    for (u64 b = 0; b <= mask_; ++b) {
      Node* n = buckets_[b].head;
      while (n != nullptr) {
        Node* next = n->next;
        n->next = free_nodes_;
        free_nodes_ = n;
        n = next;
        ++reclaimed;
      }
      buckets_[b].head = nullptr;
    }
    return reclaimed;
  }

 private:
  static constexpr Cycles kProbeCost = 4;

  struct Node {
    Node* next = nullptr;
    u32 loop_uid = 0;
    std::size_t prefix_len = 0;
    IndexVec prefix;
    typename C::Sync count;
  };

  struct alignas(kCacheLine) Bucket {
    typename C::Sync lock;
    Node* head = nullptr;
  };

  static bool prefix_equal(const IndexVec& a, const IndexVec& b,
                           std::size_t len) {
    for (std::size_t k = 0; k < len; ++k) {
      if (a[k] != b[k]) return false;
    }
    return true;
  }

  static void copy_prefix(IndexVec& dst, const IndexVec& src,
                          std::size_t len) {
    dst.resize(len);
    for (std::size_t k = 0; k < len; ++k) dst[k] = src[k];
  }

  static u64 round_up_pow2(u64 x) {
    u64 p = 1;
    while (p < x) p <<= 1;
    return p;
  }

  Node* alloc_node(C& ctx) {
    ctx_lock(ctx, node_lock_);
    Node* n = free_nodes_;
    if (n != nullptr) {
      free_nodes_ = n->next;
    } else {
      node_arena_.push_back(std::make_unique<Node>());
      n = node_arena_.back().get();
    }
    ctx_unlock(ctx, node_lock_);
    n->next = nullptr;
    return n;
  }

  void free_node(C& ctx, Node* n) {
    ctx_lock(ctx, node_lock_);
    n->next = free_nodes_;
    free_nodes_ = n;
    ctx_unlock(ctx, node_lock_);
  }

  u64 mask_;
  std::unique_ptr<Bucket[]> buckets_;
  typename C::Sync node_lock_;
  Node* free_nodes_ = nullptr;
  std::vector<std::unique_ptr<Node>> node_arena_;
  bool host_quiescent_ = true;
};

}  // namespace selfsched::runtime
