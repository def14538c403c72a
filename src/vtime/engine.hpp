// Deterministic virtual-time multiprocessor.
//
// The scheduler code (Algorithms 1–6) runs natively on P carrier threads,
// one per virtual processor.  Every access to a shared synchronization
// variable enters this engine, which serializes the accesses in strict
// (timestamp, processor-id) order — a conservative parallel-discrete-event
// conductor.  Because ties are broken deterministically and every operation
// has cost >= 1 cycle, the interleaving (and therefore every scheduling
// decision, every counter, every makespan) is a pure function of the program
// and the cost model, independent of host scheduling.  This is what lets a
// single-core container reproduce the paper's 8–64-processor utilization
// and speedup curves.
//
// Protocol per virtual processor (vp):
//   Running  — executing host code between engine calls; its local_time is a
//              conservative lower bound on its next event (all ops cost >=1).
//   Pending  — inside sync_execute(), waiting for the grant.
//   Done     — worker function returned.
// A pending vp with key (next_time, id) is granted when its key is
// lexicographically smaller than every other pending key and smaller than
// (local_time + 1, id) of every Running vp.
//
// Tie-breaks are pluggable: a ScheduleController (schedule_ctrl.hpp) may
// own the choice among simultaneously-eligible pending vps, exploring
// alternative legal interleavings.  With a controller attached the engine
// waits until no Running vp can still produce an event at the head
// timestamp before deciding, so the candidate set — and therefore every
// controller decision — is independent of host thread timing; results are
// then a pure function of (program, cost model, controller spec).  Without
// a controller the original greedy head-grant path runs unchanged.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sync/test_op.hpp"

namespace selfsched::vtime {

class ScheduleController;

/// A simulated synchronization variable: a plain word whose every access is
/// engine-mediated.  Lives wherever the runtime puts it (ICBs, lock tables);
/// no registration with the engine is needed.
struct VSync {
  i64 v = 0;
  constexpr VSync() = default;
  constexpr explicit VSync(i64 init) : v(init) {}
  VSync(const VSync&) = delete;
  VSync& operator=(const VSync&) = delete;

  /// Plain initialization of a variable that is not yet shared (mirrors
  /// sync::SyncVar::reset); ordering comes from the publishing sync_op.
  void reset(i64 x) { v = x; }

  /// Host-side read (audit peeks): no sync_op, no virtual-time charge.  A
  /// relaxed atomic load, because one SW word holds the bits of up to 64
  /// lists and another carrier may be writing a neighbouring bit through
  /// the engine meanwhile; Engine::sync_execute stores atomically to match.
  i64 load() const {
    return std::atomic_ref<i64>(const_cast<i64&>(v)).load(
        std::memory_order_relaxed);
  }
};

/// One engine-serialized event, for determinism tests and debugging.
struct TraceEvent {
  u64 seq;
  ProcId proc;
  Cycles time;
  const void* var;
  sync::Test test;
  i64 test_value;
  sync::Op op;
  i64 operand;
  bool success;
  i64 fetched;
};

class Engine {
 public:
  explicit Engine(u32 num_procs, bool trace = false);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  u32 num_procs() const { return num_procs_; }

  /// Attach a tie-break controller (borrowed; must outlive run()).  Call
  /// before run().  nullptr restores canonical (time, id) order.
  void set_schedule_controller(ScheduleController* ctrl) { ctrl_ = ctrl; }

  /// Record the grant chosen at every multi-candidate decision point (the
  /// schedule's choice-point trace; feed it to a kReplay controller to
  /// reproduce this run).  Call before run().
  void set_record_schedule(bool on) { record_schedule_ = on; }

  /// Recorded choice-point grants (valid after run() when recording).
  const std::vector<ProcId>& schedule_decisions() const { return decisions_; }

  /// Launch one carrier thread per virtual processor, run `worker(proc)` on
  /// each, join, and return the makespan (max final local time).  A fresh
  /// Engine is required per run.
  Cycles run(const std::function<void(ProcId)>& worker);

  /// --- called by VContext from carrier threads ---

  /// The indivisible test-and-op, executed at local_time + cost on the
  /// virtual clock.  Blocks (host-side) until the grant.
  sync::SyncResult sync_execute(ProcId id, Cycles cost, VSync& var,
                                sync::Test test, i64 test_value, sync::Op op,
                                i64 operand);

  /// Advance this vp's clock by `c` cycles without touching shared state
  /// (loop-body work, spin backoff, bookkeeping charges).  Never blocks.
  void advance(ProcId id, Cycles c);

  Cycles now(ProcId id) const;

  /// Makespan so far (valid after run() returns).
  Cycles makespan() const { return makespan_; }

  /// Total engine-serialized operations (valid after run()).
  u64 total_ops() const { return seq_; }

  const std::vector<TraceEvent>& trace() const { return trace_; }

 private:
  struct Vp {
    Cycles local_time = 0;
    Cycles next_time = 0;
    /// Ordering key used in pending_: next_time plus controller jitter.
    /// Jitter perturbs only the grant order, never the virtual clock.
    Cycles eff_time = 0;
    /// Sync ops issued so far (jitter hash input).
    u64 ops_issued = 0;
    bool granted = false;
    std::condition_variable cv;
  };

  using Key = std::pair<Cycles, u32>;

  /// Grant the head pending vp if no other vp can produce an earlier event.
  void maybe_grant_locked();

  /// SELFSCHED_OP_LIMIT watchdog (see engine.cpp).
  void check_op_limit_locked();

  u32 num_procs_;
  bool tracing_;
  ScheduleController* ctrl_ = nullptr;
  bool record_schedule_ = false;

  mutable std::mutex mu_;
  std::vector<Vp> vps_;
  std::set<Key> pending_;  // (eff_time, id) of vps awaiting their grant
  std::set<Key> running_;  // (local_time, id) of vps executing host code
  /// A grant has been issued but the woken vp has not executed yet; no
  /// further grant decision may be made (with a controller, re-deciding
  /// would consume RNG/replay state nondeterministically).
  bool grant_outstanding_ = false;
  std::vector<ProcId> cands_;     // decision-point scratch
  std::vector<ProcId> decisions_; // recorded choice-point grants
  u64 seq_ = 0;
  u64 op_limit_ = 0;
  Cycles makespan_ = 0;
  std::vector<TraceEvent> trace_;
  std::string worker_error_;
};

}  // namespace selfsched::vtime
