// The ExecutionContext concept: the seam between the scheduler (written
// once, Algorithms 1–6 of the paper) and the two machines it runs on —
// real std::thread workers over std::atomic (exec/real_context.hpp) and the
// deterministic virtual-time multiprocessor (vtime/context.hpp).
//
// A context is a per-worker object.  Everything the scheduler does to shared
// state goes through sync_op(), the paper's indivisible test-and-op
// instruction, so the simulator can timestamp and charge every
// synchronization access; plain loads/stores are allowed only for data that
// is published/consumed across a sync_op pair (e.g. ICB payload fields
// written before APPEND and read after acquiring the list lock).
#pragma once

#include <array>
#include <concepts>
#include <cstddef>

#include "common/types.hpp"
#include "sync/test_op.hpp"

namespace selfsched::exec {

/// Where a worker's time goes.  The paper's overhead analysis (§IV) splits
/// scheduling cost into O1 (per-iteration index/icount accesses), O2
/// (SEARCH) and O3 (EXIT+ENTER); we keep those exact buckets plus the
/// useful-work and wait buckets needed to compute utilization.
enum class Phase : u32 {
  kBody,          // useful work: executing loop-body iterations (τ)
  kIterSync,      // O1: the index grab per chunk, plus the icount update
                  // (vtime: per chunk; threads: once per attachment)
  kSearch,        // O2: SW leading-one-detection + list walk + ivec copy
  kExitEnter,     // O3: EXIT level computation + ENTER instance activation
  kPoolIdle,      // spinning in SEARCH while the task pool is empty
  kDoacrossWait,  // spinning on a cross-iteration dependence flag
  kTeardown,      // waiting for pcount to drain before releasing an ICB
  kOther,         // team setup and anything uncategorized
};
inline constexpr std::size_t kNumPhases = 8;

const char* phase_name(Phase p);

/// Single-character glyph for timeline rendering (stats.cpp Gantt).
char phase_glyph(Phase p);

/// One contiguous stretch of a worker's time spent in a single phase;
/// produced by the virtual-time engine when phase timelines are enabled.
struct PhaseInterval {
  Phase phase;
  Cycles start;
  Cycles end;
};

/// Per-worker accounting.  Plain (non-atomic) — each worker owns its slot;
/// the harness merges after the team joins.
struct WorkerStats {
  std::array<Cycles, kNumPhases> phase_cycles{};

  u64 iterations = 0;       // loop-body iterations executed
  u64 dispatches = 0;       // successful low-level grabs (chunks)
  u64 sync_ops = 0;         // synchronization instructions issued
  u64 failed_sync_ops = 0;  // ...whose test failed (spin retries)
  u64 searches = 0;         // SEARCH invocations that found an ICB
  u64 search_steps = 0;     // list nodes examined across all SEARCHes
  u64 exits = 0;            // EXIT invocations
  u64 enters = 0;           // ENTER activations (ICBs appended)
  u64 icbs_released = 0;    // ICBs this worker deallocated

  Cycles& operator[](Phase p) {
    return phase_cycles[static_cast<std::size_t>(p)];
  }
  Cycles operator[](Phase p) const {
    return phase_cycles[static_cast<std::size_t>(p)];
  }

  Cycles total_cycles() const {
    Cycles t = 0;
    for (Cycles c : phase_cycles) t += c;
    return t;
  }

  void merge(const WorkerStats& o) {
    for (std::size_t i = 0; i < kNumPhases; ++i)
      phase_cycles[i] += o.phase_cycles[i];
    iterations += o.iterations;
    dispatches += o.dispatches;
    sync_ops += o.sync_ops;
    failed_sync_ops += o.failed_sync_ops;
    searches += o.searches;
    search_steps += o.search_steps;
    exits += o.exits;
    enters += o.enters;
    icbs_released += o.icbs_released;
  }
};

// clang-format off
/// The contract the scheduler templates require of a context C:
///   C::Sync            synchronization-variable type (default-constructible,
///                      holds an i64, address-stable, non-copyable)
///   C::kIsSimulated    true when time is virtual (worker may skip real work)
///   proc()/num_procs() identity of this worker within the team
///   sync_op(...)       the indivisible test-and-op instruction
///   work(c)            execute/charge c cycles of loop-body work
///   pause(c)           burn c cycles spinning (backoff between retries)
///   set_phase(p)       switch the accounting bucket; returns previous phase
///   stats()            this worker's counters
// clang-format on
template <typename C>
concept ExecutionContext =
    requires(C ctx, typename C::Sync& v, sync::Test t, sync::Op op) {
      requires std::default_initializable<typename C::Sync>;
      { C::kIsSimulated } -> std::convertible_to<bool>;
      { ctx.proc() } -> std::convertible_to<ProcId>;
      { ctx.num_procs() } -> std::convertible_to<u32>;
      { ctx.sync_op(v, t, i64{}, op, i64{}) } -> std::same_as<sync::SyncResult>;
      { ctx.work(Cycles{}) };
      { ctx.pause(Cycles{}) };
      { ctx.set_phase(Phase::kBody) } -> std::same_as<Phase>;
      { ctx.stats() } -> std::same_as<WorkerStats&>;
    };

/// RAII phase switch: enters `p`, restores the previous phase on scope exit.
template <typename C>
class PhaseScope {
 public:
  PhaseScope(C& ctx, Phase p) : ctx_(ctx), prev_(ctx.set_phase(p)) {}
  ~PhaseScope() { ctx_.set_phase(prev_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  C& ctx_;
  Phase prev_;
};

}  // namespace selfsched::exec
