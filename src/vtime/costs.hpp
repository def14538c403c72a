// Cycle-cost model of the simulated multiprocessor.  The paper's overhead
// analysis (§IV) parameterizes utilization by the per-component costs O1,
// O2, O3; these knobs are the primitive costs from which those components
// are built.  Different presets model different 1980s shared-memory machines
// and let the benches demonstrate the paper's claim that the optimal chunk
// size k is machine-dependent (Eq. 7).
#pragma once

#include "common/types.hpp"

namespace selfsched::vtime {

struct CostModel {
  /// One indivisible test-and-op instruction on a shared synchronization
  /// variable (round trip through the interconnect).  Also the cost of one
  /// SW word fetch with leading-one-detection.
  Cycles sync_op = 12;

  /// Following one linked-list pointer and inspecting an ICB during SEARCH.
  Cycles list_step = 6;

  /// Copying one level of the enclosing-loop index vector out of an ICB.
  Cycles ivec_copy_per_level = 2;

  /// Allocating and initializing / releasing an ICB (beyond its sync ops).
  Cycles icb_alloc = 24;
  Cycles icb_release = 12;

  /// One level of DESCRPT walking in EXIT or ENTER.
  Cycles descrpt_step = 8;

  /// Evaluating an IF-THEN-ELSE condition expression.
  Cycles cond_eval = 10;

  /// Evaluating a loop-bound expression (constant bounds are free).
  Cycles bound_eval = 6;

  /// Extra per-dispatch arithmetic of the low-level strategy (e.g. GSS's
  /// remaining/P division, factoring's batch computation).
  Cycles dispatch_arith = 4;

  /// Cedar-like ratios: moderately expensive shared-memory sync through a
  /// multistage network.
  static CostModel cedar();

  /// Hardware combining / fetch-and-add support (RP3/Ultracomputer style):
  /// sync ops barely more expensive than local work.
  static CostModel cheap_sync();

  /// Software-emulated synchronization (lock + read-modify-write through a
  /// bus): every shared access hurts, pushing the optimal chunk size up.
  static CostModel expensive_sync();
};

}  // namespace selfsched::vtime
