// The benchmark's own loop bodies and the serial reference they are checked
// against.  Every leaf of a CheckedProgram runs one body: it spins for the
// iteration's COST units (the recurrence RContext::work uses for cost-only
// leaves) and adds a hash of (leaf, ivec, j) to the executing worker's slot.
// The slot sums and counts, folded, prove that each iteration ran exactly
// once: a lost or repeated iteration changes both.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "baselines/sequential.hpp"
#include "program/tables.hpp"
#include "runtime/stats.hpp"

namespace perfbench {

using selfsched::Cycles;
using selfsched::u32;
using selfsched::u64;

/// Folded per-worker slots: Σ iteration hashes (mod 2^64) and iterations.
struct Tally {
  u64 sum = 0;
  u64 count = 0;
  bool operator==(const Tally&) const = default;
};

class CheckedProgram {
 public:
  /// Builds the program from a body factory (lang::parse_program's
  /// ParseOptions::bodies, or a hand-built AST).
  using Build = std::function<selfsched::program::NestedLoopProgram(
      const selfsched::program::BodyFactory&)>;

  /// `procs` bounds the worker ids the bodies may see.  With `skip_one` the
  /// bodies silently drop one iteration — the first of leaf 0's first
  /// instance — so a test can prove the check catches a lost iteration.
  CheckedProgram(const Build& build, u32 procs, bool skip_one = false);

  const std::shared_ptr<const selfsched::program::NestedLoopProgram>&
  program() const {
    return prog_;
  }

  /// Zero the slots; call before each run, with no run in flight.
  void reset();
  /// Fold the slots; call after the run has returned.
  Tally tally() const;

 private:
  struct Env;
  std::shared_ptr<Env> env_;
  std::shared_ptr<const selfsched::program::NestedLoopProgram> prog_;
};

/// What a correct run of a program must produce, from
/// baselines::run_sequential over the same bodies.
struct Reference {
  Tally expected;
  selfsched::baselines::SerialStats stats;
  std::vector<double> samples_ms;  // wall time of each serial run
  double serial_ms = 0;            // their median
};

/// Run the serial reference `reps` times (checking they agree) and time it.
Reference serial_reference(CheckedProgram& cp, int reps);

/// Time `reps` more serial runs into `ref` (each must reproduce
/// ref.expected).  Timing on both sides of a measurement window keeps the
/// reference from resting on one moment of a host's load.
void time_serial(CheckedProgram& cp, Reference& ref, int reps);

/// True iff run `r` completed and its bodies prove exactly-once execution:
/// no failure record, and both the slot tally and the runtime's iteration
/// count match the reference.
bool verified(const CheckedProgram& cp, const Reference& ref,
              const selfsched::runtime::RunResult& r);

}  // namespace perfbench
