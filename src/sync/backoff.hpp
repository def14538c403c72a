// Bounded exponential backoff for busy-wait loops.
//
// The paper's algorithms spin on failed synchronization instructions
// ("if (failure) goto spin").  On real hardware naive spinning saturates the
// interconnect — the very effect the paper's overhead analysis (§IV) wants
// kept small — so every spin site takes a Backoff.  The policy is engine-
// agnostic: it yields a growing number of abstract "pause units"; the
// execution context turns them into cpu_relax() iterations (threads) or
// idle virtual cycles (vtime).
//
// Seeded jitter (optional): retry schedulers that back colliding clients
// off in lockstep re-collide on every attempt, so seed_jitter(s) draws each
// next() uniformly (via the stateless mix64 hash off seed + attempt
// counter) from the upper half [ceil(env/2), env] of the deterministic
// envelope.  The envelope itself still doubles to the cap, the sequence is
// a pure function of (initial, max, seed), and the default unseeded mode is
// bit-identical to the pre-jitter Backoff — the spin paths above pay
// nothing for the feature existing.
//
// spent() is the wait's running total of pause units handed out.  Real
// cores yield the core once a wait has spent its spin budget
// (runtime::ctx_pause), so how often a waiter polls (the cap) and when it
// gives up its core (the budget) are separate decisions.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"

namespace selfsched::sync {

class Backoff {
 public:
  explicit constexpr Backoff(Cycles initial = 1, Cycles max = 1024)
      : cur_(initial), initial_(initial), max_(max) {}

  /// Enable deterministic seeded jitter for subsequent next() calls.  The
  /// k-th jittered draw is mix64(seed ^ k * golden) mapped into
  /// [ceil(env_k / 2), env_k], where env_k is the unjittered envelope.
  constexpr void seed_jitter(u64 seed) {
    jitter_seed_ = seed;
    jittered_ = true;
  }

  /// Pause budget for the next retry; the envelope doubles up to the cap.
  /// Unseeded: returns the envelope itself (the historical behavior).
  /// Seeded: returns a deterministic draw from [ceil(env/2), env].
  constexpr Cycles next() {
    const Cycles env = cur_;
    cur_ = cur_ * 2 <= max_ ? cur_ * 2 : max_;
    const Cycles draw = jittered_ ? jittered_draw(env) : env;
    spent_ += draw;
    return draw;
  }

  /// Pause units returned by next() since construction or reset().
  constexpr Cycles spent() const { return spent_; }

  constexpr void reset() {
    cur_ = initial_;
    attempt_ = 0;
    spent_ = 0;
  }

 private:
  constexpr Cycles jittered_draw(Cycles env) {
    const u64 h = mix64(jitter_seed_ ^ (attempt_++ * 0x9e3779b97f4a7c15ULL));
    const Cycles floor = env - env / 2;  // ceil(env / 2)
    const u64 span = static_cast<u64>(env / 2) + 1;
    return floor + static_cast<Cycles>(h % span);
  }

  Cycles cur_;
  Cycles initial_;
  Cycles max_;
  Cycles spent_ = 0;
  u64 jitter_seed_ = 0;
  u64 attempt_ = 0;
  bool jittered_ = false;
};

}  // namespace selfsched::sync
