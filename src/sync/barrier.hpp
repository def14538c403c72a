// Sense-reversing centralized barrier.  Used by the threaded engine to line
// up worker teams at program start/stop and by benches to delimit timed
// regions.  (The scheduler itself never needs a full barrier — the paper's
// point is that instance activation replaces barriers between loop nests —
// but the harness around it does.)
#pragma once

#include <atomic>

#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "common/cpu_relax.hpp"
#include "common/types.hpp"

namespace selfsched::sync {

class SpinBarrier {
 public:
  explicit SpinBarrier(u32 parties) : parties_(parties), arrived_(0) {
    SS_CHECK(parties > 0);
  }

  /// Block (spin) until all `parties` threads have arrived.
  void arrive_and_wait() { arrive_and_wait([] {}); }

  /// As above; the last thread to arrive runs `on_complete` before it
  /// releases the rest, so whatever it writes is visible to every party.
  template <typename F>
  void arrive_and_wait(F&& on_complete) {
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      on_complete();
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);  // release the rest
    } else {
      while (sense_.load(std::memory_order_acquire) != my_sense) cpu_relax();
    }
  }

 private:
  u32 parties_;
  alignas(kCacheLine) std::atomic<u32> arrived_;
  alignas(kCacheLine) std::atomic<bool> sense_{false};
};

}  // namespace selfsched::sync
