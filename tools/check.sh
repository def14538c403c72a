#!/usr/bin/env bash
# Repo verification: the tier-1 build+test pass (ROADMAP.md), then a
# ThreadSanitizer build of the threaded-scheduler tests to catch data races
# the plain build can't see.
#
#   tools/check.sh                 # tier-1 + TSan (threaded scheduler
#                                  # tests, the ICB-pool/bound units of
#                                  # test_hotpath and the contended
#                                  # bounded-grab tests of test_claim)
#   tools/check.sh --fast          # tier-1 only
#   tools/check.sh --explore       # tier-1 + TSan + schedule-sweep fuzz smoke
#   tools/check.sh --audit         # unit+explore tiers with the invariant
#                                  # auditor live (SELFSCHED_AUDIT=1 env:
#                                  # every run is audited, violations abort),
#                                  # then an ASan build of the same tiers
#   tools/check.sh --faults        # fault-tolerance suite (test_fault +
#                                  # cancellation-adjacent tests) under TSan,
#                                  # then audited under ASan — the
#                                  # cancellation/drain paths are exactly
#                                  # where races and leaks would hide
#   tools/check.sh --adaptive      # adaptive-scheduling conformance suite
#                                  # (ISSUE 7): the strategy closed-form
#                                  # oracles, the adaptive tuner tests, the
#                                  # Eq. 7 model edge cases and the
#                                  # stall-under-adaptation fault test under
#                                  # TSan (the threads feedback path), then
#                                  # audited under ASan, then the E16
#                                  # acceptance thresholds (bench_adaptive)
#   tools/check.sh --shard         # sharded-dispatch suite (ISSUE 8): the
#                                  # shard-math oracles, the sharded-vs-flat
#                                  # differential matrix, the shard auditor
#                                  # rules and the sharded fault tests under
#                                  # TSan (threads-engine shard counters),
#                                  # then audited under ASan, then the E17
#                                  # acceptance thresholds (bench_shard_scale)
#   tools/check.sh --serve         # resident-service suite: test_serve,
#                                  # the oversubscribed served-Doacross
#                                  # stress (2 x nproc workers, 50 audited
#                                  # oracle-checked chains and flat loops)
#                                  # repeated, and the full serve-stress
#                                  # run (16 submitters, 224 audited
#                                  # programs, P=8, oracle-verified,
#                                  # fairness asserted) under TSan, then
#                                  # under ASan with the fairness report
#                                  # written to serve_fairness.json
#   tools/check.sh --resilience    # self-healing serve suite (ISSUE 10):
#                                  # the ServeResilience/FaultWatchdog/
#                                  # Backoff-jitter tests plus the full
#                                  # serve-chaos run (224 mixed-priority
#                                  # programs under seeded body-throw +
#                                  # worker-stall injection, all audited)
#                                  # under TSan, then the audited ASan
#                                  # chaos run with the recovery report
#                                  # written to serve_chaos.json, then the
#                                  # deterministic replay check
#   tools/check.sh --label unit    # restrict ctest to one tier
#                                  # (unit | stress | explore; repeatable
#                                  #  via ctest's -L regex semantics)
#
# Honors CMAKE_BUILD_PARALLEL_LEVEL for the build/test job count.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${CMAKE_BUILD_PARALLEL_LEVEL:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)}"

FAST=0
EXPLORE=0
AUDIT=0
FAULTS=0
SERVE=0
RESILIENCE=0
ADAPTIVE=0
SHARD=0
LABEL=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1; shift ;;
    --explore) EXPLORE=1; shift ;;
    --audit) AUDIT=1; shift ;;
    --faults) FAULTS=1; shift ;;
    --serve) SERVE=1; shift ;;
    --resilience) RESILIENCE=1; shift ;;
    --adaptive) ADAPTIVE=1; shift ;;
    --shard) SHARD=1; shift ;;
    --label) LABEL="${2:?--label needs an argument}"; shift 2 ;;
    *) echo "usage: tools/check.sh [--fast] [--explore] [--audit]" \
            "[--faults] [--serve] [--resilience] [--adaptive] [--shard]" \
            "[--label TIER]" >&2
       exit 2 ;;
  esac
done

# The fault-suite test filter: the fault tests themselves plus the suites
# that exercise cancellation-adjacent machinery (teardown spins, Doacross
# waits, the thread team's exception path).
FAULT_TESTS='FaultBody|FaultInject|FaultDeadline|FaultDrain|FaultReplay|FaultHooks|FaultDoacross|FaultWatchdog|AuditCancel|ThreadTeam'

# The resilience filter: the serve recovery state machine (retry /
# quarantine / shed), the stall watchdog, and the seeded-jitter backoff
# the retry scheduler draws from.
RESILIENCE_TESTS='ServeResilience|FaultWatchdog|Backoff|Serve\.'

# The adaptive-conformance filter: the portfolio's closed-form oracle units
# (Strategy*), the tuner suite (Adaptive*/PortfolioSweep), the completion-
# time model edge cases, and the stall-under-adaptation fault test.
ADAPTIVE_TESTS='Strategy|Adaptive|PortfolioSweep|CompletionModel|FaultAdaptive'

# The oversubscribed served-Doacross stress: twice as many resident workers
# as cores, so chain posters get descheduled and the waits reach
# ctx_pause's spin-budget yield.  test_serve runs it once; --serve repeats
# it, since a lost wakeup or a racy post shows up only on some schedules.
DOACROSS_STRESS='Serve.OversubscribedDoacrossChainsMatchTheSerialOracle'
DOACROSS_STRESS_REPEAT=5

# The sharded-dispatch filter: every suite name carries "Shard" — the
# shard-math/ICB units (ShardMath/Shard.*), the differential matrix and
# replay/counter/topology suites (Shard* in test_shard), the auditor rules
# (AuditShard) and the sharded cancellation/deadline tests (FaultShard).
SHARD_TESTS='Shard'

if [[ "$SHARD" == 1 ]]; then
  echo "== shard: TSan build, sharded-dispatch suite =="
  cmake -B build-tsan -S . -DSELFSCHED_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target test_shard \
      test_runtime_units test_audit test_fault
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -R "$SHARD_TESTS")
  echo "== shard: ASan build, audited sharded-dispatch suite =="
  cmake -B build-asan -S . -DSELFSCHED_SANITIZE=address
  cmake --build build-asan -j "$JOBS" --target test_shard \
      test_runtime_units test_audit test_fault bench_shard_scale
  (cd build-asan && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -R "$SHARD_TESTS")
  echo "== shard: E17 acceptance thresholds =="
  ./build-asan/bench/bench_shard_scale > /dev/null
  echo "== OK (shard) =="
  exit 0
fi

if [[ "$ADAPTIVE" == 1 ]]; then
  echo "== adaptive: TSan build, strategy-conformance suite =="
  cmake -B build-tsan -S . -DSELFSCHED_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target test_adaptive \
      test_runtime_units test_analysis test_fault
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" \
      -R "$ADAPTIVE_TESTS")
  echo "== adaptive: ASan build, audited conformance suite =="
  cmake -B build-asan -S . -DSELFSCHED_SANITIZE=address
  cmake --build build-asan -j "$JOBS" --target test_adaptive \
      test_runtime_units test_analysis test_fault bench_adaptive
  (cd build-asan && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -R "$ADAPTIVE_TESTS")
  echo "== adaptive: E16 acceptance thresholds =="
  ./build-asan/bench/bench_adaptive > /dev/null
  echo "== OK (adaptive) =="
  exit 0
fi

if [[ "$FAULTS" == 1 ]]; then
  echo "== faults: TSan build, fault-tolerance suite =="
  cmake -B build-tsan -S . -DSELFSCHED_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target test_fault test_thread_team \
      test_audit
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -R "$FAULT_TESTS")
  echo "== faults: ASan build, audited fault-tolerance suite =="
  cmake -B build-asan -S . -DSELFSCHED_SANITIZE=address
  cmake --build build-asan -j "$JOBS" --target test_fault test_thread_team \
      test_audit
  (cd build-asan && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -R "$FAULT_TESTS")
  echo "== OK (faults) =="
  exit 0
fi

if [[ "$SERVE" == 1 ]]; then
  # serve-stress sets opts.audit on every submission, so both sanitizer
  # passes run fully audited; the stress itself asserts oracle equality and
  # the within-tier granted-cycle fairness bound.
  echo "== serve: TSan build, service suite + stress =="
  cmake -B build-tsan -S . -DSELFSCHED_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target test_serve serve-stress
  ./build-tsan/tests/test_serve
  ./build-tsan/tools/serve-stress
  ./build-tsan/tests/test_serve --gtest_repeat="$DOACROSS_STRESS_REPEAT" \
      --gtest_filter="$DOACROSS_STRESS"
  echo "== serve: ASan build, audited stress + fairness report =="
  cmake -B build-asan -S . -DSELFSCHED_SANITIZE=address
  cmake --build build-asan -j "$JOBS" --target test_serve serve-stress
  ./build-asan/tests/test_serve
  ./build-asan/tools/serve-stress --json serve_fairness.json
  ./build-asan/tests/test_serve --gtest_repeat="$DOACROSS_STRESS_REPEAT" \
      --gtest_filter="$DOACROSS_STRESS"
  echo "== OK (serve) =="
  exit 0
fi

if [[ "$RESILIENCE" == 1 ]]; then
  # serve-chaos arms every submission with audit on, so both sanitizer
  # passes run fully audited; the harness itself asserts terminal states,
  # oracle-exact retries, quarantine/shed engagement and healthy-tenant
  # fairness.
  echo "== resilience: TSan build, recovery suite + chaos =="
  cmake -B build-tsan -S . -DSELFSCHED_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target test_serve test_fault \
      test_sync serve-chaos
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" \
      -R "$RESILIENCE_TESTS")
  ./build-tsan/tools/serve-chaos
  echo "== resilience: ASan build, audited chaos + recovery report =="
  cmake -B build-asan -S . -DSELFSCHED_SANITIZE=address
  cmake --build build-asan -j "$JOBS" --target test_serve test_fault \
      test_sync serve-chaos
  (cd build-asan && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -R "$RESILIENCE_TESTS")
  ./build-asan/tools/serve-chaos --json serve_chaos.json
  echo "== resilience: deterministic chaos replay =="
  ./build-asan/tools/serve-chaos --deterministic --replay-check
  echo "== OK (resilience) =="
  exit 0
fi

if [[ "$AUDIT" == 1 ]]; then
  echo "== audit: unit+explore tiers with SELFSCHED_AUDIT=1 =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -L 'unit|explore')
  echo "== audit: ASan build, audited unit tier =="
  cmake -B build-asan -S . -DSELFSCHED_SANITIZE=address
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -L unit)
  echo "== OK (audit) =="
  exit 0
fi

CTEST_ARGS=(--output-on-failure -j "$JOBS")
if [[ -n "$LABEL" ]]; then
  CTEST_ARGS+=(-L "$LABEL")
fi

echo "== tier-1: build + test suite${LABEL:+ (label: $LABEL)} =="
cmake -B build -S .
cmake --build build -j "$JOBS"
(cd build && ctest "${CTEST_ARGS[@]}")

if [[ "$EXPLORE" == 1 ]]; then
  echo "== explore: schedule-sweep differential fuzz smoke =="
  ./build/tools/selfsched-fuzz --seeds 1:100 --schedules 4 --quiet \
      --engine vtime
  ./build/tools/selfsched-fuzz --seeds 1:50 --schedules 3 --controller pct \
      --quiet --engine vtime
fi

if [[ "$FAST" == 1 ]]; then
  echo "== OK (tier-1 only) =="
  exit 0
fi

echo "== TSan: threaded scheduler tests + hot-path units + claim =="
cmake -B build-tsan -S . -DSELFSCHED_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target test_scheduler_threads \
    test_hotpath test_claim
./build-tsan/tests/test_scheduler_threads
./build-tsan/tests/test_hotpath
./build-tsan/tests/test_claim

echo "== OK =="
