#!/usr/bin/env bash
# Repo verification: the tier-1 build+test pass (ROADMAP.md), then a
# ThreadSanitizer build of the threaded-scheduler tests to catch data races
# the plain build can't see.
#
#   tools/check.sh                 # tier-1 + TSan (threaded scheduler
#                                  # and shard-policy tests, the
#                                  # ICB-pool/bound units of
#                                  # test_hotpath, the contended
#                                  # bounded-grab tests of test_claim, all
#                                  # of test_shard and test_adaptive, the
#                                  # Shard-named tests of
#                                  # test_runtime_units, test_audit and
#                                  # test_fault, the strategy-conformance
#                                  # tests of test_runtime_units,
#                                  # test_analysis and test_fault, and the
#                                  # served sharded-index / tiny-slice
#                                  # tests of test_serve)
#   tools/check.sh --fast          # tier-1 only
#   tools/check.sh --repeat        # tier-1 build, then the audit, threads,
#                                  # stress, team, claim and shard suites
#                                  # repeated until one fails (20 rounds):
#                                  # interleaving bugs show on some
#                                  # schedules only
#   tools/check.sh --explore       # tier-1 + TSan + schedule-sweep fuzz smoke
#   tools/check.sh --audit         # unit+explore tiers with the invariant
#                                  # auditor live (SELFSCHED_AUDIT=1 env:
#                                  # every run is audited, violations abort),
#                                  # then an ASan build of the unit-tests
#                                  # target (the unit tier's binaries,
#                                  # selfsched-run and selfsched-fuzz) and
#                                  # bench_adaptive: the unit tier audited,
#                                  # then the E16 acceptance thresholds
#   tools/check.sh --faults        # fault-tolerance suite (test_fault +
#                                  # cancellation-adjacent tests) under TSan,
#                                  # then audited under ASan — the
#                                  # cancellation/drain paths are exactly
#                                  # where races and leaks would hide
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
REPEAT=0
EXPLORE=0
AUDIT=0
FAULTS=0
SERVE=0
RESILIENCE=0
LABEL=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1; shift ;;
    --repeat) REPEAT=1; shift ;;
    --explore) EXPLORE=1; shift ;;
    --audit) AUDIT=1; shift ;;
    --faults) FAULTS=1; shift ;;
    --serve) SERVE=1; shift ;;
    --resilience) RESILIENCE=1; shift ;;
    --label) LABEL="${2:?--label needs an argument}"; shift 2 ;;
    *) echo "usage: tools/check.sh [--fast] [--repeat] [--explore] [--audit]" \
            "[--faults] [--serve] [--resilience]" \
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


# The oversubscribed served-Doacross stress: twice as many resident workers
# as cores, so chain posters get descheduled and the waits reach
# ctx_pause's spin-budget yield.  test_serve runs it once; --serve repeats
# it, since a lost wakeup or a racy post shows up only on some schedules.
DOACROSS_STRESS='Serve.OversubscribedDoacrossChainsMatchTheSerialOracle'
DOACROSS_STRESS_REPEAT=5

# The repeat filter: the suites whose outcome depends on the interleaving
# of real threads — audited runs, the threaded scheduler, the stress
# tier, the persistent team, the bounded grab and sharded dispatch.
REPEAT_TESTS='Audit|Threads|Stress|ThreadTeam|Claim|Shard'
REPEAT_ROUNDS=20

# The Shard-named tests of suites that are not sharding suites, for the
# default TSan pass: the shard-math/ICB units and the shard rule
# (ShardMath/ShardRule/Shard.*), the auditor rules (AuditShard) and the
# sharded cancellation/deadline tests (FaultShard).  Their audited ASan
# half runs in --audit's unit tier.  Also the served sharded-index closed
# loop and tiny-slice yields of test_serve.
TSAN_SHARD_TESTS='*Shard*'

# The strategy-conformance tests of suites that are not strategy suites,
# for the default TSan pass next to all of test_adaptive (the tuner, whose
# threads feedback reads per-chunk CPU clocks): the portfolio's
# closed-form and contended-exactness units (Strategy*), the completion-time
# model's edge cases and the stall-under-adaptation fault test.  Their
# audited ASan half runs in --audit's unit tier.
TSAN_STRATEGY_TESTS='Strategy*:CompletionModel*:FaultAdaptive*'
TSAN_SERVE_TESTS='Serve.ShardedIndexChainsAndFlatLoopsComplete:Serve.TinySlicesPublishCompletionsAtTheYield'

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
  cmake --build build-asan -j "$JOBS" --target unit-tests bench_adaptive
  (cd build-asan && SELFSCHED_AUDIT=1 ctest --output-on-failure -j "$JOBS" \
      -L unit)
  echo "== audit: ASan build, E16 acceptance thresholds =="
  ./build-asan/bench/bench_adaptive > /dev/null
  echo "== OK (audit) =="
  exit 0
fi

if [[ "$REPEAT" == 1 ]]; then
  echo "== repeat: threads-sensitive suites until failure =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS" -R "$REPEAT_TESTS" \
      --repeat until-fail:"$REPEAT_ROUNDS")
  echo "== OK (repeat) =="
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

echo "== TSan: threaded scheduler tests + hot-path units + claim + shards" \
     "+ strategies =="
cmake -B build-tsan -S . -DSELFSCHED_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target test_scheduler_threads \
    test_shard_policy test_hotpath test_claim test_shard test_adaptive \
    test_runtime_units test_analysis test_audit test_fault test_serve
./build-tsan/tests/test_scheduler_threads
./build-tsan/tests/test_shard_policy
./build-tsan/tests/test_hotpath
./build-tsan/tests/test_claim
./build-tsan/tests/test_shard
./build-tsan/tests/test_adaptive
./build-tsan/tests/test_runtime_units \
    --gtest_filter="$TSAN_SHARD_TESTS:$TSAN_STRATEGY_TESTS"
./build-tsan/tests/test_analysis --gtest_filter="$TSAN_STRATEGY_TESTS"
./build-tsan/tests/test_audit --gtest_filter="$TSAN_SHARD_TESTS"
./build-tsan/tests/test_fault \
    --gtest_filter="$TSAN_SHARD_TESTS:$TSAN_STRATEGY_TESTS"
./build-tsan/tests/test_serve --gtest_filter="$TSAN_SERVE_TESTS"

echo "== OK =="
