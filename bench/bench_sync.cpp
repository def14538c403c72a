// E9 — real-hardware throughput/latency of the §II-A synchronization
// primitives: the test-and-op matrix on SyncVar, the paper's lock
// (ctx_lock) and the control word with leading-one-detection
// (CtxControlWord) as the scheduler runs them over a real context, and
// contended variants (multi-threaded; on a single-core host the contended
// numbers reflect time-sliced interleaving, still exercising the CAS retry
// paths).
#include <benchmark/benchmark.h>

#include "exec/real_context.hpp"
#include "runtime/ctx_sync.hpp"
#include "sync/sync_var.hpp"

using namespace selfsched;
using namespace selfsched::sync;
using exec::RContext;

namespace {

void BM_SyncVar_NullFetch(benchmark::State& state) {
  SyncVar v(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.try_op(Test::kNone, 0, Op::kFetch));
  }
}
BENCHMARK(BM_SyncVar_NullFetch);

void BM_SyncVar_NullFetchAdd(benchmark::State& state) {
  SyncVar v(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.try_op(Test::kNone, 0, Op::kFetchAdd, 1));
  }
}
BENCHMARK(BM_SyncVar_NullFetchAdd);

void BM_SyncVar_TestedFetchAdd_Success(benchmark::State& state) {
  SyncVar v(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        v.try_op(Test::kLT, 1000000000, Op::kFetchAdd, 1));
  }
}
BENCHMARK(BM_SyncVar_TestedFetchAdd_Success);

void BM_SyncVar_TestedFetchAdd_Failure(benchmark::State& state) {
  SyncVar v(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.try_op(Test::kLT, 0, Op::kFetchAdd, 1));
  }
}
BENCHMARK(BM_SyncVar_TestedFetchAdd_Failure);

void BM_SyncVar_EqCas(benchmark::State& state) {
  SyncVar v(0);
  i64 expect = 0;
  for (auto _ : state) {
    const auto r = v.try_op(Test::kEQ, expect, Op::kFetchAdd, 1);
    if (r.success) ++expect;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SyncVar_EqCas);

void BM_SyncVar_ContendedFetchAdd(benchmark::State& state) {
  static SyncVar v(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.try_op(Test::kNone, 0, Op::kFetchAdd, 1));
  }
}
BENCHMARK(BM_SyncVar_ContendedFetchAdd)->Threads(1)->Threads(2)->Threads(4);

void BM_Lock_UncontendedPair(benchmark::State& state) {
  RContext ctx(0, 1, /*measure_phases=*/false);
  SyncVar lock(1);
  for (auto _ : state) {
    runtime::ctx_lock(ctx, lock);
    runtime::ctx_unlock(ctx, lock);
  }
}
BENCHMARK(BM_Lock_UncontendedPair);

void BM_Lock_Contended(benchmark::State& state) {
  static SyncVar lock(1);
  RContext ctx(static_cast<ProcId>(state.thread_index()),
               static_cast<u32>(state.threads()), /*measure_phases=*/false);
  for (auto _ : state) {
    runtime::ctx_lock(ctx, lock);
    benchmark::ClobberMemory();
    runtime::ctx_unlock(ctx, lock);
  }
}
BENCHMARK(BM_Lock_Contended)->Threads(2)->Threads(4);

void BM_ControlWord_LeadingOne(benchmark::State& state) {
  const u32 bits = static_cast<u32>(state.range(0));
  RContext ctx(0, 1, /*measure_phases=*/false);
  runtime::CtxControlWord<RContext> sw(bits);
  sw.set(ctx, bits - 1);  // worst case: the farthest set bit
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.leading_one(ctx));
  }
}
BENCHMARK(BM_ControlWord_LeadingOne)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_ControlWord_SetReset(benchmark::State& state) {
  RContext ctx(0, 1, /*measure_phases=*/false);
  runtime::CtxControlWord<RContext> sw(64);
  for (auto _ : state) {
    sw.set(ctx, 13);
    sw.reset(ctx, 13);
  }
}
BENCHMARK(BM_ControlWord_SetReset);

}  // namespace
