// E11: cost of the instrumentation hooks — tracing (src/trace), the
// invariant auditor (src/audit) and fault injection (runtime/fault.hpp) —
// on the threaded engine.
//
// Five configurations of the same self(1) flat-Doall run:
//
//   bare      worker_loop instantiated over BareContext, RContext without
//             the four instrumentation accessors: exec::InstrumentedContext
//             fails and every trace, audit and fault hook compiles to
//             nothing.
//   default   RContext as every runner sets it up: a trace sink with events
//             off (counters bumped, rings untouched), a null auditor and a
//             null fault plan — the shipping default.
//   events    the default plus event recording into the per-worker rings.
//   auditor   the default plus a live Auditor shadow-tracking every ICB.
//   armed     the default plus a fault plan holding one spec that never
//             matches (wrong loop), so every body point walks the spec list
//             and rejects it — the worst case short of firing.
//
// Each row is printed against bare and against the default.  The targets
// the three former per-hook benches printed sit next to the default row's
// vs_bare ratio, the one they bounded (each of those benches held the other
// hook families on in its bare context).  The configurations run
// interleaved, rotating the order every rep, so host drift spreads over
// every row instead of landing on one.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "audit/auditor.hpp"
#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "exec/real_context.hpp"
#include "runtime/fault.hpp"
#include "runtime/high_level.hpp"
#include "runtime/worker.hpp"
#include "sync/barrier.hpp"
#include "trace/recorder.hpp"
#include "workloads/programs.hpp"

namespace selfsched {
namespace {

/// RContext minus the instrumentation accessors.  Composition, not
/// inheritance, so none of them leaks through.
class BareContext {
 public:
  using Sync = sync::SyncVar;
  static constexpr bool kIsSimulated = false;

  BareContext(ProcId proc, u32 num_procs) : inner_(proc, num_procs, false) {}

  ProcId proc() const { return inner_.proc(); }
  u32 num_procs() const { return inner_.num_procs(); }
  sync::SyncResult sync_op(Sync& v, sync::Test t, i64 test_value, sync::Op op,
                           i64 operand = 0) {
    return inner_.sync_op(v, t, test_value, op, operand);
  }
  void work(Cycles c) { inner_.work(c); }
  void pause(Cycles c) { inner_.pause(c); }
  exec::Phase set_phase(exec::Phase p) { return inner_.set_phase(p); }
  exec::WorkerStats& stats() { return inner_.stats(); }

 private:
  exec::RContext inner_;
};

static_assert(exec::ExecutionContext<BareContext>);
static_assert(!exec::InstrumentedContext<BareContext>);
static_assert(exec::InstrumentedContext<exec::RContext>);

constexpr i64 kIters = 200000;
constexpr Cycles kBodyWork = 32;  // near-empty body => dispatch-bound
constexpr int kReps = 21;

/// One run of worker_loop on `procs` threads; wall ns.  `make(id)` builds
/// the per-worker context (prvalue — contexts are pinned, elision only);
/// `setup(ctx, id)` installs sinks before the start line.
template <typename MakeCtx, typename Setup>
double run_once(const program::NestedLoopProgram& prog, u32 procs,
                const runtime::SchedOptions& opts, MakeCtx make,
                Setup setup) {
  using Ctx = decltype(make(ProcId{0}));
  runtime::SchedState<Ctx> st(prog.tables(), opts);
  sync::SpinBarrier start_line(procs);
  Stopwatch watch;

  auto body = [&](ProcId id) {
    auto ctx = make(id);
    setup(ctx, id);
    start_line.arrive_and_wait();
    if (id == 0) {
      watch.reset();
      runtime::seed_program(ctx, st);
    }
    runtime::worker_loop(ctx, st);
  };
  std::vector<std::thread> team;
  team.reserve(procs);
  for (u32 id = 1; id < procs; ++id) team.emplace_back(body, id);
  body(0);
  for (std::thread& t : team) t.join();
  return static_cast<double>(watch.elapsed_ns());
}

struct Config {
  const char* name;
  const char* target;  // former per-hook target on this row's vs_bare
  std::function<double()> run;
  std::vector<double> ns = {};
};

/// Sorted-sample quantile by nearest rank.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

}  // namespace
}  // namespace selfsched

int main() {
  using namespace selfsched;
  const u32 hw = std::thread::hardware_concurrency();
  const u32 procs = hw ? std::min(4u, hw) : 4u;
  runtime::SchedOptions opts;
  opts.strategy = runtime::Strategy::self();
  opts.measure_phases = false;
  const auto prog = workloads::flat_doall(
      kIters, [](const IndexVec&, i64) -> Cycles { return kBodyWork; });

  bench::banner(
      "E11: instrumentation hook overhead — trace, audit, fault (threads "
      "engine, self(1), dispatch-bound)",
      "compiled-out hooks are free; the shipping default (counters on, null "
      "auditor, null plan) stays within a few percent of bare");
  std::printf("procs=%u iters=%lld body_work=%lld reps=%d (median, "
              "configurations interleaved)\n",
              procs, static_cast<long long>(kIters),
              static_cast<long long>(kBodyWork), kReps);

  const auto make_bare = [procs](ProcId id) {
    return BareContext(id, procs);
  };
  // measure_phases=false: phase timing reads the clock per transition and
  // would swamp the nanoseconds this bench is after.
  const auto make_real = [procs](ProcId id) {
    return exec::RContext(id, procs, /*measure_phases=*/false);
  };

  trace::Recorder rec_off(procs, /*events_on=*/false, opts.trace_ring_capacity);
  trace::Recorder rec_on(procs, /*events_on=*/true, opts.trace_ring_capacity);
  audit::Auditor auditor;
  fault::FaultPlan plan;
  plan.body_throw(/*loop=*/999, /*iteration=*/-1);  // never matches

  // Every RContext row starts from the shipping default and changes one
  // thing: `rec` picks the recorder, `sink`/`faults` install the rest.
  const auto real = [&](trace::Recorder* rec, audit::Auditor* sink,
                        fault::FaultPlan* faults) {
    return [&, rec, sink, faults] {
      return run_once(prog, procs, opts, make_real,
                      [rec, sink, faults](exec::RContext& ctx, ProcId id) {
                        // No hook fires before every worker has passed the
                        // start line, so worker 0 can re-arm both here.
                        if (id == 0) {
                          if (sink != nullptr) sink->reset();
                          if (faults != nullptr) faults->reset();
                        }
                        ctx.set_trace_sink(&rec->sink(id), rec->epoch());
                        ctx.set_audit_sink(sink);
                        ctx.set_fault_plan(faults);
                      });
    };
  };

  std::vector<Config> configs;
  configs.push_back({"bare (hooks compiled out)", "-", [&] {
                       return run_once(prog, procs, opts, make_bare,
                                       [](BareContext&, ProcId) {});
                     }});
  configs.push_back({"shipping default (events off, null sinks)",
                     "E11 few %; E13 <= 1.01; E14 <= 1.02",
                     real(&rec_off, nullptr, nullptr)});
  configs.push_back({"events on", "-", real(&rec_on, nullptr, nullptr)});
  configs.push_back({"live auditor", "-", real(&rec_off, &auditor, nullptr)});
  configs.push_back(
      {"armed plan, no match", "-", real(&rec_off, nullptr, &plan)});
  constexpr std::size_t kBare = 0;
  constexpr std::size_t kDefault = 1;

  // Warm-up (page in code + scheduler state allocators).
  for (Config& c : configs) (void)c.run();
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      Config& c = configs[(k + static_cast<std::size_t>(r)) % configs.size()];
      c.ns.push_back(c.run());
    }
  }

  std::vector<double> med;
  for (const Config& c : configs) med.push_back(quantile(c.ns, 0.5));
  // iqr_pct: the row's rep-to-rep spread, (p75 - p25) / median; a ratio
  // smaller than the two rows' spreads is noise.
  bench::Table t({"config", "median_ms", "ns_per_iter", "iqr_pct", "vs_bare",
                  "vs_default", "old target (vs_bare)"});
  for (std::size_t k = 0; k < configs.size(); ++k) {
    const auto ratio = [&](std::size_t ref) {
      return k == ref ? std::string("-") : bench::fmt(med[k] / med[ref], 3);
    };
    const std::vector<double>& ns = configs[k].ns;
    t.row({configs[k].name, bench::fmt(med[k] / 1e6, 2),
           bench::fmt(med[k] / static_cast<double>(kIters), 1),
           bench::fmt(100.0 * (quantile(ns, 0.75) - quantile(ns, 0.25)) /
                          med[k],
                      1),
           ratio(kBare), ratio(kDefault), configs[k].target});
  }
  t.print();

  std::printf("\nevents held in the rings: %zu, dropped on wrap: %llu\n",
              rec_on.harvest_events().size(),
              static_cast<unsigned long long>(rec_on.events_dropped()));
  std::printf("auditor: %llu events, %llu violations in the last rep "
              "(want 0 violations)\n",
              static_cast<unsigned long long>(auditor.events()),
              static_cast<unsigned long long>(auditor.violation_count()));
  std::printf("armed plan fired %llu times (want 0)\n",
              static_cast<unsigned long long>(plan.total_fired()));
  return 0;
}
