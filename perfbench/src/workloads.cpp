#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "host.hpp"
#include "lang/parser.hpp"
#include "runtime/scheduler.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "workloads/programs.hpp"

namespace perfbench {

using namespace selfsched;
using exec::Phase;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 5;         // set-ups per run; setup_s is the median
constexpr int kSerialReps = 5;        // serial-reference runs; median time
constexpr int kBatchWarmupOps = 4;    // per set-up
constexpr u32 kServeWarmupRounds = 40;  // x outstanding submissions
constexpr int kForkJoinSamples = 1000;
constexpr double kServeTimedBlockS = 0.25;  // traced run: timed/untimed blocks
constexpr std::size_t kStreamLen = 1 << 16;  // serve submission stream
constexpr std::size_t kMaxNotes = 5;         // failure notes kept per run
constexpr std::size_t kSlices = 5;           // see add_e2e_metrics()
// The tail percentile of latency_tail_ms, the same on every workload: the
// highest of p50/p90/p99/... that leaves at least 10 samples beyond it in
// each slice of the thinnest workload (flat_fine, about 105 operations per
// 4-second slice on a 4-core host).  Fixed, so a faster or slower build
// still compares the same percentile instead of jumping a rung.
constexpr double kTailPct = 90;
// Ceiling on completed operations per second, sizing the sample storage
// touched up front (serve_mix completes about 2,000/s on 3 workers): the
// storage is then part of the set-up footprint, and peak_rss_mb does not
// follow the window's throughput.
constexpr double kMaxOpsPerSecond = 5000;

/// Every per-layer metric, in report order.  A workload that does not
/// exercise a layer reports 0 for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"program.compile_ms", "ms"},
    {"program.instances", "count"},
    {"program.iterations", "count"},
    {"exec.team_fork_join_us", "us"},
    {"exec.phase_timing_overhead", "ratio"},
    {"runtime.body_share", "fraction"},
    {"runtime.iter_sync_share", "fraction"},
    {"runtime.search_share", "fraction"},
    {"runtime.exit_enter_share", "fraction"},
    {"runtime.pool_idle_share", "fraction"},
    {"runtime.doacross_wait_share", "fraction"},
    {"runtime.teardown_share", "fraction"},
    {"runtime.other_share", "fraction"},
    {"runtime.phase_sum_ratio", "ratio"},
    {"runtime.o1_ns", "ns"},
    {"runtime.o2_ns", "ns"},
    {"runtime.o3_ns", "ns"},
    {"runtime.tau_ns", "ns"},
    {"runtime.sync_ops_per_iter", "ratio"},
    {"runtime.dispatches_per_iter", "ratio"},
    {"runtime.failed_sync_ratio", "ratio"},
    {"runtime.cas_retries_per_dispatch", "ratio"},
    {"runtime.search_retry_ratio", "ratio"},
    {"runtime.list_lock_failure_ratio", "ratio"},
    {"runtime.backoff_per_iter", "ratio"},
    {"serve.submit_us", "us"},
    {"serve.run_p50_ms", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_tail_ms", "ms"},
    {"serve.slices_per_op", "ratio"},
    {"serve.preemptions_per_op", "ratio"},
    {"serve.busy_share", "fraction"},
    {"serve.rejections", "count"},
    {"vtime.makespan_vcycles", "vcycles"},
    {"vtime.sync_ops_per_iter", "ratio"},
    {"vtime.speedup_error", "ratio"},
};

using Values = std::map<std::string, double>;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string read_program(const Config& cfg, const char* file) {
  const std::string path = cfg.root + "/examples/programs/" + file;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// `source` with a one-iteration leaf in front of its first construct.
/// Seeding a nest whose entry is a DOALL appends all its sibling instances
/// one by one, and the smallest can finish before the seeder is done: the
/// seed-prologue termination race (ROADMAP item 1(a)), which throws `task
/// pool not drained at termination` — on a pool worker, in a served run,
/// where it ends the process.  Behind the prologue the seed activates one
/// instance and a completing worker enters the siblings, which is
/// race-free.  Drop this once that race is fixed.
std::string behind_prologue(const std::string& source) {
  std::istringstream in(source);
  std::string head;  // PARAM lines must precede every construct
  std::string body;
  for (std::string line; std::getline(in, line);) {
    (line.rfind("PARAM", 0) == 0 ? head : body) += line + "\n";
  }
  return head + "LOOP prologue t = 1, 1 COST 1\n" + body;
}

std::unique_ptr<CheckedProgram> parse_checked(
    const std::string& source, const std::map<std::string, i64>& params,
    u32 procs) {
  return std::make_unique<CheckedProgram>(
      [&](const program::BodyFactory& bodies) {
        lang::ParseOptions po;
        po.params = params;
        po.bodies = bodies;
        return lang::parse_program(source, po);
      },
      procs);
}

/// Phase time and counters folded over the traced operations.
struct LayerTotals {
  exec::WorkerStats total;
  trace::Counters counters;
  double processor_ns = 0;  // Σ P x makespan

  void add(const runtime::RunResult& r) {
    total.merge(r.total);
    counters.merge(r.counters);
    processor_ns +=
        static_cast<double>(r.procs) * static_cast<double>(r.makespan);
  }
};

void add_runtime_metrics(const LayerTotals& l, Values& m) {
  const exec::WorkerStats& t = l.total;
  const trace::Counters& c = l.counters;
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double iters = d(t.iterations);
  const PhaseSplit s = phase_split(t, l.processor_ns);
  m["runtime.body_share"] = s[Phase::kBody];
  m["runtime.iter_sync_share"] = s[Phase::kIterSync];
  m["runtime.search_share"] = s[Phase::kSearch];
  m["runtime.exit_enter_share"] = s[Phase::kExitEnter];
  m["runtime.pool_idle_share"] = s[Phase::kPoolIdle];
  m["runtime.doacross_wait_share"] = s[Phase::kDoacrossWait];
  m["runtime.teardown_share"] = s[Phase::kTeardown];
  m["runtime.other_share"] = s[Phase::kOther];
  m["runtime.phase_sum_ratio"] = s.sum_ratio;
  // Per-iteration overheads as RunResult defines them (stats.cpp).
  m["runtime.o1_ns"] = ratio(d(t[Phase::kIterSync]), iters);
  m["runtime.o2_ns"] =
      ratio(d(t[Phase::kSearch] + t[Phase::kPoolIdle]), iters);
  m["runtime.o3_ns"] =
      ratio(d(t[Phase::kExitEnter] + t[Phase::kTeardown]), iters);
  m["runtime.tau_ns"] = ratio(d(t[Phase::kBody]), iters);
  m["runtime.sync_ops_per_iter"] = ratio(d(t.sync_ops), iters);
  m["runtime.dispatches_per_iter"] = ratio(d(t.dispatches), iters);
  m["runtime.failed_sync_ratio"] = ratio(d(t.failed_sync_ops), d(t.sync_ops));
  m["runtime.cas_retries_per_dispatch"] =
      ratio(d(c.cas_retries), d(c.dispatches));
  m["runtime.search_retry_ratio"] =
      ratio(d(c.search_retries), d(c.search_probes));
  m["runtime.list_lock_failure_ratio"] =
      ratio(d(c.list_lock_failures), d(c.lock_acquisitions));
  m["runtime.backoff_per_iter"] = ratio(d(c.backoff_iterations), iters);
}

std::vector<Metric> layer_metrics(const Values& m) {
  std::vector<Metric> out;
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = m.find(lm.name);
    out.push_back({lm.name, it == m.end() ? 0.0 : it->second, lm.unit});
  }
  return out;
}

/// One operation of the timed window that ran (rejected submissions are
/// not samples).
struct OpSample {
  double latency_ms = 0;
  double done_ms = 0;  // completion, ms into the window
  u32 program = 0;     // index of its serial reference
  bool ok = false;
};

/// `v` with room for `n` elements, all pages touched now.
template <typename T>
void reserve_touched(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

std::size_t sample_capacity(const Config& cfg) {
  return static_cast<std::size_t>(cfg.seconds * kMaxOpsPerSecond);
}

/// The end-to-end metrics.  The window is cut into kSlices equal time
/// slices and each timing metric is the median of its per-slice values: a
/// few seconds of interference from another process or VM on a shared host
/// (a spinning team stalls whenever one of its CPUs is taken away) then
/// leave it alone, where they would set a run-wide tail.  `rss_mb` is read
/// at the end of the window, before this allocates.
void add_e2e_metrics(Result& res, const std::vector<OpSample>& ops,
                     const std::vector<double>& serial_ms, double window_ms,
                     const std::vector<double>& setup_s, double rss_mb) {
  std::vector<double> lat;
  std::vector<double> at;
  std::vector<double> ok_serial;
  std::vector<double> ok_at;
  for (const OpSample& o : ops) {
    lat.push_back(o.latency_ms);
    at.push_back(o.done_ms);
    if (o.ok) {
      ok_serial.push_back(serial_ms[o.program]);
      ok_at.push_back(o.done_ms);
    }
  }
  const auto lat_slices = by_slice(lat, at, window_ms, kSlices);
  const auto ok_slices = by_slice(ok_serial, ok_at, window_ms, kSlices);
  const double slice_ms = window_ms / kSlices;
  std::vector<double> p50;
  std::vector<double> tails;
  std::vector<double> rate;
  std::vector<double> speedup;
  std::size_t fewest = ops.size();  // samples in the thinnest slice
  for (std::size_t k = 0; k < kSlices; ++k) {
    fewest = std::min(fewest, lat_slices[k].size());
    p50.push_back(median(lat_slices[k]));
    tails.push_back(nearest_rank(lat_slices[k], kTailPct));
    rate.push_back(ratio(static_cast<double>(ok_slices[k].size()),
                         slice_ms / 1000));
    double serial = 0;
    for (const double s : ok_slices[k]) serial += s;
    speedup.push_back(ratio(serial, slice_ms));
  }
  res.metrics = {
      {"latency_p50_ms", median(p50), "ms"},
      {"latency_tail_ms", median(tails), "ms"},
      {"throughput_ops_per_s", median(rate), "1/s"},
      {"speedup", median(speedup), "x"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
  const Quartiles q = quartiles(lat);
  const Tail run_wide = tail(lat);
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "latency_tail_ms is p%g per slice (median of %zu slices; "
                ">= %.1f samples beyond it in the thinnest slice, n=%zu)",
                kTailPct, kSlices,
                static_cast<double>(fewest) * (1 - kTailPct / 100),
                lat.size());
  res.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "run-wide: latency quartiles %.4f / %.4f / %.4f ms; "
                "p%.2f = %.4f ms",
                q.q1, q.q2, q.q3, run_wide.percentile, run_wide.value);
  res.notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "failed_frac = %.6f (%llu of %llu)",
                ratio(static_cast<double>(res.failed),
                      static_cast<double>(res.attempted)),
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));
  res.notes.emplace_back(buf);
}

/// Count one checked operation into `res`.
void tally_op(Result& res, bool ok, bool wrong_answer,
              const std::string& why) {
  res.attempted++;
  if (ok) return;
  res.failed++;
  if (wrong_answer) res.correct = false;
  if (res.notes.size() < kMaxNotes) res.notes.push_back("failed op: " + why);
}

std::string failure_text(const runtime::RunResult& r) {
  if (r.failure.has_value()) return "run failed: " + r.failure->message;
  return "tally or iteration count differs from the serial reference";
}

double fork_join_p50_us(exec::ThreadTeam& team, SpanLog& spans, u64 op) {
  SpanScope s(spans, "exec.ThreadTeam::run", op);
  std::vector<double> us;
  us.reserve(kForkJoinSamples);
  for (int k = 0; k < kForkJoinSamples; ++k) {
    const auto t0 = Clock::now();
    team.run([](ProcId) {});
    us.push_back(ms_between(t0, Clock::now()) * 1000);
  }
  return median(us);
}

// ------------------------------------------------------------- batch ----

struct BatchSpec {
  runtime::Strategy strategy;
  std::function<std::unique_ptr<CheckedProgram>(u32 procs)> compile;
};

Result run_batch(const Config& cfg, const BatchSpec& spec, SpanLog& spans) {
  const u32 procs = cfg.procs;
  Result res;
  res.procs = procs;
  runtime::SchedOptions opts;
  opts.strategy = spec.strategy;
  opts.on_body_error = runtime::OnBodyError::kReturn;
  opts.measure_phases = false;
  SpanLog off(false);
  u64 next_op = 1;
  const auto count = [&](const OpOutcome& o) {
    tally_op(res, o.ok, o.wrong_answer,
             o.error.empty() ? failure_text(o.result) : o.error);
  };

  // Set-up, repeated: compile, team construction, warm-up.  The serial
  // reference runs once, between the timed parts.
  std::unique_ptr<exec::ThreadTeam> team;
  std::unique_ptr<CheckedProgram> cp;
  Reference ref;
  std::vector<double> setup_s;
  std::vector<double> compile_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    team.reset();
    cp.reset();
    const u64 op = next_op++;
    SpanScope setup(spans, "setup", op);
    const auto t0 = Clock::now();
    {
      SpanScope s(spans, "program.compile", op, setup.id());
      cp = spec.compile(procs);
    }
    compile_ms.push_back(ms_between(t0, Clock::now()));
    if (rep == 0) {
      SpanScope s(spans, "baselines::run_sequential", op, setup.id());
      ref = serial_reference(*cp, kSerialReps);
    }
    const auto t1 = Clock::now();
    {
      SpanScope s(spans, "exec.ThreadTeam", op, setup.id());
      team = std::make_unique<exec::ThreadTeam>(procs);
    }
    {
      SpanScope s(spans, "warmup", op, setup.id());
      for (int k = 0; k < kBatchWarmupOps; ++k) {
        count(run_batch_op(*team, *cp, ref, opts, off, op));
      }
    }
    setup_s.push_back((compile_ms.back() + ms_between(t1, Clock::now())) /
                      1000);
  }

  // Timed window.  A traced run alternates ops with and without phase
  // timing; only the timed ones carry spans and feed the layer totals.
  LayerTotals layers;
  std::vector<OpSample> plain;  // untimed ops
  reserve_touched(plain, sample_capacity(cfg));
  std::vector<double> lat_timed;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  auto last = start;
  for (u64 k = 0; Clock::now() < deadline; ++k) {
    const bool timed = cfg.trace && k % 2 == 1;
    opts.measure_phases = timed;
    const OpOutcome o =
        run_batch_op(*team, *cp, ref, opts, timed ? spans : off, next_op++);
    last = Clock::now();
    count(o);
    if (!o.error.empty()) continue;  // threw: no latency to record
    if (timed) {
      lat_timed.push_back(o.latency_ms);
      if (o.ok) layers.add(o.result);
    } else {
      plain.push_back({o.latency_ms, ms_between(start, last), 0, o.ok});
    }
  }
  const double window_ms = ms_between(start, last);
  const double rss_mb = peak_rss_mb();
  {
    SpanScope s(spans, "baselines::run_sequential", next_op++);
    time_serial(*cp, ref, kSerialReps);
  }
  std::vector<double> lat_plain;
  for (const OpSample& o : plain) lat_plain.push_back(o.latency_ms);

  if (!cfg.trace) {
    add_e2e_metrics(res, plain, {ref.serial_ms}, window_ms, setup_s, rss_mb);
    return res;
  }

  Values m;
  m["program.compile_ms"] = median(compile_ms);
  m["program.instances"] = static_cast<double>(ref.stats.instances);
  m["program.iterations"] = static_cast<double>(ref.stats.iterations);
  m["exec.team_fork_join_us"] = fork_join_p50_us(*team, spans, next_op++);
  m["exec.phase_timing_overhead"] =
      ratio(median(lat_timed), median(lat_plain)) - 1;
  add_runtime_metrics(layers, m);

  // The model's prediction for the same program at the same P.
  runtime::SchedOptions vopts;
  vopts.strategy = spec.strategy;
  vopts.run_bodies_in_sim = false;
  vopts.costs = vtime::CostModel::cedar();
  runtime::RunResult v;
  {
    SpanScope s(spans, "runtime::run_vtime", next_op++);
    v = runtime::run_vtime(*cp->program(), procs, vopts);
  }
  const double measured = ratio(ref.serial_ms, median(lat_plain));
  m["vtime.makespan_vcycles"] = static_cast<double>(v.makespan);
  m["vtime.sync_ops_per_iter"] =
      ratio(static_cast<double>(v.total.sync_ops),
            static_cast<double>(v.total.iterations));
  m["vtime.speedup_error"] = ratio(v.speedup(), measured) - 1;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "speedup at P=%u: vtime (cedar) predicts %.3f, measured "
                "%.3f (serial %.3f ms / p50 %.3f ms)",
                procs, v.speedup(), measured, ref.serial_ms,
                median(lat_plain));
  res.notes.emplace_back(buf);
  res.metrics = layer_metrics(m);
  return res;
}

Result run_nest_churn(const Config& cfg, SpanLog& spans) {
  const std::string source = behind_prologue(read_program(cfg, "fig1.loop"));
  return run_batch(cfg,
                   {runtime::Strategy::gss(),
                    [&](u32 procs) {
                      return parse_checked(source, {{"NI", 32}, {"NJ", 8}},
                                           procs);
                    }},
                   spans);
}

Result run_flat_fine(const Config& cfg, SpanLog& spans) {
  // About 2% of the iterations are 20x heavier, placed by the seed.
  constexpr i64 kIters = i64{1} << 18;
  auto costs = std::make_shared<std::vector<Cycles>>(kIters);
  Xoshiro256ss rng(cfg.seed);
  for (Cycles& c : *costs) c = rng.below(50) == 0 ? 2000 : 100;
  const program::CostFn cost = [costs](const IndexVec&, i64 j) -> Cycles {
    return (*costs)[static_cast<std::size_t>(j - 1)];
  };
  return run_batch(cfg,
                   {runtime::Strategy::self(),
                    [&](u32 procs) {
                      return std::make_unique<CheckedProgram>(
                          [&](const program::BodyFactory& bodies) {
                            return workloads::flat_doall(kIters, cost,
                                                         bodies("flat"));
                          },
                          procs);
                    }},
                   spans);
}

// ------------------------------------------------------------- serve ----

struct Shape {
  const char* name;
  std::string source;
  std::map<std::string, i64> params;
  runtime::Strategy strategy;  // Doall dispatch
};
constexpr std::size_t kShapes = 4;
using ShapeSet = std::array<std::unique_ptr<CheckedProgram>, kShapes>;

/// One finished serve operation.
struct ServeOp {
  u32 shape = 0;
  bool rejected = false;
  bool ok = false;
  bool timed = false;
  double latency_ms = 0;  // submit -> await returns
  Clock::time_point done{};  // when await returned
  double submit_us = 0;
  double queue_wait_ms = 0;
  u64 slices = 0;
  u64 preemptions = 0;
};

/// The closed-loop generator: keeps `depth` submissions outstanding, one
/// program slot each, and submits the next when the oldest returns.
class ServeRig {
 public:
  ServeRig(serve::Service& svc, std::vector<ShapeSet>& slots,
           const std::array<runtime::Strategy, kShapes>& strategies,
           const std::array<Reference, kShapes>& refs,
           const std::vector<std::uint8_t>& shapes,
           const std::vector<std::uint8_t>& tenants,
           Result& res, SpanLog& spans)
      : svc_(svc),
        slots_(slots),
        strategies_(strategies),
        refs_(refs),
        shapes_(shapes),
        tenants_(tenants),
        res_(res),
        spans_(spans) {}

  /// Submit while more() holds, then drain.  timed() says whether the next
  /// submission runs with phase timing (and spans).  Returns the time the
  /// last await returned.
  Clock::time_point drive(const std::function<bool()>& more,
                          const std::function<bool()>& timed,
                          std::vector<ServeOp>& out, LayerTotals* layers) {
    struct InFlight {
      u32 slot;
      u32 shape;
      serve::Handle handle;
      Clock::time_point submitted;
      double submit_us;
      bool timed;
      u64 op;
      int root;
    };
    std::deque<InFlight> q;
    std::vector<u32> free(slots_.size());
    std::iota(free.begin(), free.end(), 0u);
    auto last = Clock::now();
    for (;;) {
      while (!free.empty() && more()) {
        const u32 slot = free.back();
        const std::size_t k = pos_++ % shapes_.size();
        const u32 shape = shapes_[k];
        CheckedProgram& cp = *slots_[slot][shape];
        cp.reset();
        const bool t = timed();
        SpanLog& log = t ? spans_ : off_;
        const u64 op = next_op_++;
        const int root = log.begin("op", op, -1, slot);
        serve::SubmitOptions so;
        so.tenant = 1 + tenants_[k];
        so.sched.measure_phases = t;
        so.sched.strategy = strategies_[shape];
        const auto t0 = Clock::now();
        serve::SubmitOutcome sub;
        {
          SpanScope s(log, "serve::Service::submit", op, root, slot);
          sub = svc_.submit(cp.program(), so);
        }
        const double submit_us = ms_between(t0, Clock::now()) * 1000;
        if (!sub.accepted()) {
          log.end(root);
          tally_op(res_, false, false,
                   std::string("rejected: ") +
                       serve::submit_status_name(sub.status));
          out.push_back({shape, true, false, t, 0, {}, submit_us, 0, 0, 0});
          break;  // let an await free capacity before trying again
        }
        free.pop_back();
        q.push_back({slot, shape, sub.handle, t0, submit_us, t, op, root});
      }
      if (q.empty()) break;
      InFlight f = std::move(q.front());
      q.pop_front();
      SpanLog& log = f.timed ? spans_ : off_;
      runtime::RunResult r;
      {
        SpanScope s(log, "serve::Handle::await", f.op, f.root, f.slot);
        r = f.handle.await();
      }
      last = Clock::now();
      bool ok = false;
      {
        SpanScope s(log, "check", f.op, f.root, f.slot);
        ok = verified(*slots_[f.slot][f.shape], refs_[f.shape], r);
      }
      log.end(f.root);
      tally_op(res_, ok, !r.failure.has_value(), failure_text(r));
      const runtime::TenantStats row =
          r.tenants.empty() ? runtime::TenantStats{} : r.tenants.front();
      out.push_back({f.shape, false, ok, f.timed,
                     ms_between(f.submitted, last), last, f.submit_us,
                     static_cast<double>(row.queue_wait) * 1e-6, row.slices,
                     row.preemptions});
      if (ok && f.timed && layers != nullptr) layers->add(r);
      free.push_back(f.slot);
    }
    return last;
  }

  u64 next_op() { return next_op_++; }

 private:
  serve::Service& svc_;
  std::vector<ShapeSet>& slots_;
  const std::array<runtime::Strategy, kShapes>& strategies_;
  const std::array<Reference, kShapes>& refs_;
  const std::vector<std::uint8_t>& shapes_;
  const std::vector<std::uint8_t>& tenants_;
  Result& res_;
  SpanLog& spans_;
  SpanLog off_{false};
  std::size_t pos_ = 0;
  u64 next_op_ = 1;
};

u64 granted_ns(const serve::Service& svc) {
  u64 g = 0;
  for (const runtime::TenantStats& row : svc.tenant_snapshot()) {
    g += row.granted;
  }
  return g;
}

Result run_serve_mix(const Config& cfg, SpanLog& spans) {
  // The generator thread takes one core; the pool gets the rest.
  const u32 workers = cfg.procs - 1;
  const u32 depth = 2 * workers;
  Result res;
  res.procs = workers;

  // fig1 runs under GSS, as on nest_churn, so the gated workloads cover
  // the GSS fetch-then-CAS path too; the rest keep the default `self`.
  const std::array<Shape, kShapes> shapes = {{
      {"fig1_small", behind_prologue(read_program(cfg, "fig1.loop")), {},
       runtime::Strategy::gss()},
      {"triangular", behind_prologue(read_program(cfg, "triangular.loop")),
       {{"N", 64}}, runtime::Strategy::self()},
      {"doacross_chain", read_program(cfg, "doacross_chain.loop"), {},
       runtime::Strategy::self()},
      {"flat_small", "LOOP flat t = 1, 1000 COST 300\n", {},
       runtime::Strategy::self()},
  }};
  std::array<runtime::Strategy, kShapes> strategies;
  for (std::size_t i = 0; i < kShapes; ++i) strategies[i] = shapes[i].strategy;
  std::vector<std::uint8_t> stream_shapes(kStreamLen);
  std::vector<std::uint8_t> stream_tenants(kStreamLen);
  Xoshiro256ss rng(cfg.seed);
  for (std::size_t k = 0; k < kStreamLen; ++k) {
    stream_shapes[k] = static_cast<std::uint8_t>(rng.below(kShapes));
    stream_tenants[k] = static_cast<std::uint8_t>(rng.below(2));
  }

  serve::ServeOptions so;
  so.priorities = 1;
  so.max_queue_depth = 2 * depth;  // admission never has to refuse
  so.max_tenants = 2;

  std::unique_ptr<serve::Service> svc;
  std::vector<ShapeSet> slots;
  std::array<Reference, kShapes> refs;
  std::vector<double> setup_s;
  std::vector<double> compile_ms;
  std::vector<ServeOp> warm;
  u64 setup_op = 1u << 30;  // span ids apart from the rig's op ids
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    slots.clear();
    const u64 op = setup_op++;
    SpanScope setup(spans, "setup", op);
    const auto t0 = Clock::now();
    {
      SpanScope s(spans, "program.compile", op, setup.id());
      slots.resize(depth);
      for (ShapeSet& set : slots) {
        for (std::size_t i = 0; i < kShapes; ++i) {
          set[i] = parse_checked(shapes[i].source, shapes[i].params, workers);
        }
      }
    }
    const double c_ms = ms_between(t0, Clock::now());
    compile_ms.push_back(c_ms / depth);  // one program of each shape
    if (rep == 0) {
      SpanScope s(spans, "baselines::run_sequential", op, setup.id());
      for (std::size_t i = 0; i < kShapes; ++i) {
        refs[i] = serial_reference(*slots[0][i], kSerialReps);
      }
    }
    const auto t1 = Clock::now();
    {
      SpanScope s(spans, "serve::Service", op, setup.id());
      svc = std::make_unique<serve::Service>(workers, so);
    }
    {
      SpanScope s(spans, "warmup", op, setup.id());
      SpanLog off(false);
      ServeRig rig(*svc, slots, strategies, refs, stream_shapes,
                   stream_tenants, res, off);
      u32 left = depth * kServeWarmupRounds;
      rig.drive(
          [&] {
            if (left == 0) return false;
            --left;
            return true;
          },
          [] { return false; }, warm, nullptr);
    }
    setup_s.push_back((c_ms + ms_between(t1, Clock::now())) / 1000);
  }

  ServeRig rig(*svc, slots, strategies, refs, stream_shapes, stream_tenants,
               res, spans);
  LayerTotals layers;
  std::vector<ServeOp> ops;
  reserve_touched(ops, sample_capacity(cfg));
  const u64 granted0 = granted_ns(*svc);
  const u64 rejections0 = svc->counters().serve_rejections;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  const auto last = rig.drive(
      [&] { return Clock::now() < deadline; },
      [&] {
        const double s =
            std::chrono::duration<double>(Clock::now() - start).count();
        return cfg.trace &&
               static_cast<u64>(s / kServeTimedBlockS) % 2 == 1;
      },
      ops, &layers);
  const double window_ms = ms_between(start, last);
  const double granted =
      static_cast<double>(granted_ns(*svc) - granted0);
  const double rejections =
      static_cast<double>(svc->counters().serve_rejections - rejections0);
  const double rss_mb = peak_rss_mb();
  svc.reset();
  {
    SpanScope s(spans, "baselines::run_sequential", rig.next_op());
    for (std::size_t i = 0; i < kShapes; ++i) {
      time_serial(*slots[0][i], refs[i], kSerialReps);
    }
  }

  std::vector<OpSample> plain;
  std::vector<double> lat_plain;
  std::vector<double> lat_timed;
  for (const ServeOp& o : ops) {
    if (o.rejected) continue;
    (o.timed ? lat_timed : lat_plain).push_back(o.latency_ms);
    if (!o.timed) {
      plain.push_back(
          {o.latency_ms, ms_between(start, o.done), o.shape, o.ok});
    }
  }
  std::vector<double> serial_ms;
  std::string serial_note = "serial reference per shape:";
  for (std::size_t i = 0; i < kShapes; ++i) {
    serial_ms.push_back(refs[i].serial_ms);
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s %.3f ms", shapes[i].name,
                  refs[i].serial_ms);
    serial_note += buf;
  }
  res.notes.push_back(serial_note);
  if (!cfg.trace) {
    add_e2e_metrics(res, plain, serial_ms, window_ms, setup_s, rss_mb);
    return res;
  }

  Values m;
  m["program.compile_ms"] = median(compile_ms);
  for (const Reference& r : refs) {
    m["program.instances"] += static_cast<double>(r.stats.instances);
    m["program.iterations"] += static_cast<double>(r.stats.iterations);
  }
  {
    exec::ThreadTeam team(workers);
    m["exec.team_fork_join_us"] = fork_join_p50_us(team, spans, rig.next_op());
  }
  m["exec.phase_timing_overhead"] =
      ratio(median(lat_timed), median(lat_plain)) - 1;
  add_runtime_metrics(layers, m);

  std::vector<double> submit_us;
  std::vector<double> run_ms;
  std::vector<double> wait_ms;
  double slices = 0;
  double preemptions = 0;
  for (const ServeOp& o : ops) {
    if (o.rejected || !o.timed) continue;
    submit_us.push_back(o.submit_us);
    run_ms.push_back(o.latency_ms - o.queue_wait_ms);
    wait_ms.push_back(o.queue_wait_ms);
    slices += static_cast<double>(o.slices);
    preemptions += static_cast<double>(o.preemptions);
  }
  const double n = static_cast<double>(wait_ms.size());
  const Tail wait_tail = tail(wait_ms);
  m["serve.submit_us"] = median(submit_us);
  m["serve.run_p50_ms"] = median(run_ms);
  m["serve.queue_wait_p50_ms"] = median(wait_ms);
  m["serve.queue_wait_tail_ms"] = wait_tail.value;
  m["serve.slices_per_op"] = ratio(slices, n);
  m["serve.preemptions_per_op"] = ratio(preemptions, n);
  m["serve.busy_share"] = ratio(granted, workers * window_ms * 1e6);
  m["serve.rejections"] = rejections;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "serve.queue_wait_tail_ms is p%.2f of n=%zu; window %.1f ms, "
                "%zu ops",
                wait_tail.percentile, wait_tail.samples, window_ms,
                ops.size());
  res.notes.emplace_back(buf);
  res.metrics = layer_metrics(m);
  return res;
}

}  // namespace

OpOutcome run_batch_op(exec::ThreadTeam& team, CheckedProgram& cp,
                       const Reference& ref,
                       const runtime::SchedOptions& opts, SpanLog& spans,
                       u64 op) {
  OpOutcome o;
  SpanScope root(spans, "op", op);
  cp.reset();
  try {
    SpanScope s(spans, "runtime::run_threads_on", op, root.id());
    const auto t0 = Clock::now();
    o.result = runtime::run_threads_on(team, *cp.program(), opts);
    o.latency_ms = ms_between(t0, Clock::now());
  } catch (const std::exception& e) {
    o.error = std::string("threw: ") + e.what();
    return o;
  }
  SpanScope s(spans, "check", op, root.id());
  o.ok = verified(cp, ref, o.result);
  o.wrong_answer = !o.ok && !o.result.failure.has_value();
  return o;
}

Result run_workload(const Config& cfg, SpanLog& spans) {
  if (cfg.workload == "nest_churn") return run_nest_churn(cfg, spans);
  if (cfg.workload == "flat_fine") return run_flat_fine(cfg, spans);
  if (cfg.workload == "serve_mix") return run_serve_mix(cfg, spans);
  throw std::invalid_argument("unknown workload " + cfg.workload);
}

}  // namespace perfbench
