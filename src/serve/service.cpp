#include "serve/service.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "runtime/high_level.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"

namespace selfsched::serve {

namespace {

using Clock = std::chrono::steady_clock;

u64 ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// CPU time consumed by the calling thread.  Fairness accounting charges
/// tenants for CPU actually granted to them: wall time would also bill the
/// periods the worker thread itself was descheduled, which on a loaded or
/// sanitizer-slowed machine is co-scheduling noise an order of magnitude
/// larger than the work being measured.
u64 thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ull +
         static_cast<u64>(ts.tv_nsec);
#else
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
#endif
}

void erase_active(std::vector<std::shared_ptr<Submission>>& v,
                  const Submission* s) {
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (it->get() == s) {
      v.erase(it);
      return;
    }
  }
}

}  // namespace

runtime::RunResult Handle::await() {
  SS_CHECK_MSG(valid(), "await() on an empty serve::Handle");
  return svc_->await(sub_);
}

bool Handle::done() const {
  if (!valid()) return false;
  return svc_->await_poll(sub_);
}

bool Handle::cancel() {
  if (!valid()) return false;
  return svc_->cancel(sub_);
}

Service::Service(u32 procs, ServeOptions opts)
    : procs_(procs), opts_([&] {
        ServeOptions o = opts;
        o.priorities = std::max(1u, o.priorities);
        o.max_active = std::max(1u, o.max_active);
        return o;
      }()),
      epoch_(Clock::now()) {
  SS_CHECK(procs >= 1);
  queues_.resize(opts_.priorities);
  if (!opts_.deterministic) {
    // The persistent pool: P-1 parked ThreadTeam members plus the pump
    // thread as worker 0.  One team.run() spans the service's whole life;
    // workers park on work_cv_ between grants.
    team_ = std::make_unique<exec::ThreadTeam>(procs_);
    pump_ = std::thread([this] {
      team_->run([this](ProcId id) { worker_main(id); });
    });
  }
}

Service::~Service() { stop(); }

SubmitOutcome Service::submit(
    std::shared_ptr<const program::NestedLoopProgram> prog, SubmitOptions s) {
  SS_CHECK_MSG(prog != nullptr, "submit() with a null program");
  std::lock_guard lk(mu_);
  if (stopping_) {
    counters_.serve_rejections++;
    return {SubmitStatus::kStopped, Handle()};
  }
  const ResiliencePolicy pol = s.resilience ? *s.resilience : opts_.resilience;
  // Quarantine circuit breaker: an open breaker rejects the tenant outright;
  // once the cooldown has elapsed exactly one arrival is admitted as the
  // half-open probe, whose terminal outcome closes or re-opens the breaker.
  bool as_probe = false;
  if (pol.quarantine_failures > 0) {
    const auto hit = health_.find(s.tenant);
    if (hit != health_.end()) {
      const TenantHealth& h = hit->second;
      if (h.state == TenantState::kQuarantined) {
        if (now_stamp_locked() < h.quarantined_until) {
          counters_.serve_rejections++;
          return {SubmitStatus::kQuarantined, Handle()};
        }
        as_probe = true;  // cooldown over: this arrival probes
      } else if (h.state == TenantState::kProbation) {
        if (h.probe_seq != 0) {  // a probe is already in flight
          counters_.serve_rejections++;
          return {SubmitStatus::kQuarantined, Handle()};
        }
        as_probe = true;  // prior probe never got admitted; retake the role
      }
    }
  }
  const u32 priority = std::min(s.priority, opts_.priorities - 1);
  // Overload shedding: at the watermark, drop the newest pending submission
  // of the lowest tier strictly below the arrival (structured kShed result)
  // to make room; an arrival that is itself lowest-tier is refused instead.
  if (pol.shed_watermark > 0 && queued_ >= pol.shed_watermark) {
    std::shared_ptr<Submission> victim;
    for (u32 tier = opts_.priorities; tier-- > priority + 1 && !victim;) {
      auto& q = queues_[tier];
      for (auto it = q.rbegin(); it != q.rend(); ++it) {
        if ((*it)->state == Submission::State::kQueued) {
          victim = *it;
          q.erase(std::next(it).base());
          break;
        }
      }
    }
    counters_.serve_sheds++;
    if (victim == nullptr) {
      counters_.serve_rejections++;
      health_[s.tenant].sheds++;
      return {SubmitStatus::kShed, Handle()};
    }
    queued_--;
    victim->queue_wait +=
        opts_.deterministic ? vnow_ - victim->vqueued_since
                            : ns_between(victim->queued_since, Clock::now());
    finalize_unrun_locked(*victim, fault::FailureRecord::Kind::kShed,
                          "shed under overload");
  }
  if (queued_ >= opts_.max_queue_depth) {
    counters_.serve_rejections++;
    return {SubmitStatus::kQueueFull, Handle()};
  }
  const bool known_tenant = tenants_inflight_.count(s.tenant) != 0;
  if (!known_tenant && tenants_inflight_.size() >= opts_.max_tenants) {
    counters_.serve_rejections++;
    return {SubmitStatus::kTooManyTenants, Handle()};
  }

  auto sub = std::make_shared<Submission>(std::move(prog));
  sub->seq = next_seq_++;
  sub->tenant = s.tenant;
  sub->priority = priority;
  sub->policy = pol;
  sub->deadline_ms = opts_.deterministic ? 0 : s.deadline_ms;
  sub->submitted_at = Clock::now();
  sub->queued_since = sub->submitted_at;
  if (sub->deadline_ms > 0) {
    sub->deadline_at =
        sub->submitted_at + std::chrono::milliseconds(sub->deadline_ms);
  }
  sub->vsubmitted = vnow_;
  sub->vqueued_since = vnow_;
  sub->opts = s.sched;
  if (s.strategy) sub->opts.strategy = *s.strategy;
  // The service owns failure policy: cancellation/deadlines/body errors
  // become structured results; nothing may unwind a pooled worker or abort
  // the process on a tenant's audit findings.
  sub->opts.on_body_error = runtime::OnBodyError::kReturn;
  sub->opts.audit_abort = false;
  sub->opts.deadline_ms = 0;  // armed by the service, from submission time
  if (opts_.deterministic) sub->opts.record_schedule = true;
  // Arm the policy's stall watchdog on the namespace (tightest budget wins
  // if the tenant armed its own through sched).
  if (opts_.deterministic) {
    if (pol.watchdog_stall_vcycles > 0) {
      sub->opts.watchdog_stall_vcycles =
          sub->opts.watchdog_stall_vcycles > 0
              ? std::min(sub->opts.watchdog_stall_vcycles,
                         pol.watchdog_stall_vcycles)
              : pol.watchdog_stall_vcycles;
    }
  } else if (pol.watchdog_stall_ms > 0) {
    sub->opts.watchdog_stall_ms =
        sub->opts.watchdog_stall_ms > 0
            ? std::min(sub->opts.watchdog_stall_ms, pol.watchdog_stall_ms)
            : pol.watchdog_stall_ms;
  }
  if (as_probe) {
    TenantHealth& h = health_[s.tenant];
    h.state = TenantState::kProbation;
    h.probe_seq = sub->seq;
  }

  queues_[sub->priority].push_back(sub);
  queued_++;
  tenants_inflight_[s.tenant]++;
  counters_.serve_submissions++;
  work_cv_.notify_one();
  return {SubmitStatus::kAccepted, Handle(this, sub)};
}

u64 Service::now_stamp_locked() const {
  return opts_.deterministic ? vnow_ : ns_between(epoch_, Clock::now());
}

/// Past its retry-backoff gate?  First attempts are always ready; retries
/// wait out their deterministic backoff delay (virtual clock in det mode,
/// host clock in threads mode — the workers' 500us timed wait re-probes).
bool Service::ready_locked(const Submission& sub) const {
  if (sub.attempts == 0) return true;
  return opts_.deterministic ? sub.vnot_before <= vnow_
                             : Clock::now() >= sub.not_before;
}

bool Service::grantable_locked() const {
  if (active_.size() < opts_.max_active && queued_ > 0) {
    for (const auto& q : queues_) {
      for (const auto& s : q) {
        if (s->state == Submission::State::kQueued && ready_locked(*s)) {
          return true;
        }
      }
    }
  }
  for (const auto& s : active_) {
    if (!s->done_flag && !(s->stalled && s->workers_in > 0)) return true;
  }
  return false;
}

std::shared_ptr<Submission> Service::pop_queued_locked() {
  for (auto& q : queues_) {  // index 0 = highest priority
    for (auto it = q.begin(); it != q.end();) {
      if ((*it)->state != Submission::State::kQueued) {
        it = q.erase(it);  // lazily removed (cancelled / shed)
        continue;
      }
      if (!ready_locked(**it)) {  // backing off before a retry
        ++it;
        continue;
      }
      std::shared_ptr<Submission> sub = std::move(*it);
      q.erase(it);
      queued_--;
      return sub;
    }
  }
  return nullptr;
}

void Service::activate_locked(const std::shared_ptr<Submission>& sub) {
  if (opts_.deterministic) {
    sub->queue_wait += vnow_ - sub->vqueued_since;
    if (sub->cancel_flag.load(std::memory_order_relaxed)) {
      finalize_unrun_locked(*sub, fault::FailureRecord::Kind::kCancelled,
                            "cancelled while queued");
      return;
    }
    sub->state = Submission::State::kActive;
    active_.push_back(sub);
    return;
  }
  const Clock::time_point now = Clock::now();
  sub->queue_wait += ns_between(sub->queued_since, now);
  if (sub->cancel_flag.load(std::memory_order_relaxed)) {
    finalize_unrun_locked(*sub, fault::FailureRecord::Kind::kCancelled,
                          "cancelled while queued");
    return;
  }
  if (sub->deadline_ms > 0 && now >= sub->deadline_at) {
    finalize_unrun_locked(*sub, fault::FailureRecord::Kind::kDeadline,
                          "deadline expired while queued");
    return;
  }
  sub->state = Submission::State::kActive;
  sub->started_at = now;
  sub->run = std::make_unique<runtime::ProgramRun<exec::RContext>>(
      sub->prog->tables(), sub->opts, procs_);
  if (sub->run->auditing.sink != nullptr) {
    sub->run->auditing.sink->set_scope("tenant " +
                                       std::to_string(sub->tenant) + " sub " +
                                       std::to_string(sub->seq));
  }
  // Armed under the service mutex, before any worker is granted into the
  // namespace — the workers' unsynchronized deadline reads stay race-free.
  if (sub->deadline_ms > 0) sub->run->arm_deadline(sub->deadline_at);
  active_.push_back(sub);
}

u64 Service::tenant_charge_locked(u64 tenant) const {
  u64 g = 0;
  const auto it = tenant_totals_.find(tenant);
  if (it != tenant_totals_.end()) g = it->second.granted;
  const u64 slice_ns = static_cast<u64>(opts_.slice_us) * 1000u;
  for (const auto& s : active_) {
    if (s->tenant != tenant) continue;
    // Count slices in flight as already granted, so concurrent arbitration
    // spreads workers across equal-charge tenants instead of piling onto
    // the one whose counter lags.
    g += s->granted + static_cast<u64>(s->workers_in) * slice_ns;
  }
  return g;
}

std::shared_ptr<Submission> Service::admit_and_pick_locked() {
  while (active_.size() < opts_.max_active) {
    std::shared_ptr<Submission> next = pop_queued_locked();
    if (next == nullptr) break;
    activate_locked(next);  // pushes to active_ unless finalized unrun
  }
  // Strict across tiers, least-granted tenant within a tier, then the
  // tenant's namespace with the fewest resident workers (so free workers
  // spread over its programs instead of piling onto the oldest), FIFO on
  // ties.  Deterministic grants leave no worker resident: FIFO there.
  std::shared_ptr<Submission> best;
  std::tuple<u32, u64, u32, u64> best_key;
  for (const auto& s : active_) {
    if (s->done_flag) continue;  // draining; its own workers finalize it
    // Stalled with a worker still inside: that worker's slice end either
    // clears the mark (it dispatched) or finishes the namespace.  With
    // nobody inside the namespace must be re-probed (kept live by the
    // workers' timed wait even if every notify was consumed elsewhere).
    if (s->stalled && s->workers_in > 0) continue;
    const std::tuple key(s->priority, tenant_charge_locked(s->tenant),
                         s->workers_in, s->seq);
    if (best == nullptr || key < best_key) {
      best = s;
      best_key = key;
    }
  }
  return best;
}

void Service::finalize_unrun_locked(Submission& sub,
                                    fault::FailureRecord::Kind kind,
                                    const char* message) {
  runtime::RunResult r;
  r.procs = procs_;
  fault::FailureRecord rec;
  rec.kind = kind;
  rec.message = message;
  r.failure.emplace(std::move(rec));
  r.counters.serve_retries += sub.attempts;
  runtime::finalize(r);
  runtime::TenantStats row;
  row.tenant = sub.tenant;
  row.priority = sub.priority;
  row.submissions = 1;
  row.queue_wait = sub.queue_wait;
  r.tenants.push_back(row);
  record_terminal_locked(sub, r);
  erase_active(active_, &sub);
  sub.state = Submission::State::kFinished;
  sub.run.reset();
  sub.result.emplace(std::move(r));
  retire_locked(sub, row);
}

/// Retryable?  Transient kinds under the submission's policy, inside the
/// retry budget, not client-cancelled — and never when the attempt's
/// auditor recorded violations: a retry must not mask audit findings.
bool Service::should_retry_locked(const Submission& sub,
                                  const runtime::RunResult& r) const {
  if (!r.failure.has_value()) return false;
  if (sub.cancel_flag.load(std::memory_order_relaxed)) return false;
  if (r.audit_violations != 0) return false;
  if (sub.attempts >= sub.policy.max_retries) return false;
  return transient_failure(r.failure->kind, sub.policy);
}

/// Resubmit a transiently failed submission: back into its priority queue
/// behind a deterministic backoff gate, to be activated into a FRESH
/// ProgramRun namespace.  The FaultPlan is NOT reset — fired exactly-once
/// specs stay fired, so the retried run executes as if unarmed and its
/// result is oracle-identical.  granted/slices/queue_wait keep accumulating
/// across attempts: fairness charges the tenant for its retried cycles.
void Service::schedule_retry_locked(const std::shared_ptr<Submission>& sub,
                                    const runtime::RunResult& r) {
  sub->attempts++;
  counters_.serve_retries++;
  TenantHealth& h = health_[sub->tenant];
  h.retries++;
  h.has_failure = true;
  h.last_failure = r.failure->kind;
  sub->prior_audit_violations += r.audit_violations;
  erase_active(active_, sub.get());
  sub->run.reset();
  sub->state = Submission::State::kQueued;
  sub->seeded = false;
  sub->done_flag = false;
  sub->stalled = false;
  const ResiliencePolicy& pol = sub->policy;
  if (opts_.deterministic) {
    sub->vnot_before =
        vnow_ + retry_delay(static_cast<u64>(pol.retry_backoff_vcycles),
                            static_cast<u64>(pol.retry_backoff_cap_vcycles),
                            pol.retry_jitter_seed, sub->seq, sub->attempts);
    sub->vqueued_since = vnow_;
  } else {
    const Clock::time_point now = Clock::now();
    const u64 delay_us =
        retry_delay(static_cast<u64>(pol.retry_backoff_us),
                    static_cast<u64>(pol.retry_backoff_cap_us),
                    pol.retry_jitter_seed, sub->seq, sub->attempts);
    sub->not_before =
        now + std::chrono::microseconds(static_cast<i64>(delay_us));
    sub->queued_since = now;
  }
  queues_[sub->priority].push_back(sub);
  queued_++;
  work_cv_.notify_all();
}

/// Quarantine-breaker bookkeeping at a submission's terminal outcome.
/// Success / kShed / kCancelled are neutral (not the tenant's fault): they
/// close a half-open breaker but never trip it.  Tenant-attributable
/// terminal failures enter the sliding window; a window overflow — or any
/// failed probe — opens the breaker for the cooldown.
void Service::record_terminal_locked(Submission& sub,
                                     const runtime::RunResult& r) {
  TenantHealth& h = health_[sub.tenant];
  const bool probe =
      h.state == TenantState::kProbation && h.probe_seq == sub.seq;
  if (probe) h.probe_seq = 0;
  if (!r.failure.has_value()) {
    h.completions++;
    if (probe) {
      h.state = TenantState::kHealthy;
      h.failure_times.clear();
    }
    return;
  }
  const fault::FailureRecord::Kind kind = r.failure->kind;
  h.has_failure = true;
  h.last_failure = kind;
  if (kind == fault::FailureRecord::Kind::kShed ||
      kind == fault::FailureRecord::Kind::kCancelled) {
    if (kind == fault::FailureRecord::Kind::kShed) h.sheds++;
    // Neutral probe outcome: close the breaker but keep the failure
    // window, so a genuine relapse re-trips quickly.
    if (probe) h.state = TenantState::kHealthy;
    return;
  }
  h.failures++;
  const ResiliencePolicy& pol = sub.policy;
  if (pol.quarantine_failures == 0) return;
  const u64 now = now_stamp_locked();
  const u64 window =
      opts_.deterministic
          ? static_cast<u64>(pol.quarantine_window_vcycles)
          : static_cast<u64>(pol.quarantine_window_ms) * 1'000'000u;
  h.failure_times.push_back(now);
  while (!h.failure_times.empty() && now - h.failure_times.front() > window) {
    h.failure_times.pop_front();
  }
  const bool trip =
      probe || (h.state == TenantState::kHealthy &&
                h.failure_times.size() >= pol.quarantine_failures);
  if (trip) {
    h.state = TenantState::kQuarantined;
    h.quarantined_until =
        now + (opts_.deterministic
                   ? static_cast<u64>(pol.quarantine_cooldown_vcycles)
                   : static_cast<u64>(pol.quarantine_cooldown_ms) *
                         1'000'000u);
    h.quarantines++;
    counters_.serve_quarantines++;
  }
}

void Service::finalize_run_locked(const std::shared_ptr<Submission>& sub) {
  const u64 makespan = ns_between(sub->started_at, Clock::now());
  runtime::RunResult r = sub->run->finish(procs_, makespan);
  // Fold before the retry branch: a retried attempt's result is discarded,
  // but its rescue still happened.
  counters_.serve_watchdog_rescues += r.counters.serve_watchdog_rescues;
  if (should_retry_locked(*sub, r)) {
    schedule_retry_locked(sub, r);
    return;
  }
  r.counters.serve_preemptions += sub->preemptions;
  r.counters.serve_retries += sub->attempts;
  r.audit_violations += sub->prior_audit_violations;
  runtime::TenantStats row;
  row.tenant = sub->tenant;
  row.priority = sub->priority;
  row.submissions = 1;
  row.queue_wait = sub->queue_wait;
  row.granted = sub->granted;
  row.slices = sub->slices;
  row.preemptions = sub->preemptions;
  r.tenants.push_back(row);
  record_terminal_locked(*sub, r);
  erase_active(active_, sub.get());
  sub->state = Submission::State::kFinished;
  sub->run.reset();  // the namespace is drained; the result carries the rest
  sub->result.emplace(std::move(r));
  retire_locked(*sub, row);
}

void Service::retire_locked(Submission& sub,
                            const runtime::TenantStats& row) {
  runtime::TenantStats& tot = tenant_totals_[sub.tenant];
  tot.tenant = sub.tenant;
  tot.priority = sub.priority;
  tot.merge(row);
  const auto it = tenants_inflight_.find(sub.tenant);
  if (it != tenants_inflight_.end() && --it->second == 0) {
    tenants_inflight_.erase(it);
  }
  done_cv_.notify_all();
  work_cv_.notify_all();  // capacity may have freed; stop may be drained
}

void Service::worker_main(ProcId id) {
  std::unique_lock lk(mu_);
  for (;;) {
    while (!grantable_locked() &&
           !(stopping_ && queued_ == 0 && active_.empty())) {
      // Timed, so a stalled namespace whose last resident worker left is
      // re-probed without depending on a notification edge.
      work_cv_.wait_for(lk, std::chrono::microseconds(500));
    }
    std::shared_ptr<Submission> sub = admit_and_pick_locked();
    if (sub == nullptr) {
      if (stopping_ && queued_ == 0 && active_.empty()) return;
      continue;  // raced with another worker; re-test the predicate
    }
    sub->workers_in++;
    const bool do_seed = !sub->seeded;
    sub->seeded = true;
    lk.unlock();
    const SliceResult sr = run_slice(id, *sub, do_seed);
    lk.lock();
    sub->workers_in--;
    sub->granted += sr.charged_ns;
    sub->slices++;
    if (sr.exit == runtime::SessionExit::kYield) {
      sub->preemptions++;
      counters_.serve_preemptions++;
      sub->stalled = sr.iterations == 0;
    } else {
      sub->done_flag = true;
    }
    if (sub->done_flag && sub->workers_in == 0 &&
        sub->state == Submission::State::kActive) {
      finalize_run_locked(sub);
    } else {
      // Eligibility may have changed (stalled cleared / workers_in freed).
      work_cv_.notify_all();
    }
  }
}

Service::SliceResult Service::run_slice(ProcId id, Submission& sub,
                                        bool do_seed) {
  runtime::ProgramRun<exec::RContext>& run = *sub.run;
  exec::RContext ctx(id, procs_, run.st.opts.measure_phases);
  ctx.set_trace_sink(&run.rec.sink(id), run.rec.epoch());
  ctx.set_audit_sink(run.auditing.sink);
  ctx.set_fault_plan(run.st.opts.fault_plan);
  const Clock::time_point start = Clock::now();
  const u64 cpu_start = thread_cpu_ns();
  const Clock::time_point slice_end =
      start + std::chrono::microseconds(opts_.slice_us);
  if (do_seed) runtime::seed_program(ctx, run.st);
  if (sub.cancel_flag.load(std::memory_order_relaxed)) {
    // Deliver the client's cancellation from inside the namespace: the
    // fault layer poisons the pool and every worker drains out.
    static const IndexVec kEmptyIvec;
    runtime::fail_run(ctx, run.st, fault::FailureRecord::Kind::kCancelled,
                      kNoLoop, kEmptyIvec, 0, -1, "cancelled by client",
                      nullptr);
  }
  // An idle session — granted but yet to dispatch anything — parks after a
  // short grace instead of burning the whole slice in SEARCH: those spins
  // would otherwise be charged as granted time and wreck the granted-cycle
  // fairness evidence for namespaces with little attachable parallelism.
  const Clock::time_point idle_end =
      start + std::chrono::microseconds(
                  std::min<i64>(std::max<i64>(opts_.slice_us / 8, 10), 50));
  u32 poll = 0;
  const auto should_yield = [&]() -> bool {
    if ((++poll & 0x1fu) != 0) return false;  // clock read 1-in-32 probes
    const Clock::time_point now = Clock::now();
    if (now >= slice_end) return true;
    return ctx.stats().iterations == 0 && now >= idle_end;
  };
  const runtime::SessionExit exit =
      runtime::worker_session(ctx, run.st, should_yield);
  ctx.finish();
  const u64 iterations = ctx.stats().iterations;
  const u64 charged = thread_cpu_ns() - cpu_start;
  run.stats[id].merge(ctx.stats());  // slot `id` has a single writer
  return {exit, charged, iterations};
}

runtime::RunResult Service::await(const std::shared_ptr<Submission>& sub) {
  std::unique_lock lk(mu_);
  if (!opts_.deterministic) {
    done_cv_.wait(lk, [&] { return sub->result.has_value(); });
    return *sub->result;
  }
  // Deterministic mode: awaiters take turns driving the grant loop.
  for (;;) {
    if (sub->result.has_value()) return *sub->result;
    if (driving_) {
      done_cv_.wait(
          lk, [&] { return !driving_ || sub->result.has_value(); });
      continue;
    }
    driving_ = true;
    drive_one_locked(lk);
    driving_ = false;
    done_cv_.notify_all();
  }
}

bool Service::await_poll(const std::shared_ptr<Submission>& sub) const {
  std::lock_guard lk(mu_);
  return sub->result.has_value();
}

bool Service::cancel(const std::shared_ptr<Submission>& sub) {
  std::lock_guard lk(mu_);
  if (sub->result.has_value()) return false;
  sub->cancel_flag.store(true, std::memory_order_relaxed);
  if (sub->state == Submission::State::kQueued) {
    queued_--;  // lazily removed from its deque by pop_queued_locked
    sub->queue_wait += opts_.deterministic
                           ? vnow_ - sub->vqueued_since
                           : ns_between(sub->queued_since, Clock::now());
    finalize_unrun_locked(*sub, fault::FailureRecord::Kind::kCancelled,
                          "cancelled while queued");
  } else {
    // Active: make sure a worker is granted soon to deliver the cancel.
    work_cv_.notify_all();
  }
  return true;
}

void Service::drive_one_locked(std::unique_lock<std::mutex>& lk) {
  std::shared_ptr<Submission> sub = admit_and_pick_locked();
  if (sub == nullptr) {
    // Everything queued may be waiting out a retry backoff.  The virtual
    // clock only advances on grants, so jump it to the earliest gate —
    // deterministically: the gates are pure functions of the trajectory.
    u64 wake = 0;
    bool any = false;
    for (const auto& q : queues_) {
      for (const auto& s : q) {
        if (s->state != Submission::State::kQueued) continue;
        if (!any || s->vnot_before < wake) {
          wake = s->vnot_before;
          any = true;
        }
      }
    }
    if (!any) return;
    vnow_ = std::max(vnow_, wake);
    sub = admit_and_pick_locked();
    if (sub == nullptr) return;
  }
  if (sub->cancel_flag.load(std::memory_order_relaxed)) {
    finalize_unrun_locked(*sub, fault::FailureRecord::Kind::kCancelled,
                          "cancelled before grant");
    return;
  }
  grant_log_.push_back(sub->seq);
  const runtime::SchedOptions o = sub->opts;
  lk.unlock();
  // A grant executes the whole program on the virtual-time engine —
  // deterministic per (program, cost model, schedule spec), with the
  // decision trace recorded.
  runtime::RunResult r = runtime::run_vtime(*sub->prog, procs_, o);
  lk.lock();
  vnow_ += r.makespan;
  sub->granted += r.makespan;
  sub->slices++;
  counters_.serve_watchdog_rescues += r.counters.serve_watchdog_rescues;
  if (should_retry_locked(*sub, r)) {
    schedule_retry_locked(sub, r);
    return;
  }
  r.counters.serve_retries += sub->attempts;
  r.audit_violations += sub->prior_audit_violations;
  runtime::TenantStats row;
  row.tenant = sub->tenant;
  row.priority = sub->priority;
  row.submissions = 1;
  row.queue_wait = sub->queue_wait;
  row.granted = sub->granted;
  row.slices = sub->slices;
  r.tenants.push_back(row);
  record_terminal_locked(*sub, r);
  erase_active(active_, sub.get());
  sub->state = Submission::State::kFinished;
  sub->result.emplace(std::move(r));
  retire_locked(*sub, row);
}

void Service::stop() {
  {
    std::unique_lock lk(mu_);
    stopping_ = true;
    if (opts_.deterministic) {
      // Drain synchronously: drive every admitted submission to its result
      // (grant order stays deterministic).
      while (queued_ > 0 || !active_.empty()) {
        if (driving_) {
          done_cv_.wait(lk, [&] { return !driving_; });
          continue;
        }
        driving_ = true;
        drive_one_locked(lk);
        driving_ = false;
        done_cv_.notify_all();
      }
      return;
    }
    work_cv_.notify_all();
    done_cv_.wait(lk, [&] { return queued_ == 0 && active_.empty(); });
    work_cv_.notify_all();  // wake parked workers to observe the exit state
  }
  std::call_once(pump_join_, [&] {
    if (pump_.joinable()) pump_.join();
  });
}

std::vector<runtime::TenantStats> Service::tenant_snapshot() const {
  std::lock_guard lk(mu_);
  std::unordered_map<u64, runtime::TenantStats> rows = tenant_totals_;
  for (const auto& s : active_) {
    runtime::TenantStats& t = rows[s->tenant];
    t.tenant = s->tenant;
    t.priority = s->priority;
    t.granted += s->granted;
    t.slices += s->slices;
    t.preemptions += s->preemptions;
  }
  std::vector<runtime::TenantStats> out;
  out.reserve(rows.size());
  for (auto& [id, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const runtime::TenantStats& a, const runtime::TenantStats& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

std::vector<TenantHealthRow> Service::health_snapshot() const {
  std::lock_guard lk(mu_);
  std::unordered_map<u64, TenantHealthRow> rows;
  for (const auto& [tenant, h] : health_) {
    TenantHealthRow& row = rows[tenant];
    row.tenant = tenant;
    row.state = h.state;
    row.retries = h.retries;
    row.failures = h.failures;
    row.completions = h.completions;
    row.quarantines = h.quarantines;
    row.sheds = h.sheds;
    row.has_failure = h.has_failure;
    row.last_failure = h.last_failure;
  }
  for (const auto& [tenant, n] : tenants_inflight_) {
    TenantHealthRow& row = rows[tenant];
    row.tenant = tenant;
    row.in_flight = n > 0;
  }
  const auto mark_retrying = [&](const std::shared_ptr<Submission>& s) {
    if (s->attempts > 0 && s->state != Submission::State::kFinished) {
      TenantHealthRow& row = rows[s->tenant];
      row.tenant = s->tenant;
      row.retrying = true;
    }
  };
  for (const auto& q : queues_) {
    for (const auto& s : q) mark_retrying(s);
  }
  for (const auto& s : active_) mark_retrying(s);
  std::vector<TenantHealthRow> out;
  out.reserve(rows.size());
  for (auto& [id, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const TenantHealthRow& a, const TenantHealthRow& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

trace::Counters Service::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

std::vector<u64> Service::grant_log() const {
  std::lock_guard lk(mu_);
  return grant_log_;
}

}  // namespace selfsched::serve
