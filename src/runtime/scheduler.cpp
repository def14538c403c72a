#include "runtime/scheduler.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "exec/real_context.hpp"
#include "runtime/run_lifecycle.hpp"
#include "runtime/worker.hpp"
#include "sync/barrier.hpp"
#include "vtime/context.hpp"
#include "vtime/engine.hpp"
#include "vtime/schedule_ctrl.hpp"

namespace selfsched::runtime {

RunResult run_vtime(const program::NestedLoopProgram& prog, u32 procs,
                    const SchedOptions& opts) {
  ProgramRun<vtime::VContext> run(prog.tables(), opts, procs);
  vtime::Engine engine(procs);
  const std::unique_ptr<vtime::ScheduleController> ctrl =
      vtime::make_controller(opts.schedule, procs);
  engine.set_schedule_controller(ctrl.get());
  engine.set_record_schedule(opts.record_schedule);
  std::vector<std::vector<exec::PhaseInterval>> timeline(
      opts.phase_timeline ? procs : 0);

  const Cycles makespan = engine.run([&](ProcId id) {
    vtime::VContext ctx(engine, id, opts.costs, opts.phase_timeline);
    ctx.set_trace_sink(&run.rec.sink(id));
    ctx.set_audit_sink(run.auditing.sink);
    ctx.set_fault_plan(opts.fault_plan);
    if (id == 0) seed_program(ctx, run.st);
    worker_loop(ctx, run.st);
    ctx.finish_timeline();
    if (opts.phase_timeline) timeline[id] = ctx.take_timeline();
    run.stats[id] = ctx.stats();
  });

  RunResult pre;
  pre.engine_ops = engine.total_ops();
  pre.schedule_decisions = engine.schedule_decisions();
  pre.schedule_diverged = ctrl != nullptr && ctrl->diverged();
  pre.timeline = std::move(timeline);
  RunResult r = run.finish(procs, makespan, std::move(pre));
  maybe_throw_failure(opts, r);
  return r;
}

RunResult run_threads(const program::NestedLoopProgram& prog, u32 procs,
                      const SchedOptions& opts) {
  exec::ThreadTeam team(procs);
  return run_threads_on(team, prog, opts);
}

RunResult run_threads_on(exec::ThreadTeam& team,
                         const program::NestedLoopProgram& prog,
                         const SchedOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const u32 procs = team.procs();
  ProgramRun<exec::RContext> run(prog.tables(), opts, procs);
  sync::SpinBarrier start_line(procs);
  Clock::time_point start;

  team.run([&](ProcId id) {
    // The makespan window and every worker's phase clock open together,
    // when the last worker reaches the start line.  Spin while the team
    // assembles lies outside the window; a worker that reaches its first
    // phase late is charged kOther for the delay.
    start_line.arrive_and_wait([&] { start = Clock::now(); });
    exec::RContext ctx(id, procs, opts.measure_phases, start);
    ctx.set_trace_sink(&run.rec.sink(id), run.rec.epoch());
    ctx.set_audit_sink(run.auditing.sink);
    ctx.set_fault_plan(opts.fault_plan);
    if (id == 0) seed_program(ctx, run.st);
    worker_loop(ctx, run.st);
    ctx.finish();
    run.stats[id] = ctx.stats();
  });

  const Cycles makespan =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count();
  RunResult r = run.finish(procs, makespan);
  maybe_throw_failure(opts, r);
  return r;
}

}  // namespace selfsched::runtime
