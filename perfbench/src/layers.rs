//! The traced run (`--trace 1`): per-layer numbers, attributed from
//! outside.
//!
//! Every traced run covers every layer, whichever `--workload` it is
//! given (the seed picks the served request sequence):
//!
//! 1. the untraced paper study, through `api::execute`, as in `paper`;
//! 2. the same study's 24 sessions again, driven through the layers'
//!    public calls by [`crate::protocols`] on the stock executor, with a
//!    span around each call. Each session must equal the untraced one
//!    (replica equality), the study assembled from them must have the
//!    same digest, and three partitions must hold: phase self-times sum
//!    to session wall time, per-call engine-cycle deltas sum to the
//!    session's cycles, and executor busy plus idle time is workers times
//!    wall time. The untraced study then runs once more, and tracing
//!    overhead is the traced sessions' summed time over the mean of the
//!    two untraced runs';
//! 3. `report::comparison` and `StudyReport::render` on the paper study;
//! 4. `Cluster::run` on the kernel fixtures of `fx8_bench::throughput`;
//! 5. the quick study's sessions at widths 32 and 64, for capture yield;
//! 6. `SessionCache::{key, lookup, store}` over the sweep's sessions,
//!    cold and warm on disk, checked against `ScaleStudy::run_cached`;
//! 7. `JobRequest::from_json`, warm `api::execute` and result
//!    serialization, then a short closed loop against the server.
//!
//! Spans are kept in memory and written to
//! `.perfbench/spans-<workload>-<seed>.json` at the end.

use crate::measure::{mean, median, secs, tail};
use crate::protocols::{self, kind_name, Output, Task, Traced};
use crate::report::Report;
use crate::spans::Spans;
use crate::{digest, out_dir, paper, serve, sweep, Args};
use fx8_core::api::{self, JobRequest, JobResult, JobSpec};
use fx8_core::cache::SessionKind;
use fx8_core::report::{self as study_report, StudyReport};
use fx8_core::study::StudyConfigBuilder;
use fx8_core::{executor, ScaleStudy, SessionCache, Study, StudyConfig};
use fx8_sim::trace::EngineCycles;
use fx8_sim::{Cluster, MachineConfig};
use fx8_workload::{kernels, WorkloadMix};
use std::collections::HashMap;
use std::thread::ThreadId;
use std::time::Instant;

/// The per-layer metrics every traced run prints, with units.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("sim.kernel.idle_mcps", "Mcycle/s"),
    ("sim.kernel.serial_mcps", "Mcycle/s"),
    ("sim.kernel.loop_mcps", "Mcycle/s"),
    ("sim.kernel.ff_loop_mcps", "Mcycle/s"),
    ("sim.kernel.loop_w32_mcps", "Mcycle/s"),
    ("sim.cycles", "count"),
    ("sim.cycles.scalar", "count"),
    ("sim.cycles.dense", "count"),
    ("sim.cycles.skipped", "count"),
    ("sim.run_ns_per_cycle", "ns"),
    ("workload.advance_s", "s"),
    ("workload.advance_ns_per_cycle", "ns"),
    ("workload.seek_s", "s"),
    ("monitor.acquire_s", "s"),
    ("monitor.acquire_ns_per_cycle", "ns"),
    ("monitor.attempts", "count"),
    ("monitor.captures", "count"),
    ("monitor.timeouts", "count"),
    ("monitor.capture_yield.triggered", "ratio"),
    ("monitor.capture_yield.transition", "ratio"),
    ("monitor.kstats_s", "s"),
    ("monitor.w32.capture_yield.triggered", "ratio"),
    ("monitor.w32.capture_yield.transition", "ratio"),
    ("monitor.w64.attempts", "count"),
    ("monitor.w64.captures", "count"),
    ("monitor.w64.timeouts", "count"),
    ("monitor.w64.capture_yield.triggered", "ratio"),
    ("monitor.w64.capture_yield.transition", "ratio"),
    ("sim.w64.cycles", "count"),
    ("core.session_s.random", "s"),
    ("core.session_s.triggered", "s"),
    ("core.session_s.transition", "s"),
    ("core.w64.session_s.random", "s"),
    ("core.w64.session_s.triggered", "s"),
    ("core.w64.session_s.transition", "s"),
    ("core.session.macro_share", "ratio"),
    ("core.session.warmup_share", "ratio"),
    ("core.session.acquire_share", "ratio"),
    ("core.session.seek_share", "ratio"),
    ("core.session.other_share", "ratio"),
    ("core.executor.busy_s", "s"),
    ("core.executor.idle_s", "s"),
    ("core.executor.efficiency", "ratio"),
    ("core.executor.critical_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.stores", "count"),
    ("core.cache.invalid", "count"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.key_us", "us"),
    ("core.cache.lookup_mem_us", "us"),
    ("core.cache.lookup_disk_us", "us"),
    ("core.cache.store_ms", "ms"),
    ("core.api.parse_us", "us"),
    ("core.api.execute_warm_ms", "ms"),
    ("core.api.result_kb", "KiB"),
    ("core.api.serialize_ms", "ms"),
    ("core.report.comparison_ms", "ms"),
    ("core.report.render_ms", "ms"),
    ("core.report.paper_rel_err", "ratio"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.responses_4xx", "count"),
    ("serve.responses_5xx", "count"),
    ("serve.rejected_busy", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.paper_wall_s", "s"),
    ("bench.replica_wall_s", "s"),
    ("bench.partition_err_ns", "ns"),
    ("bench.workers", "count"),
];

/// Run the traced pass, recording every per-layer metric into `report`.
pub fn run(args: &Args, report: &mut Report) {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, "bench".into());
    if let Err(e) = traced(args, epoch, &mut spans, report) {
        report.check(Err(e));
    }
    let path = out_dir().join(format!("spans-{}-{}.json", args.workload, args.seed));
    match std::fs::write(&path, spans.to_json()) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            spans.spans.len(),
            path.display()
        ),
        Err(e) => report.check(Err(format!("writing {}: {e}", path.display()))),
    }
}

fn traced(
    args: &Args,
    epoch: Instant,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    // 1. The untraced study: the reference the replica must equal.
    let req = paper::request()?;
    let untraced = paper::execute(&req)?;
    report.check(paper::check(&untraced));
    println!(
        "trace: untraced paper study {:.3} s, digest {}",
        untraced.wall_s, untraced.digest
    );

    // 2. The replica, traced, on the stock executor.
    let JobSpec::Study { config: cfg } = req.job.clone() else {
        return Err("the paper request is a study".into());
    };
    let tasks = protocols::plan(&cfg);
    let replica = run_plan(&tasks, epoch);
    report.check(replica_equal(&untraced.study, &tasks, &replica.traced));
    let study = assemble(cfg, &tasks, &replica.traced);
    let comparison = study_report::comparison(&study);
    let replica_digest = digest(
        &serde_json::to_string(&JobResult::Study { study, comparison })
            .expect("job results serialize"),
    );
    println!(
        "trace: traced replica {:.3} s, digest {replica_digest}",
        replica.wall_s()
    );
    report.check(if replica_digest == untraced.digest {
        Ok(())
    } else {
        Err(format!(
            "replica digest {replica_digest} differs from the untraced {}",
            untraced.digest
        ))
    });
    let partition_err = partition_sessions(&replica.traced);
    report.check(partition_err.clone().map(|_| ()));
    let pooled = untraced.obs.pooled_engine();
    let cycles = replica.cycles();
    report.check(if cycles == pooled {
        Ok(())
    } else {
        Err(format!(
            "replica cycles {cycles:?} differ from the study's {pooled:?}"
        ))
    });
    let exec = replica.executor();
    report.check(exec.check.clone());
    // The untraced study again, so tracing overhead is judged against
    // untraced runs on both sides of the traced one.
    let again = paper::execute(&req)?;
    report.check(if again.digest == untraced.digest {
        Ok(())
    } else {
        Err("the paper study's digest changed between two untraced runs".into())
    });
    session_metrics(report, &tasks, &replica, &cycles);
    report.metric("core.executor.busy_s", "s", exec.busy_s);
    report.metric("core.executor.idle_s", "s", exec.idle_s);
    report.metric(
        "core.executor.efficiency",
        "ratio",
        exec.busy_s / (exec.busy_s + exec.idle_s),
    );
    report.metric("core.executor.critical_s", "s", exec.critical_s);
    let session_sum = |r: &paper::PaperRun| r.obs.sessions.iter().map(|s| s.wall_s).sum::<f64>();
    let untraced_sum = (session_sum(&untraced) + session_sum(&again)) / 2.0;
    report.metric(
        "bench.trace_overhead_frac",
        "ratio",
        exec.busy_s / untraced_sum - 1.0,
    );
    report.metric(
        "bench.paper_wall_s",
        "s",
        (untraced.wall_s + again.wall_s) / 2.0,
    );
    report.metric("bench.replica_wall_s", "s", replica.wall_s());
    report.metric("bench.partition_err_ns", "ns", partition_err.unwrap_or(0.0));
    report.metric("bench.workers", "count", replica.workers as f64);

    // 3. Analysis and report, on the untraced study.
    let root = spans.open("core.report", None);
    let (mut comparison_s, mut render_s, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let (r, s) = spans.timed("core.report.comparison", Some(root), || {
            study_report::comparison(&untraced.study)
        });
        comparison_s.push(s);
        rows = r;
        let (_, s) = spans.timed("core.report.render", Some(root), || {
            StudyReport::new(&untraced.study, untraced.obs.clone()).render()
        });
        render_s.push(s);
    }
    spans.close(root, None);
    report.metric(
        "core.report.comparison_ms",
        "ms",
        median(&comparison_s) * 1e3,
    );
    report.metric("core.report.render_ms", "ms", median(&render_s) * 1e3);
    report.metric("core.report.paper_rel_err", "ratio", paper::rel_err(&rows));
    for t in replica.traced {
        spans.extend(t.spans);
    }

    // 4. Engine kernels.
    kernel_metrics(report, spans);

    // 5. Wide clusters: capture yield at widths 32 and 64.
    wide_metrics(epoch, report, spans)?;

    // 6. The session cache.
    cache_metrics(epoch, report, spans)?;

    // 7. The job API and the server.
    api_and_serve_metrics(args.seed, report, spans)?;
    Ok(())
}

/// A plan run on the stock executor, traced.
struct PlanRun {
    traced: Vec<Traced>,
    start_ns: u64,
    end_ns: u64,
    workers: usize,
}

fn run_plan(tasks: &[Task], epoch: Instant) -> PlanRun {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let traced =
        executor::run_longest_first(tasks, protocols::weight, |t| protocols::run(t, epoch), true);
    PlanRun {
        traced,
        start_ns,
        end_ns: epoch.elapsed().as_nanos() as u64,
        // The executor's pool: the host's parallelism, capped by the tasks.
        workers: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(tasks.len()),
    }
}

/// Executor accounting from the sessions' spans.
struct ExecStats {
    busy_s: f64,
    idle_s: f64,
    critical_s: f64,
    check: Result<(), String>,
}

impl PlanRun {
    fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    fn cycles(&self) -> EngineCycles {
        let mut total = EngineCycles::default();
        for t in &self.traced {
            total.add(&t.cycles);
        }
        total
    }

    /// Busy time is the summed session spans; each worker's idle time is
    /// the executor's wall time minus that worker's busy time. The check:
    /// no more threads than workers ran sessions, every session span lies
    /// within the executor call, and busy + idle == workers × wall.
    fn executor(&self) -> ExecStats {
        let mut per_thread: HashMap<ThreadId, f64> = HashMap::new();
        let mut escaped = None;
        for t in &self.traced {
            let root = &t.spans.spans[0];
            *per_thread.entry(t.thread).or_default() += root.secs();
            if root.start_ns < self.start_ns || root.end_ns > self.end_ns {
                escaped = Some(t.spans.spans[0].track.clone());
            }
        }
        let wall = self.wall_s();
        let busy_s: f64 = per_thread.values().sum();
        let idle_s = per_thread.values().map(|b| wall - b).sum::<f64>()
            + (self.workers.saturating_sub(per_thread.len())) as f64 * wall;
        let critical_s = self
            .traced
            .iter()
            .map(|t| t.spans.spans[0].secs())
            .fold(0.0, f64::max);
        let target = self.workers as f64 * wall;
        let check = if per_thread.len() > self.workers {
            Err(format!(
                "{} threads ran sessions on a {}-worker pool",
                per_thread.len(),
                self.workers
            ))
        } else if let Some(label) = escaped {
            Err(format!("session {label} ran outside the executor call"))
        } else if ((busy_s + idle_s) - target).abs() > 1e-9 * target.max(1.0) {
            Err(format!(
                "busy {busy_s} + idle {idle_s} != workers × wall {target}"
            ))
        } else {
            Ok(())
        };
        ExecStats {
            busy_s,
            idle_s,
            critical_s,
            check,
        }
    }
}

/// Each replica session equals the untraced study's matching session.
fn replica_equal(study: &Study, tasks: &[Task], traced: &[Traced]) -> Result<(), String> {
    for (task, t) in tasks.iter().zip(traced) {
        let i = task.idx;
        let same = match (task.kind, &t.out) {
            (SessionKind::Random, Output::Random(r)) => study.random_sessions.get(i) == Some(r),
            (SessionKind::Triggered, Output::Captures(c, a)) => {
                study.triggered.get(i) == Some(c) && study.triggered_audits.get(i) == Some(a)
            }
            (SessionKind::Transition, Output::Captures(c, a)) => {
                study.transitions.get(i) == Some(c) && study.transition_audits.get(i) == Some(a)
            }
            _ => false,
        };
        if !same {
            return Err(format!(
                "replica session {} differs from the study's: the protocols in \
                 perfbench/src/protocols.rs no longer match fx8_core::experiment",
                task.label()
            ));
        }
    }
    Ok(())
}

/// The study the replica's sessions make, assembled as `Study::run` does.
fn assemble(config: StudyConfig, tasks: &[Task], traced: &[Traced]) -> Study {
    let mut study = Study {
        random_sessions: Vec::new(),
        triggered: vec![Vec::new(); config.n_triggered],
        transitions: vec![Vec::new(); config.n_transition],
        triggered_audits: vec![Default::default(); config.n_triggered],
        transition_audits: vec![Default::default(); config.n_transition],
        config,
    };
    for (task, t) in tasks.iter().zip(traced) {
        match (&t.out, task.kind) {
            (Output::Random(r), _) => study.random_sessions.push(r.clone()),
            (Output::Captures(c, a), SessionKind::Triggered) => {
                study.triggered[task.idx] = c.clone();
                study.triggered_audits[task.idx] = a.clone();
            }
            (Output::Captures(c, a), _) => {
                study.transitions[task.idx] = c.clone();
                study.transition_audits[task.idx] = a.clone();
            }
        }
    }
    study
}

/// The two per-session partitions: children plus self time equal the
/// session's wall time, and the calls' engine-cycle deltas (each itself
/// consistent) sum to the session's cycles. Returns the largest time
/// residual in nanoseconds.
fn partition_sessions(traced: &[Traced]) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for t in traced {
        let s = &t.spans;
        let label = &s.spans[0].track;
        s.check_nesting().map_err(|e| format!("{label}: {e}"))?;
        let mut kids = 0.0;
        let mut cycles = EngineCycles::default();
        for c in s.children(0) {
            kids += s.spans[c].secs();
            let cy = s.spans[c]
                .cycles
                .ok_or_else(|| format!("{label}: call {} has no cycle delta", s.spans[c].name))?;
            if !cy.consistent() {
                return Err(format!(
                    "{label}: {} cycles {cy:?} are inconsistent",
                    s.spans[c].name
                ));
            }
            cycles.add(&cy);
        }
        let residual = (kids + s.self_secs(0) - s.spans[0].secs()).abs();
        worst = worst.max(residual * 1e9);
        if residual > 1e-9 * s.spans.len() as f64 {
            return Err(format!(
                "{label}: phase times miss the wall by {residual} s"
            ));
        }
        if cycles != t.cycles {
            return Err(format!(
                "{label}: call cycles {cycles:?} do not partition the session's {:?}",
                t.cycles
            ));
        }
    }
    Ok(worst)
}

/// Time and cycles per call name over a set of sessions.
fn by_call(traced: &[Traced]) -> HashMap<&'static str, (f64, u64)> {
    let mut out: HashMap<&'static str, (f64, u64)> = HashMap::new();
    for t in traced {
        for c in t.spans.children(0) {
            let s = &t.spans.spans[c];
            let e = out.entry(s.name).or_default();
            e.0 += s.secs();
            e.1 += s.cycles.map_or(0, |c| c.total);
        }
    }
    out
}

/// Sum of a tally over the sessions of one kind.
fn tally(traced: &[Traced], tasks: &[Task], kind: SessionKind, f: impl Fn(&Traced) -> u64) -> u64 {
    tasks
        .iter()
        .zip(traced)
        .filter(|(task, _)| task.kind == kind)
        .map(|(_, t)| f(t))
        .sum()
}

/// Captures per armed acquisition for one protocol (0 when none armed).
fn capture_yield(traced: &[Traced], tasks: &[Task], kind: SessionKind) -> f64 {
    let attempts = tally(traced, tasks, kind, |t| t.attempts);
    let captures = tally(traced, tasks, kind, |t| t.captures);
    if attempts == 0 {
        0.0
    } else {
        captures as f64 / attempts as f64
    }
}

/// Mean session wall time of one protocol.
fn session_s(traced: &[Traced], tasks: &[Task], kind: SessionKind) -> f64 {
    let walls: Vec<f64> = tasks
        .iter()
        .zip(traced)
        .filter(|(task, _)| task.kind == kind)
        .map(|(_, t)| t.spans.spans[0].secs())
        .collect();
    mean(&walls)
}

const KINDS: [SessionKind; 3] = [
    SessionKind::Random,
    SessionKind::Triggered,
    SessionKind::Transition,
];

fn session_metrics(report: &mut Report, tasks: &[Task], replica: &PlanRun, cycles: &EngineCycles) {
    let traced = &replica.traced;
    let calls = by_call(traced);
    let call = |name: &str| calls.get(name).copied().unwrap_or((0.0, 0));
    let per_cycle = |name: &str| {
        let (s, c) = call(name);
        if c == 0 {
            0.0
        } else {
            s * 1e9 / c as f64
        }
    };
    report.metric("sim.cycles", "count", cycles.total as f64);
    report.metric("sim.cycles.scalar", "count", cycles.scalar as f64);
    report.metric("sim.cycles.dense", "count", cycles.dense as f64);
    report.metric("sim.cycles.skipped", "count", cycles.skipped as f64);
    report.metric("sim.run_ns_per_cycle", "ns", per_cycle("sim.run"));
    report.metric("workload.advance_s", "s", call("workload.advance_to").0);
    let macro_cycles: u64 = traced.iter().map(|t| t.macro_cycles).sum();
    report.metric(
        "workload.advance_ns_per_cycle",
        "ns",
        call("workload.advance_to").0 * 1e9 / macro_cycles.max(1) as f64,
    );
    report.metric("workload.seek_s", "s", call("workload.seek_transition").0);
    report.metric("monitor.acquire_s", "s", call("monitor.acquire").0);
    report.metric(
        "monitor.acquire_ns_per_cycle",
        "ns",
        per_cycle("monitor.acquire"),
    );
    report.metric("monitor.kstats_s", "s", call("monitor.kstats").0);
    let sum = |f: fn(&Traced) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    report.metric("monitor.attempts", "count", sum(|t| t.attempts));
    report.metric("monitor.captures", "count", sum(|t| t.captures));
    report.metric("monitor.timeouts", "count", sum(|t| t.timeouts));
    for kind in [SessionKind::Triggered, SessionKind::Transition] {
        report.metric(
            &format!("monitor.capture_yield.{}", kind_name(kind)),
            "ratio",
            capture_yield(traced, tasks, kind),
        );
    }
    for kind in KINDS {
        report.metric(
            &format!("core.session_s.{}", kind_name(kind)),
            "s",
            session_s(traced, tasks, kind),
        );
    }
    // Shares of summed session wall time; "other" is everything outside
    // the four phases: driver construction, KernelStats and the session's
    // own self time.
    let wall: f64 = traced.iter().map(|t| t.spans.spans[0].secs()).sum();
    let own: f64 = traced.iter().map(|t| t.spans.self_secs(0)).sum();
    let shares = [
        ("core.session.macro_share", call("workload.advance_to").0),
        ("core.session.warmup_share", call("sim.run").0),
        ("core.session.acquire_share", call("monitor.acquire").0),
        (
            "core.session.seek_share",
            call("workload.seek_transition").0,
        ),
        (
            "core.session.other_share",
            own + call("workload.make_driver").0 + call("monitor.kstats").0,
        ),
    ];
    let total: f64 = shares.iter().map(|(_, s)| s / wall).sum();
    report.check(if (total - 1.0).abs() < 1e-6 {
        Ok(())
    } else {
        Err(format!("session phase shares sum to {total}, not 1"))
    });
    for (name, s) in shares {
        report.metric(name, "ratio", s / wall);
    }
}

/// Median `Cluster::run` rate over timed windows of at least 20 ms each.
fn kernel_mcps(name: &'static str, mut c: Cluster, spans: &mut Spans) -> f64 {
    let mut chunk = 100_000u64;
    c.run(chunk);
    loop {
        let t = Instant::now();
        c.run(chunk);
        if secs(t) >= 0.02 || chunk >= 1 << 40 {
            break;
        }
        chunk *= 2;
    }
    let root = spans.open(name, None);
    let mut rates = Vec::new();
    for _ in 0..7 {
        let before = c.engine_cycles();
        let id = spans.open("sim.run", Some(root));
        let t = Instant::now();
        c.run(chunk);
        let dt = secs(t);
        let after = c.engine_cycles();
        spans.close(id, Some(crate::spans::cycles_between(&before, &after)));
        rates.push((after.total - before.total) as f64 / dt / 1e6);
    }
    spans.close(root, None);
    median(&rates)
}

/// `fx8_bench::throughput::loop_cluster`, built on a 32-CE machine.
fn loop_cluster_w32(seed: u64) -> Cluster {
    let mut c = Cluster::new(MachineConfig::scaled(32), seed);
    c.set_ip_intensity(WorkloadMix::csrd_production().ip_intensity);
    c.mount_loop(
        kernels::sor_sweep(1026).instantiate(1),
        0,
        1_000_000_000,
        kernels::glue_serial().instantiate(1),
        1,
    );
    c.run(20_000);
    c
}

fn kernel_metrics(report: &mut Report, spans: &mut Spans) {
    use fx8_bench::throughput::{idle_cluster, join_wait_cluster, loop_cluster, serial_cluster};
    let fixtures: [(&str, &'static str, Cluster); 5] = [
        ("sim.kernel.idle_mcps", "sim.kernel.idle", idle_cluster(1)),
        (
            "sim.kernel.serial_mcps",
            "sim.kernel.serial",
            serial_cluster(2),
        ),
        ("sim.kernel.loop_mcps", "sim.kernel.loop", loop_cluster(3)),
        (
            "sim.kernel.ff_loop_mcps",
            "sim.kernel.ff_loop",
            join_wait_cluster(4),
        ),
        (
            "sim.kernel.loop_w32_mcps",
            "sim.kernel.loop_w32",
            loop_cluster_w32(3),
        ),
    ];
    for (metric, span, cluster) in fixtures {
        report.metric(metric, "Mcycle/s", kernel_mcps(span, cluster, spans));
    }
}

/// The quick study's plan at one cluster width.
fn quick_plan(width: usize) -> Result<Vec<Task>, String> {
    let cfg = StudyConfigBuilder::from_config(StudyConfig::quick())
        .machine(MachineConfig::scaled(width))
        .build()
        .map_err(|e| e.to_string())?;
    Ok(protocols::plan(&cfg))
}

fn wide_metrics(epoch: Instant, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    for width in [32usize, 64] {
        let tasks = quick_plan(width)?;
        let run = run_plan(&tasks, epoch);
        for (task, t) in tasks.iter().zip(&run.traced) {
            println!(
                "trace: w{width} {:<13} {:>7.3} s {:>11} cycles {}/{} captures ({} armed, {} timed out)",
                task.label(),
                t.spans.spans[0].secs(),
                t.cycles.total,
                t.captures,
                task.captures,
                t.attempts,
                t.timeouts
            );
        }
        let w = format!("w{width}");
        for kind in [SessionKind::Triggered, SessionKind::Transition] {
            report.metric(
                &format!("monitor.{w}.capture_yield.{}", kind_name(kind)),
                "ratio",
                capture_yield(&run.traced, &tasks, kind),
            );
        }
        if width == 64 {
            let sum = |f: fn(&Traced) -> u64| run.traced.iter().map(f).sum::<u64>() as f64;
            report.metric("monitor.w64.attempts", "count", sum(|t| t.attempts));
            report.metric("monitor.w64.captures", "count", sum(|t| t.captures));
            report.metric("monitor.w64.timeouts", "count", sum(|t| t.timeouts));
            report.metric("sim.w64.cycles", "count", run.cycles().total as f64);
            for kind in KINDS {
                report.metric(
                    &format!("core.w64.session_s.{}", kind_name(kind)),
                    "s",
                    session_s(&run.traced, &tasks, kind),
                );
            }
        }
        for mut t in run.traced {
            for s in &mut t.spans.spans {
                s.track = format!("{w} {}", s.track);
            }
            spans.extend(t.spans);
        }
    }
    Ok(())
}

/// One session of the traced cache pass's cold half.
struct ColdEntry {
    key: fx8_sim::fingerprint::Fingerprint,
    entry: fx8_core::cache::CachedSession,
    missed: bool,
    key_s: f64,
    store_s: f64,
    spans: Spans,
}

/// `SessionCache::{key, lookup, store}` around the sweep's 35 sessions:
/// a cold pass on a fresh directory (key, miss, compute, store), a warm
/// pass through a new cache on the same directory (disk loads), then the
/// same lookups again (in-memory hits). The real `ScaleStudy::run_cached`
/// must then hit every entry this pass stored and return the same curves
/// as an uncached sweep.
fn cache_metrics(epoch: Instant, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let cfg = sweep::config();
    let mut tasks = Vec::new();
    for &w in &cfg.widths {
        tasks.extend(quick_plan(w)?);
    }
    let dir = sweep::fresh_dir("trace-cache", 0);
    let cold = SessionCache::at_dir(&dir);
    let cold_runs = executor::run_longest_first(
        &tasks,
        protocols::weight,
        |t| {
            let label = format!("cache w{} {}", t.cfg.machine.n_ces, t.label());
            let mut s = Spans::new(epoch, label);
            let root = s.open("core.cache.session", None);
            let (key, key_s) = s.timed("core.cache.key", Some(root), || {
                cold.key(t.kind, &t.cfg, t.idx, t.captures)
            });
            let (hit, _) = s.timed("core.cache.lookup", Some(root), || cold.lookup(&key));
            let (entry, _) = s.timed("core.session", Some(root), || {
                protocols::run(t, epoch).out.to_cached()
            });
            let ((), store_s) =
                s.timed("core.cache.store", Some(root), || cold.store(&key, &entry));
            s.close(root, None);
            ColdEntry {
                key,
                entry,
                missed: hit.is_none(),
                key_s,
                store_s,
                spans: s,
            }
        },
        true,
    );
    let warm = SessionCache::at_dir(&dir);
    let mut key_s: Vec<f64> = cold_runs.iter().map(|c| c.key_s).collect();
    let store_s: Vec<f64> = cold_runs.iter().map(|c| c.store_s).collect();
    let (mut disk_s, mut mem_s) = (Vec::new(), Vec::new());
    let mut loaded_ok = cold_runs.iter().all(|c| c.missed);
    let root = spans.open("core.cache.warm", None);
    for (t, c) in tasks.iter().zip(&cold_runs) {
        let (k, s) = spans.timed("core.cache.key", Some(root), || {
            warm.key(t.kind, &t.cfg, t.idx, t.captures)
        });
        key_s.push(s);
        let (hit, s) = spans.timed("core.cache.lookup", Some(root), || warm.lookup(&k));
        disk_s.push(s);
        loaded_ok &= k == c.key && hit.as_ref() == Some(&c.entry);
    }
    let (c, w) = (cold.stats(), warm.stats());
    for c in &cold_runs {
        let (hit, s) = spans.timed("core.cache.lookup", Some(root), || warm.lookup(&c.key));
        mem_s.push(s);
        loaded_ok &= hit.is_some();
    }
    spans.close(root, None);
    for c in cold_runs {
        spans.extend(c.spans);
    }
    report.check(if loaded_ok {
        Ok(())
    } else {
        Err("a stored session did not load back from disk unchanged".into())
    });
    // The real sweep over the entries this pass stored.
    let real = SessionCache::at_dir(&dir);
    let (cached, stats) = ScaleStudy::run_cached(&cfg, Some(&real)).map_err(|e| e.to_string())?;
    let (fresh, _) = ScaleStudy::run_cached(&cfg, None).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    let n = tasks.len() as u64;
    report.check(
        if stats.cache.hits == n && stats.cache.misses == 0 && cached == fresh {
            Ok(())
        } else {
            Err(format!(
                "ScaleStudy::run_cached over the traced pass's entries: {:?}, curves equal: {}",
                stats.cache,
                cached == fresh
            ))
        },
    );
    let hits = c.hits + w.hits;
    let lookups = hits + c.misses + w.misses;
    report.metric("core.cache.hits", "count", hits as f64);
    report.metric("core.cache.misses", "count", (c.misses + w.misses) as f64);
    report.metric("core.cache.stores", "count", (c.stores + w.stores) as f64);
    report.metric(
        "core.cache.invalid",
        "count",
        (c.invalid_entries + w.invalid_entries) as f64,
    );
    report.metric(
        "core.cache.hit_rate",
        "ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    report.metric("core.cache.key_us", "us", median(&key_s) * 1e6);
    report.metric("core.cache.lookup_mem_us", "us", median(&mem_s) * 1e6);
    report.metric("core.cache.lookup_disk_us", "us", median(&disk_s) * 1e6);
    report.metric("core.cache.store_ms", "ms", median(&store_s) * 1e3);
    Ok(())
}

/// Requests each closed-loop client sends through the server.
const PROBE_REQUESTS: usize = 200;

/// Warm calls timed per body.
const API_REPEATS: usize = 20;

fn api_and_serve_metrics(seed: u64, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let bodies = serve::bodies();
    let root = spans.open("core.api", None);
    let mut parse_s = Vec::new();
    for _ in 0..50 {
        for b in &bodies {
            let (r, s) = spans.timed("core.api.from_json", Some(root), || {
                JobRequest::from_json(b)
            });
            parse_s.push(s);
            r.map_err(|e| e.to_string())?;
        }
    }
    // Populate one cache with every body (in-process, so these results
    // are also the bytes the server must serve), then time warm calls.
    let cache = SessionCache::in_memory();
    let mut expected = Vec::new();
    let (mut exec_ms, mut ser_ms, mut kb) = (Vec::new(), Vec::new(), Vec::new());
    for b in &bodies {
        let req = JobRequest::from_json(b).map_err(|e| e.to_string())?;
        let (first, _) = spans.timed("core.api.execute", Some(root), || {
            api::execute(&req, Some(&cache))
        });
        let first = first.map_err(|e| e.to_string())?;
        expected.push(serde_json::to_string(&first.result).expect("job results serialize"));
        let (mut warm_s, mut json_s) = (Vec::new(), Vec::new());
        for _ in 0..API_REPEATS {
            let (r, s) = spans.timed("core.api.execute", Some(root), || {
                api::execute(&req, Some(&cache))
            });
            warm_s.push(s);
            let outcome = r.map_err(|e| e.to_string())?;
            let (json, s) = spans.timed("core.api.serialize", Some(root), || {
                serde_json::to_string(&outcome.result).expect("job results serialize")
            });
            json_s.push(s);
            kb.push(json.len() as f64 / 1024.0);
        }
        exec_ms.push(median(&warm_s) * 1e3);
        ser_ms.push(median(&json_s) * 1e3);
    }
    spans.close(root, None);
    report.metric("core.api.parse_us", "us", median(&parse_s) * 1e6);
    // Bodies are picked uniformly, so the mean over bodies is the
    // expected per-request cost.
    let execute_warm_ms = mean(&exec_ms);
    report.metric("core.api.execute_warm_ms", "ms", execute_warm_ms);
    report.metric("core.api.serialize_ms", "ms", mean(&ser_ms));
    report.metric("core.api.result_kb", "KiB", mean(&kb));

    let live = serve::Live::start(&bodies)?;
    let outcome = (|| {
        let before = serve::counters(live.addr)?;
        let stats = serve::closed_loop(live.addr, &bodies, &expected, seed, PROBE_REQUESTS);
        let after = serve::counters(live.addr)?;
        Ok::<_, String>((stats, before, after))
    })();
    live.stop();
    let (stats, before, after) = outcome?;
    report.check(
        if stats.failed == 0 && after.cache_misses == before.cache_misses {
            Ok(())
        } else {
            Err(format!(
                "{} of {} probe requests failed, {} cache misses",
                stats.failed,
                stats.attempted,
                after.cache_misses - before.cache_misses
            ))
        },
    );
    if stats.latency_ms.is_empty() {
        return Err("no probe request completed".into());
    }
    let p50 = median(&stats.latency_ms);
    report.metric("serve.p50_ms", "ms", p50);
    report.metric("serve.p99_ms", "ms", tail(&stats.latency_ms).0);
    report.metric("serve.submit_ms", "ms", median(&stats.submit_ms));
    report.metric("serve.wait_ms", "ms", median(&stats.wait_ms));
    report.metric("serve.polls_per_job", "count", mean(&stats.polls));
    report.metric("serve.overhead_ms", "ms", p50 - execute_warm_ms);
    report.metric(
        "serve.responses_4xx",
        "count",
        (after.responses_4xx - before.responses_4xx) as f64,
    );
    report.metric(
        "serve.responses_5xx",
        "count",
        (after.responses_5xx - before.responses_5xx) as f64,
    );
    report.metric(
        "serve.rejected_busy",
        "count",
        (after.rejected_busy - before.rejected_busy) as f64,
    );
    Ok(())
}
