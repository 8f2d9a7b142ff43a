//! The study's session plan and its three measurement protocols, driven
//! from outside through the layers' public calls so that each call can be
//! timed.
//!
//! `fx8_core::experiment` runs the same protocols inside one function per
//! protocol, where no call can be timed from outside. This module repeats
//! those runners call for call — driver construction, `advance_to`, the
//! cache warm-up `Cluster::run`, the DAS acquisitions, `KernelStats`, and
//! `seek_transition` — with a span around each. The traced run then
//! asserts that every session it produces equals the matching session of
//! an untraced study, so the per-phase times are known to come from the
//! same program. If the runners in `fx8_core::experiment` change, that
//! assertion fails until this module follows them.

use crate::spans::{cycles_between, Spans};
use fx8_core::cache::{CachedSession, SessionKind};
use fx8_core::experiment::{Capture, SessionConfig, SessionResult};
use fx8_core::study::StudyConfig;
use fx8_core::Sample;
use fx8_monitor::{DasConfig, DasMonitor, EventCounts, KernelStats, Trigger};
use fx8_sim::audit::AuditReport;
use fx8_sim::cluster::LoadKind;
use fx8_sim::trace::EngineCycles;
use fx8_sim::Cluster;
use fx8_workload::arrival::arrival_times;
use fx8_workload::SessionDriver;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::thread::ThreadId;
use std::time::Instant;

/// One session of a study's plan.
#[derive(Debug, Clone)]
pub struct Task {
    /// Protocol.
    pub kind: SessionKind,
    /// Index within its protocol.
    pub idx: usize,
    /// The session's full configuration.
    pub cfg: SessionConfig,
    /// Capture budget (triggered and transition sessions).
    pub captures: usize,
}

impl Task {
    /// `random 3`, `transition 1`, ...
    pub fn label(&self) -> String {
        format!("{} {}", kind_name(self.kind), self.idx)
    }
}

/// The protocol's name as labels and metric names spell it.
pub fn kind_name(kind: SessionKind) -> &'static str {
    match kind {
        SessionKind::Random => "random",
        SessionKind::Triggered => "triggered",
        SessionKind::Transition => "transition",
    }
}

/// The study's session plan in result order, as `Study::run` builds it:
/// random sessions at `base_seed + i`, triggered at `base_seed + 1000 + i`
/// and transition at `base_seed + 2000 + i`, the last two one hour long.
pub fn plan(study: &StudyConfig) -> Vec<Task> {
    let cfg = |offset: u64, hours: f64| SessionConfig {
        machine: study.machine.clone(),
        mix: study.mix.clone(),
        hours,
        ..SessionConfig::paper(study.base_seed + offset)
    };
    let random = (0..study.n_random).map(|i| Task {
        kind: SessionKind::Random,
        idx: i,
        cfg: cfg(i as u64, study.hours_for_session(i)),
        captures: 0,
    });
    let triggered = (0..study.n_triggered).map(|i| Task {
        kind: SessionKind::Triggered,
        idx: i,
        cfg: cfg(1000 + i as u64, 1.0),
        captures: study.captures_per_triggered,
    });
    let transition = (0..study.n_transition).map(|i| Task {
        kind: SessionKind::Transition,
        idx: i,
        cfg: cfg(2000 + i as u64, 1.0),
        captures: study.captures_per_transition,
    });
    random.chain(triggered).chain(transition).collect()
}

/// The study's longest-first scheduling estimate (it orders work only;
/// results never depend on it).
pub fn weight(t: &Task) -> f64 {
    match t.kind {
        SessionKind::Random => {
            let samples = (t.cfg.hours * 3600.0 / t.cfg.sample_interval_s).max(1.0);
            samples * t.cfg.snapshots_per_sample as f64
        }
        SessionKind::Triggered => 2.0 * t.captures as f64,
        SessionKind::Transition => 4.0 * t.captures as f64,
    }
}

/// What a session produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A random-sampling session.
    Random(SessionResult),
    /// A triggered or transition session's captures and audit report.
    Captures(Vec<Capture>, AuditReport),
}

impl Output {
    /// The session in the cache's entry shape.
    pub fn to_cached(&self) -> CachedSession {
        match self {
            Output::Random(result) => CachedSession::Random {
                result: result.clone(),
            },
            Output::Captures(captures, audit) => CachedSession::Captures {
                captures: captures.clone(),
                audit: audit.clone(),
            },
        }
    }
}

/// A session run with spans around every layer call.
#[derive(Debug)]
pub struct Traced {
    /// The session's output.
    pub out: Output,
    /// Its spans; index 0 is the session itself.
    pub spans: Spans,
    /// The executor thread that ran it.
    pub thread: ThreadId,
    /// DAS acquisitions armed.
    pub attempts: u64,
    /// Acquisitions that captured a buffer.
    pub captures: u64,
    /// Acquisitions that timed out before their trigger fired.
    pub timeouts: u64,
    /// Macro time `advance_to` moved the session forward, in cycles (it
    /// retires no engine cycles itself).
    pub macro_cycles: u64,
    /// The session cluster's engine counters at the end.
    pub cycles: EngineCycles,
}

/// The session being stepped: driver, recorder and tallies.
struct Run {
    driver: SessionDriver,
    spans: Spans,
    attempts: u64,
    captures: u64,
    timeouts: u64,
    macro_cycles: u64,
}

impl Run {
    /// Build the session's driver (`Cluster::new`, arrival schedule,
    /// `SessionDriver::new`) exactly as the study does.
    fn start(cfg: &SessionConfig, epoch: Instant, label: String) -> Run {
        let mut spans = Spans::new(epoch, label);
        let root = spans.open("core.session", None);
        debug_assert_eq!(root, 0);
        let id = spans.open("workload.make_driver", Some(0));
        let mut cluster = Cluster::new(cfg.machine.clone(), cfg.seed);
        cluster.set_ip_intensity(cfg.mix.ip_intensity);
        let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37_79b9));
        let horizon = cfg.machine.seconds_to_cycles(cfg.hours * 3600.0);
        let times = arrival_times(&cfg.mix.profile, horizon, &mut rng);
        let arrivals = times
            .into_iter()
            .map(|t| (t, cfg.mix.sample_program(&mut rng)))
            .collect();
        let driver = SessionDriver::new(cluster, arrivals);
        spans.close(id, Some(driver.cluster().engine_cycles()));
        Run {
            driver,
            spans,
            attempts: 0,
            captures: 0,
            timeouts: 0,
            macro_cycles: 0,
        }
    }

    /// `SessionDriver::advance_to`, tallying the macro time it covers.
    fn advance(&mut self, t: u64) {
        let before = self.driver.now();
        self.call("workload.advance_to", |d| d.advance_to(t));
        self.macro_cycles += self.driver.now() - before;
    }

    /// One layer call on the driver, timed, with the cycles it retired.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SessionDriver) -> T) -> T {
        let before = self.driver.cluster().engine_cycles();
        let id = self.spans.open(name, Some(0));
        let out = f(&mut self.driver);
        self.spans.close(id, None);
        let after = self.driver.cluster().engine_cycles();
        self.spans.spans[id].cycles = Some(cycles_between(&before, &after));
        out
    }

    /// Tally one acquisition's outcome.
    fn acquired<T, E>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempts += 1;
        match r {
            Ok(v) => {
                self.captures += 1;
                Some(v)
            }
            Err(_) => {
                self.timeouts += 1;
                None
            }
        }
    }

    fn finish(mut self, out: Output) -> Traced {
        self.spans.close(0, None);
        Traced {
            out,
            cycles: self.driver.cluster().engine_cycles(),
            spans: self.spans,
            thread: std::thread::current().id(),
            attempts: self.attempts,
            captures: self.captures,
            timeouts: self.timeouts,
            macro_cycles: self.macro_cycles,
        }
    }
}

/// Run one session of the plan with spans around each layer call.
pub fn run(task: &Task, epoch: Instant) -> Traced {
    match task.kind {
        SessionKind::Random => random(&task.cfg, task.idx, epoch),
        SessionKind::Triggered => triggered(&task.cfg, task.idx, task.captures, epoch),
        SessionKind::Transition => transition(&task.cfg, task.idx, task.captures, epoch),
    }
}

/// `fx8_core::experiment::run_random_session`, call for call.
fn random(cfg: &SessionConfig, idx: usize, epoch: Instant) -> Traced {
    let mut run = Run::start(cfg, epoch, format!("random {idx}"));
    let das = DasMonitor::new(DasConfig {
        buffer_depth: cfg.buffer_depth,
        trigger: Trigger::Immediate,
        timeout_cycles: u64::MAX,
    });
    let mut kstats = KernelStats::new(run.driver.cluster());
    let interval = cfg.machine.seconds_to_cycles(cfg.sample_interval_s).max(1);
    let horizon = cfg.machine.seconds_to_cycles(cfg.hours * 3600.0);
    let n_samples = (horizon / interval).max(1);
    let snap_spacing = interval / (cfg.snapshots_per_sample as u64 + 1);
    let mut samples = Vec::with_capacity(n_samples as usize);
    for k in 0..n_samples {
        let t0 = k * interval;
        let mut counts = EventCounts::empty(cfg.machine.n_ces);
        for s in 0..cfg.snapshots_per_sample {
            let t = t0 + (s as u64 + 1) * snap_spacing;
            run.advance(t);
            run.call("sim.run", |d| d.cluster_mut().run(cfg.warmup_cycles));
            let r = run.call("monitor.acquire", |d| {
                das.acquire_reduced_into(d.cluster_mut(), &mut counts)
            });
            run.acquired(r);
        }
        run.advance(t0 + interval);
        let kernel = run.call("monitor.kstats", |d| kstats.interval(d.cluster()));
        samples.push(Sample {
            session: idx,
            at_cycle: t0,
            counts,
            kernel,
        });
    }
    let result = SessionResult {
        session: idx,
        samples,
        jobs_completed: run.driver.completed_jobs(),
        audit: run.driver.cluster().audit_report(),
    };
    run.finish(Output::Random(result))
}

/// `fx8_core::experiment::run_triggered_session`, call for call.
fn triggered(cfg: &SessionConfig, idx: usize, captures: usize, epoch: Instant) -> Traced {
    let mut run = Run::start(cfg, epoch, format!("triggered {idx}"));
    let das = DasMonitor::new(DasConfig {
        buffer_depth: cfg.buffer_depth,
        trigger: Trigger::AllCesActive,
        timeout_cycles: 300_000,
    });
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xfeed);
    let horizon = cfg.machine.seconds_to_cycles(cfg.hours * 3600.0);
    let mut out = Vec::with_capacity(captures);
    let spacing = (horizon / (captures as u64 + 1)).max(1);
    let mut t = spacing;
    let mut probes = 0usize;
    while out.len() < captures && probes < captures * 50 {
        probes += 1;
        run.advance(t);
        t += spacing / 2 + rng.gen_range(0..spacing.max(2) / 2);
        if t > horizon * 4 {
            break;
        }
        if run.driver.cluster().load_kind() != LoadKind::Loop {
            continue;
        }
        run.call("sim.run", |d| d.cluster_mut().run(cfg.warmup_cycles));
        let r = run.call("monitor.acquire", |d| das.acquire_reduced(d.cluster_mut()));
        if let Some(r) = run.acquired(r) {
            out.push(Capture {
                session: idx,
                at_cycle: r.triggered_at,
                counts: r.counts,
            });
        }
    }
    let audit = run.driver.cluster().audit_report();
    run.finish(Output::Captures(out, audit))
}

/// `fx8_core::experiment::run_transition_session`, call for call.
fn transition(cfg: &SessionConfig, idx: usize, captures: usize, epoch: Instant) -> Traced {
    let mut run = Run::start(cfg, epoch, format!("transition {idx}"));
    let das = DasMonitor::new(DasConfig {
        buffer_depth: cfg.buffer_depth,
        trigger: Trigger::TransitionFromFull,
        timeout_cycles: 400_000,
    });
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xdead);
    let mut out = Vec::with_capacity(captures);
    let deadline = cfg.machine.seconds_to_cycles(cfg.hours * 3600.0) * 8;
    let warmup = cfg.warmup_cycles.min(2_048);
    let mut probes = 0usize;
    while out.len() < captures && probes < captures * 50 {
        probes += 1;
        let tail = rng.gen_range(24..64);
        let found = run.call("workload.seek_transition", |d| {
            d.seek_transition(tail, deadline)
        });
        if found.is_none() {
            break;
        }
        run.call("sim.run", |d| d.cluster_mut().run(warmup));
        let r = run.call("monitor.acquire", |d| das.acquire_reduced(d.cluster_mut()));
        if let Some(r) = run.acquired(r) {
            out.push(Capture {
                session: idx,
                at_cycle: r.triggered_at,
                counts: r.counts,
            });
        }
    }
    let audit = run.driver.cluster().audit_report();
    run.finish(Output::Captures(out, audit))
}
