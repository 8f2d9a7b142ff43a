//! The complete study.
//!
//! § 3.5: nine random-sampling sessions on seven midweek days, ten
//! all-active-triggered sessions, and five transition-triggered sessions.
//! Sessions are independent measurements (different days, different
//! seeds), so the study runs them in parallel with scoped threads — the
//! results are bit-identical to a serial run.

use crate::api::{Cancelled, RunHooks};
use crate::cache::{CacheStats, CachedSession, SessionCache, SessionKind};
use crate::executor;
use crate::experiment::{
    run_random_session, run_transition_session, run_triggered_session, Capture, SessionConfig,
    SessionResult,
};
use crate::observability::{SessionObservability, StudyObservability};
use crate::sample::Sample;
use fx8_monitor::EventCounts;
use fx8_sim::audit::{AuditReport, Violation};
use fx8_sim::{ConfigError, MachineConfig};
use fx8_stats::measures::ConcurrencyMeasures;
use fx8_workload::WorkloadMix;
use serde::{Deserialize, Serialize};

/// Session length used when [`StudyConfig::session_hours`] is empty: the
/// paper's typical session ("each session lasted between four and eight
/// hours"; six is the study's midpoint and modal length).
pub const DEFAULT_SESSION_HOURS: f64 = 6.0;

/// Configuration of the whole study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Machine configuration shared by all sessions.
    pub machine: MachineConfig,
    /// Workload mix shared by all sessions.
    pub mix: WorkloadMix,
    /// Number of random-sampling sessions (9 in the study).
    pub n_random: usize,
    /// Random-session lengths in hours, cycled across sessions
    /// ("each session lasted between four and eight hours").
    pub session_hours: Vec<f64>,
    /// Number of all-active-triggered sessions (10 in the study).
    pub n_triggered: usize,
    /// Buffers captured per triggered session.
    pub captures_per_triggered: usize,
    /// Number of transition-triggered sessions (5 in the study).
    pub n_transition: usize,
    /// Buffers captured per transition session.
    pub captures_per_transition: usize,
    /// Base RNG seed; session `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Run sessions on parallel threads.
    pub parallel: bool,
}

impl StudyConfig {
    /// The study at paper scale.
    pub fn paper() -> Self {
        StudyConfig {
            machine: MachineConfig::fx8(),
            mix: WorkloadMix::csrd_production(),
            n_random: 9,
            session_hours: vec![4.0, 5.0, 6.0, 8.0, 4.5, 7.0, 5.5, 6.5, 6.0],
            n_triggered: 10,
            captures_per_triggered: 40,
            n_transition: 5,
            captures_per_transition: 40,
            base_seed: 1987,
            parallel: true,
        }
    }

    /// A scaled-down study for tests and examples (minutes, not hours).
    pub fn quick() -> Self {
        StudyConfig {
            n_random: 3,
            session_hours: vec![0.35, 0.35, 0.35],
            n_triggered: 2,
            captures_per_triggered: 6,
            n_transition: 2,
            captures_per_transition: 6,
            ..StudyConfig::paper()
        }
    }

    /// Length of random session `i`: the configured hours cycled across
    /// sessions, or [`DEFAULT_SESSION_HOURS`] when none were given. An
    /// empty `session_hours` used to panic in [`Study::run`] with an
    /// index-out-of-bounds on `session_hours[0]`.
    pub fn hours_for_session(&self, i: usize) -> f64 {
        self.session_hours
            .get(i % self.session_hours.len().max(1))
            .copied()
            .unwrap_or(DEFAULT_SESSION_HOURS)
    }

    /// Reject configurations the study cannot run: every session length
    /// must be a finite non-negative number of hours, and the per-session
    /// configuration they produce must itself validate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (i, &h) in self.session_hours.iter().enumerate() {
            if !h.is_finite() || h < 0.0 {
                return Err(ConfigError::out_of_range(
                    "session_hours",
                    format!("{h} (index {i})"),
                    "expected a finite non-negative number of hours",
                ));
            }
        }
        self.session_cfg(0, DEFAULT_SESSION_HOURS).validate()
    }

    /// Start a builder seeded with the paper-scale configuration.
    pub fn builder() -> StudyConfigBuilder {
        StudyConfigBuilder::paper()
    }

    fn session_cfg(&self, seed_offset: u64, hours: f64) -> SessionConfig {
        SessionConfig {
            machine: self.machine.clone(),
            mix: self.mix.clone(),
            hours,
            ..SessionConfig::paper(self.base_seed + seed_offset)
        }
    }

    /// The study's full session plan, in result order: random sessions
    /// first, then triggered, then transition. This is the unit the
    /// executor schedules and the cache keys.
    fn session_tasks(&self) -> Vec<SessionTask> {
        let mut tasks = Vec::new();
        for i in 0..self.n_random {
            let hours = self.hours_for_session(i);
            tasks.push(SessionTask {
                kind: SessionKind::Random,
                idx: i,
                cfg: self.session_cfg(i as u64, hours),
                captures: 0,
            });
        }
        for i in 0..self.n_triggered {
            tasks.push(SessionTask {
                kind: SessionKind::Triggered,
                idx: i,
                cfg: self.session_cfg(1000 + i as u64, 1.0),
                captures: self.captures_per_triggered,
            });
        }
        for i in 0..self.n_transition {
            tasks.push(SessionTask {
                kind: SessionKind::Transition,
                idx: i,
                cfg: self.session_cfg(2000 + i as u64, 1.0),
                captures: self.captures_per_transition,
            });
        }
        tasks
    }
}

/// One schedulable session of a study: the protocol, the session's index
/// within that protocol, its full config, and (for triggered kinds) the
/// capture budget. The cache key is derived from exactly these fields.
struct SessionTask {
    kind: SessionKind,
    idx: usize,
    cfg: SessionConfig,
    captures: usize,
}

/// One finished session, cache-transparent: the study assembles these
/// identically whether they were computed or loaded.
enum SessionOut {
    Random {
        idx: usize,
        result: SessionResult,
        obs: SessionObservability,
    },
    Triggered {
        idx: usize,
        captures: Vec<Capture>,
        audit: AuditReport,
        obs: SessionObservability,
    },
    Transition {
        idx: usize,
        captures: Vec<Capture>,
        audit: AuditReport,
        obs: SessionObservability,
    },
}

impl SessionTask {
    /// Estimated session cost, for longest-task-first scheduling. Random
    /// sessions simulate one 512-record buffer per snapshot; triggered
    /// and transition captures pay an extra trigger-seek on top of each
    /// buffer (transitions seek much longer for a falling edge). Only
    /// wall time depends on this estimate — results are keyed by task
    /// index and each task owns its seeds, so order never changes output.
    fn weight(&self) -> f64 {
        match self.kind {
            SessionKind::Random => {
                let samples = (self.cfg.hours * 3600.0 / self.cfg.sample_interval_s).max(1.0);
                samples * self.cfg.snapshots_per_sample as f64
            }
            SessionKind::Triggered => 2.0 * self.captures as f64,
            SessionKind::Transition => 4.0 * self.captures as f64,
        }
    }

    fn label(&self) -> String {
        format!(
            "{} {}",
            match self.kind {
                SessionKind::Random => "random",
                SessionKind::Triggered => "triggered",
                SessionKind::Transition => "transition",
            },
            self.idx
        )
    }

    /// Run the session, consulting the cache first when one is given. A
    /// hit returns the memoized output bit-identical to a fresh run,
    /// under an observability slice flagged `cache_hit` (empty metrics:
    /// no cycles were stepped). A miss computes, stores, and returns.
    fn run(&self, cache: Option<&SessionCache>) -> SessionOut {
        let Some(cache) = cache else {
            return self.compute();
        };
        let started = std::time::Instant::now();
        let key = cache.key(self.kind, &self.cfg, self.idx, self.captures);
        if let Some(hit) = cache.lookup(&key) {
            if let Some(out) = self.unpack_cached(hit, started) {
                return out;
            }
            // Kind mismatch under an identical key can only mean a
            // fingerprint collision or a tampered store; recompute.
        }
        let out = self.compute();
        cache.store(&key, &out.to_cached());
        out
    }

    fn compute(&self) -> SessionOut {
        match self.kind {
            SessionKind::Random => {
                let (result, obs) = run_random_session(&self.cfg, self.idx);
                SessionOut::Random {
                    idx: self.idx,
                    result,
                    obs,
                }
            }
            SessionKind::Triggered => {
                let (captures, audit, obs) =
                    run_triggered_session(&self.cfg, self.idx, self.captures);
                SessionOut::Triggered {
                    idx: self.idx,
                    captures,
                    audit,
                    obs,
                }
            }
            SessionKind::Transition => {
                let (captures, audit, obs) =
                    run_transition_session(&self.cfg, self.idx, self.captures);
                SessionOut::Transition {
                    idx: self.idx,
                    captures,
                    audit,
                    obs,
                }
            }
        }
    }

    fn unpack_cached(&self, hit: CachedSession, started: std::time::Instant) -> Option<SessionOut> {
        let obs = SessionObservability::cached(self.label(), started);
        match (self.kind, hit) {
            (SessionKind::Random, CachedSession::Random { result }) => Some(SessionOut::Random {
                idx: self.idx,
                result,
                obs,
            }),
            (SessionKind::Triggered, CachedSession::Captures { captures, audit }) => {
                Some(SessionOut::Triggered {
                    idx: self.idx,
                    captures,
                    audit,
                    obs,
                })
            }
            (SessionKind::Transition, CachedSession::Captures { captures, audit }) => {
                Some(SessionOut::Transition {
                    idx: self.idx,
                    captures,
                    audit,
                    obs,
                })
            }
            _ => None,
        }
    }
}

impl SessionOut {
    /// The session's observability slice (label, wall clock, cache flag).
    fn obs(&self) -> &SessionObservability {
        match self {
            SessionOut::Random { obs, .. }
            | SessionOut::Triggered { obs, .. }
            | SessionOut::Transition { obs, .. } => obs,
        }
    }

    fn to_cached(&self) -> CachedSession {
        match self {
            SessionOut::Random { result, .. } => CachedSession::Random {
                result: result.clone(),
            },
            SessionOut::Triggered {
                captures, audit, ..
            }
            | SessionOut::Transition {
                captures, audit, ..
            } => CachedSession::Captures {
                captures: captures.clone(),
                audit: audit.clone(),
            },
        }
    }
}

/// One assembled study with its per-session observability, in task order.
pub(crate) type AssembledStudy = (Study, Vec<SessionObservability>);

/// The one session fan-out behind [`Study`] and [`crate::ScaleStudy`].
/// Every study's sessions are flattened into one pool sized to the host,
/// which pulls the heaviest remaining session first, so total wall time
/// is bounded by the single heaviest session instead of by thread
/// oversubscription (and a sweep's widths overlap on the host instead of
/// running one study at a time). Each session consults `cache` before
/// stepping. Cancellation skips sessions not yet started rather than
/// tearing running ones; `label` names a finished session for the
/// progress callback.
///
/// Returns each study with its per-session observability, in `configs`
/// order, plus the cache counters of this run alone (zero when uncached).
pub(crate) fn run_studies(
    configs: Vec<StudyConfig>,
    cache: Option<&SessionCache>,
    hooks: &RunHooks<'_>,
    label: impl Fn(&StudyConfig, &SessionObservability) -> String + Sync,
) -> Result<(Vec<AssembledStudy>, CacheStats), Cancelled> {
    let before = cache.map(|c| c.stats());
    let tasks: Vec<(usize, SessionTask)> = configs
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| c.session_tasks().into_iter().map(move |t| (ci, t)))
        .collect();
    let total = tasks.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let outputs = executor::run_longest_first(
        &tasks,
        |(_, t)| t.weight(),
        |(ci, t)| {
            if hooks.is_cancelled() {
                return None;
            }
            let out = t.run(cache);
            let obs = out.obs();
            hooks.session_done(&done, total, &label(&configs[*ci], obs), obs.cache_hit);
            Some(out)
        },
        configs.iter().all(|c| c.parallel),
    );
    let outputs: Option<Vec<SessionOut>> = outputs.into_iter().collect();
    let Some(outputs) = outputs else {
        return Err(Cancelled);
    };
    // The executor returns outputs in task order, and the tasks enumerate
    // the studies in order, so regrouping keeps each study's task order.
    let mut per_study: Vec<Vec<SessionOut>> = configs.iter().map(|_| Vec::new()).collect();
    for ((ci, _), out) in tasks.iter().zip(outputs) {
        per_study[*ci].push(out);
    }
    let studies = configs
        .into_iter()
        .zip(per_study)
        .map(|(c, outs)| Study::assemble(c, outs))
        .collect();
    let cache_stats = match (cache, before) {
        (Some(c), Some(b)) => c.stats().since(&b),
        _ => CacheStats::default(),
    };
    Ok((studies, cache_stats))
}

/// Builder for [`StudyConfig`].
///
/// Starts from a preset ([`StudyConfigBuilder::paper`] or
/// [`StudyConfigBuilder::quick`]), overrides individual fields, and runs
/// the full validation chain in [`StudyConfigBuilder::build`], returning
/// [`ConfigError`] instead of panicking later inside the session runners.
#[derive(Debug, Clone)]
pub struct StudyConfigBuilder {
    cfg: StudyConfig,
}

macro_rules! study_builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, v: $ty) -> Self {
                self.cfg.$name = v;
                self
            }
        )*
    };
}

impl StudyConfigBuilder {
    /// Start from the paper-scale study ([`StudyConfig::paper`]).
    pub fn paper() -> Self {
        StudyConfigBuilder {
            cfg: StudyConfig::paper(),
        }
    }

    /// Start from the scaled-down test study ([`StudyConfig::quick`]).
    pub fn quick() -> Self {
        StudyConfigBuilder {
            cfg: StudyConfig::quick(),
        }
    }

    /// Start from an existing configuration.
    pub fn from_config(cfg: StudyConfig) -> Self {
        StudyConfigBuilder { cfg }
    }

    study_builder_setters! {
        /// Machine configuration shared by all sessions.
        machine: MachineConfig,
        /// Workload mix shared by all sessions.
        mix: WorkloadMix,
        /// Number of random-sampling sessions.
        n_random: usize,
        /// Random-session lengths in hours, cycled across sessions.
        session_hours: Vec<f64>,
        /// Number of all-active-triggered sessions.
        n_triggered: usize,
        /// Buffers captured per triggered session.
        captures_per_triggered: usize,
        /// Number of transition-triggered sessions.
        n_transition: usize,
        /// Buffers captured per transition session.
        captures_per_transition: usize,
        /// Base RNG seed; session `i` uses `base_seed + i`.
        base_seed: u64,
        /// Run sessions on parallel threads.
        parallel: bool,
    }

    /// Set the trace knobs on the shared machine configuration (the
    /// common case for observability runs: everything else stays preset).
    pub fn trace(mut self, trace: fx8_sim::TraceConfig) -> Self {
        self.cfg.machine.trace = trace;
        self
    }

    /// Validate and return the finished configuration.
    pub fn build(self) -> Result<StudyConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// The study's complete data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Study {
    /// The configuration that produced it.
    pub config: StudyConfig,
    /// Random-sampling sessions, in session order.
    pub random_sessions: Vec<SessionResult>,
    /// Per-buffer captures of the all-active-triggered sessions.
    pub triggered: Vec<Vec<Capture>>,
    /// Per-buffer captures of the transition-triggered sessions.
    pub transitions: Vec<Vec<Capture>>,
    /// Audit report of each all-active-triggered session, in session order
    /// (empty and clean unless the `audit` feature is enabled).
    pub triggered_audits: Vec<AuditReport>,
    /// Audit report of each transition-triggered session, in session order.
    pub transition_audits: Vec<AuditReport>,
}

impl Study {
    /// Run the whole study.
    pub fn run(config: StudyConfig) -> Study {
        Study::run_cached(config, None).0
    }

    /// Run the whole study, optionally against a session result cache,
    /// also returning its observability: per-session trace metrics/events,
    /// wall-clock self-profiling and the run's [`CacheStats`]. Each session
    /// consults the cache before stepping a single cycle and stores its
    /// output on completion. The returned [`Study`] is bit-identical to
    /// [`Study::run`]'s whether every session hit, missed, or mixed, and
    /// whether tracing is on or off — observation never steers, and wall
    /// time lives only in the second tuple element, so the determinism
    /// suite keeps comparing studies whole.
    pub fn run_cached(
        config: StudyConfig,
        cache: Option<&SessionCache>,
    ) -> (Study, StudyObservability) {
        Study::run_cached_with_hooks(config, cache, &RunHooks::default())
            .expect("a run without a cancel token cannot be cancelled")
    }

    /// The service-callable study: [`Study::run_cached`] plus
    /// [`RunHooks`] — a cancellation token checked before each session
    /// starts, and a per-session completion callback for progress
    /// streaming. Hooks never steer results: a completed run is
    /// bit-identical to [`Study::run`]'s.
    pub fn run_cached_with_hooks(
        config: StudyConfig,
        cache: Option<&SessionCache>,
        hooks: &RunHooks<'_>,
    ) -> Result<(Study, StudyObservability), Cancelled> {
        let started = std::time::Instant::now();
        let (mut studies, cache_stats) =
            run_studies(vec![config], cache, hooks, |_, obs| obs.label.clone())?;
        let (study, sessions) = studies.pop().expect("one study in, one out");
        let observability = StudyObservability {
            sessions,
            study_wall_s: started.elapsed().as_secs_f64(),
            cache: cache_stats,
        };
        Ok((study, observability))
    }

    /// Assemble finished session outputs (in task order: random, then
    /// triggered, then transition — exactly the session order the
    /// observability report documents) into the study's data set.
    fn assemble(
        config: StudyConfig,
        outputs: Vec<SessionOut>,
    ) -> (Study, Vec<SessionObservability>) {
        let mut random_sessions = vec![None; config.n_random];
        let mut triggered = vec![Vec::new(); config.n_triggered];
        let mut transitions = vec![Vec::new(); config.n_transition];
        let mut triggered_audits = vec![AuditReport::default(); config.n_triggered];
        let mut transition_audits = vec![AuditReport::default(); config.n_transition];
        let mut session_obs = Vec::with_capacity(outputs.len());
        for out in outputs {
            match out {
                SessionOut::Random { idx, result, obs } => {
                    random_sessions[idx] = Some(result);
                    session_obs.push(obs);
                }
                SessionOut::Triggered {
                    idx,
                    captures,
                    audit,
                    obs,
                } => {
                    triggered[idx] = captures;
                    triggered_audits[idx] = audit;
                    session_obs.push(obs);
                }
                SessionOut::Transition {
                    idx,
                    captures,
                    audit,
                    obs,
                } => {
                    transitions[idx] = captures;
                    transition_audits[idx] = audit;
                    session_obs.push(obs);
                }
            }
        }
        let study = Study {
            config,
            random_sessions: random_sessions
                .into_iter()
                .map(|r| r.expect("every random session ran"))
                .collect(),
            triggered,
            transitions,
            triggered_audits,
            transition_audits,
        };
        (study, session_obs)
    }

    /// Every sample of every random session, session order then time order.
    pub fn all_samples(&self) -> Vec<&Sample> {
        self.random_sessions
            .iter()
            .flat_map(|s| s.samples.iter())
            .collect()
    }

    /// Pooled `num[j]` distribution over all random sessions (Figure 3).
    /// Sized to the widest session so no high-concurrency bin is silently
    /// truncated (the old bounds check dropped records beyond
    /// `machine.n_ces` instead of widening the histogram).
    pub fn pooled_num(&self) -> Vec<u64> {
        let per: Vec<Vec<u64>> = self
            .random_sessions
            .iter()
            .map(|s| s.pooled_num())
            .collect();
        let width = per
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(self.config.machine.n_ces + 1);
        let mut num = vec![0u64; width];
        for p in &per {
            for (j, &k) in p.iter().enumerate() {
                num[j] += k;
            }
        }
        num
    }

    /// Pooled event counts over all random sessions (Table 2).
    pub fn pooled_counts(&self) -> EventCounts {
        let mut acc = EventCounts::empty(self.config.machine.n_ces);
        for s in &self.random_sessions {
            acc.merge(&s.pooled_counts());
        }
        acc
    }

    /// Overall concurrency measures (Table 2).
    pub fn overall_measures(&self) -> ConcurrencyMeasures {
        ConcurrencyMeasures::from_counts(&self.pooled_num())
    }

    /// Pooled counts over all transition-triggered buffers (Figures 6–7).
    pub fn pooled_transition_counts(&self) -> EventCounts {
        let mut acc = EventCounts::empty(self.config.machine.n_ces);
        for session in &self.transitions {
            for b in session {
                acc.merge(&b.counts);
            }
        }
        acc
    }

    /// Pooled counts over all all-active-triggered buffers.
    pub fn pooled_triggered_counts(&self) -> EventCounts {
        let mut acc = EventCounts::empty(self.config.machine.n_ces);
        for session in &self.triggered {
            for b in session {
                acc.merge(&b.counts);
            }
        }
        acc
    }

    /// Pool every session's audit report into one study-wide summary.
    pub fn audit_report(&self) -> StudyAuditReport {
        let mut out = StudyAuditReport::default();
        for (i, s) in self.random_sessions.iter().enumerate() {
            out.add_session(format!("random {i}"), &s.audit);
        }
        for (i, a) in self.triggered_audits.iter().enumerate() {
            out.add_session(format!("triggered {i}"), a);
        }
        for (i, a) in self.transition_audits.iter().enumerate() {
            out.add_session(format!("transition {i}"), a);
        }
        out
    }
}

/// One session's slice of the study-wide audit summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionAudit {
    /// Which session the report came from ("random 3", "triggered 0", ...).
    pub label: String,
    /// Cycles the per-cycle auditor checked in that session.
    pub checked_cycles: u64,
    /// The violations it recorded (capped per session; see
    /// [`fx8_sim::audit::MAX_RECORDED_VIOLATIONS`]).
    pub violations: Vec<Violation>,
}

/// All sessions' audit reports pooled, with a text rendering for the
/// `reproduce run --audit` command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StudyAuditReport {
    /// Per-session slices, in random/triggered/transition order.
    pub sessions: Vec<SessionAudit>,
    /// Total cycles checked across every session.
    pub checked_cycles: u64,
    /// Total violations recorded (excluding those dropped past the cap).
    pub violations: u64,
    /// Violations dropped once per-session caps were hit.
    pub dropped_violations: u64,
}

impl StudyAuditReport {
    fn add_session(&mut self, label: String, rep: &AuditReport) {
        self.checked_cycles += rep.checked_cycles;
        self.violations += rep.violations.len() as u64;
        self.dropped_violations += rep.dropped_violations;
        self.sessions.push(SessionAudit {
            label,
            checked_cycles: rep.checked_cycles,
            violations: rep.violations.clone(),
        });
    }

    /// No violations anywhere (including dropped ones)?
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Recorded plus dropped violations.
    pub fn total_violations(&self) -> u64 {
        self.violations + self.dropped_violations
    }

    /// Human-readable summary, one line per violation.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "audit: {} cycles checked across {} sessions",
            self.checked_cycles,
            self.sessions.len()
        );
        if self.is_clean() {
            let _ = writeln!(s, "audit: clean — zero invariant violations");
        } else {
            let _ = writeln!(
                s,
                "audit: {} violations ({} dropped past the per-session cap)",
                self.total_violations(),
                self.dropped_violations
            );
            for sess in &self.sessions {
                for v in &sess.violations {
                    let _ = writeln!(s, "  [{}] {v}", sess.label);
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> StudyConfig {
        StudyConfig {
            n_random: 2,
            session_hours: vec![0.12, 0.12],
            n_triggered: 1,
            captures_per_triggered: 2,
            n_transition: 1,
            captures_per_transition: 2,
            mix: WorkloadMix::all_concurrent(),
            ..StudyConfig::paper()
        }
    }

    #[test]
    fn study_runs_all_session_types() {
        let s = Study::run(mini());
        assert_eq!(s.random_sessions.len(), 2);
        assert_eq!(s.triggered.len(), 1);
        assert_eq!(s.transitions.len(), 1);
        assert!(s.pooled_counts().records > 0);
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let mut cfg = mini();
        cfg.parallel = true;
        let par = Study::run(cfg.clone());
        cfg.parallel = false;
        let ser = Study::run(cfg);
        assert_eq!(par.random_sessions, ser.random_sessions);
        assert_eq!(par.triggered, ser.triggered);
        assert_eq!(par.transitions, ser.transitions);
    }

    #[test]
    fn parallel_schedules_never_leak_into_results() {
        // Work-stealing makes task completion order nondeterministic;
        // results must not depend on it. Repeated parallel runs must agree
        // with each other and with the serial reference — here under the
        // production mix, which also exercises the trigger-timeout path.
        let mut cfg = mini();
        cfg.mix = WorkloadMix::csrd_production();
        cfg.parallel = true;
        let first = Study::run(cfg.clone());
        for _ in 0..2 {
            assert_eq!(
                first,
                Study::run(cfg.clone()),
                "parallel run must be reproducible"
            );
        }
        cfg.parallel = false;
        let serial = Study::run(cfg);
        assert_eq!(first.random_sessions, serial.random_sessions);
        assert_eq!(first.triggered, serial.triggered);
        assert_eq!(first.transitions, serial.transitions);
    }

    /// The fast-forward opt-out knob on `MachineConfig` flows through
    /// `StudyConfig.machine` into every session of the study; a full run
    /// with the engine on (the default) must be bit-identical to one with
    /// it off.
    #[test]
    fn fast_forward_on_and_off_studies_are_bit_identical() {
        let mut cfg = mini();
        cfg.mix = WorkloadMix::csrd_production();
        assert!(cfg.machine.fast_forward, "fast-forward is on by default");
        let on = Study::run(cfg.clone());
        cfg.machine.fast_forward = false;
        let off = Study::run(cfg);
        assert_eq!(on.random_sessions, off.random_sessions);
        assert_eq!(on.triggered, off.triggered);
        assert_eq!(on.transitions, off.transitions);
    }

    #[test]
    fn pooling_conserves_records() {
        let s = Study::run(mini());
        let pooled = s.pooled_counts();
        let by_session: u64 = s
            .random_sessions
            .iter()
            .map(|r| r.pooled_counts().records)
            .sum();
        assert_eq!(pooled.records, by_session);
        assert_eq!(s.pooled_num().iter().sum::<u64>(), pooled.records);
    }

    #[test]
    fn empty_session_hours_falls_back_to_paper_default() {
        // Regression: Study::run indexed session_hours[0] unconditionally,
        // so an empty vector panicked before the first session even ran.
        // Use the tiny machine and skip triggered/transition sessions to
        // keep the fallback 6-hour random session affordable.
        let cfg = StudyConfig {
            machine: MachineConfig::tiny(),
            n_random: 1,
            session_hours: Vec::new(),
            n_triggered: 0,
            n_transition: 0,
            parallel: false,
            ..StudyConfig::paper()
        };
        assert!((cfg.hours_for_session(0) - DEFAULT_SESSION_HOURS).abs() < 1e-12);
        assert!(cfg.validate().is_ok(), "empty session_hours is legal");
        let s = Study::run(cfg);
        assert_eq!(s.random_sessions.len(), 1);
        assert!(!s.random_sessions[0].samples.is_empty());
    }

    #[test]
    fn study_config_validate_rejects_bad_hours() {
        let mut cfg = mini();
        cfg.session_hours = vec![4.0, f64::NAN];
        assert!(cfg.validate().is_err());
        cfg.session_hours = vec![-1.0];
        assert!(cfg.validate().is_err());
        assert!(StudyConfig::paper().validate().is_ok());
        assert!(StudyConfig::quick().validate().is_ok());
    }

    #[test]
    fn observed_run_is_bit_identical_and_labeled() {
        let base = mini();
        let traced = StudyConfigBuilder::from_config(base.clone())
            .trace(fx8_sim::TraceConfig::full())
            .build()
            .expect("mini study config validates");
        let (study, obs) = Study::run_cached(traced, None);
        // Tracing never steers: the study equals an untraced plain run.
        let plain = Study::run(base);
        assert_eq!(study.random_sessions, plain.random_sessions);
        assert_eq!(study.triggered, plain.triggered);
        assert_eq!(study.transitions, plain.transitions);
        // One observability slice per session, in documented order.
        let labels: Vec<&str> = obs.sessions.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            ["random 0", "random 1", "triggered 0", "transition 0"]
        );
        let eng = obs.pooled_engine();
        assert!(eng.total > 0, "sessions stepped cycles");
        assert!(eng.consistent(), "engines partition the timeline");
        for s in &obs.sessions {
            assert!(s.metrics.cycles.consistent(), "{}: engine split", s.label);
            assert!(s.wall_s >= 0.0);
        }
        assert!(
            obs.sessions.iter().any(|s| !s.events.is_empty()),
            "the event trace captured something"
        );
        let json = obs.chrome_trace(study.config.machine.ns_per_cycle);
        assert!(json.contains("random 0"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn study_builder_overrides_and_validates() {
        let cfg = StudyConfig::builder()
            .n_random(1)
            .session_hours(vec![0.1])
            .n_triggered(0)
            .n_transition(0)
            .base_seed(7)
            .parallel(false)
            .build()
            .expect("overridden paper config stays valid");
        assert_eq!(cfg.n_random, 1);
        assert_eq!(cfg.base_seed, 7);
        assert_eq!(cfg.machine, MachineConfig::fx8(), "presets untouched");

        let err = StudyConfigBuilder::quick()
            .session_hours(vec![f64::NAN])
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "session_hours");
    }

    #[test]
    fn audit_report_pools_every_session() {
        let s = Study::run(mini());
        let rep = s.audit_report();
        assert_eq!(rep.sessions.len(), 2 + 1 + 1);
        // Without the audit feature the reports are empty-but-clean; with
        // it they must be clean too (the dedicated audit suite asserts the
        // stronger property on larger runs).
        assert!(rep.is_clean(), "{}", rep.render());
        if cfg!(feature = "audit") {
            assert!(rep.checked_cycles > 0, "auditor saw every stepped cycle");
        } else {
            assert_eq!(rep.checked_cycles, 0);
        }
        assert!(rep.render().contains("clean"));
    }
}
