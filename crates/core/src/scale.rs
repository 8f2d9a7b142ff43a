//! The scaling study the measured machine could not run.
//!
//! The thesis measured concurrency on the one cluster that existed — an
//! 8-CE FX/8 — and could only speculate how its measures move with
//! cluster width. With the width-generic machine model
//! ([`MachineConfig::scaled`]) the same study protocol runs at any width
//! up to the full lane word, so this module sweeps it: one complete
//! [`Study`] per width, each reduced to a single point on the
//! C_w / P_c / Missrate / bus-utilization curves. Every width shares the
//! workload mix, session plan, and base seed, so the curves isolate the
//! machine's width from everything else.

use crate::api::{Cancelled, RunHooks};
use crate::cache::{CacheStats, SessionCache};
use crate::study::{run_studies, Study, StudyConfig, StudyConfigBuilder};
use fx8_sim::{ConfigError, MachineConfig};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Widths the sweep visits by default: the measured machine (8) bracketed
/// by halvings and doublings out to the full `LaneWord`.
pub const DEFAULT_WIDTHS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Configuration of a width sweep: the per-width study template plus the
/// widths to visit. The template's `machine` field is replaced by
/// [`MachineConfig::scaled`] at each width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleConfig {
    /// Study template every width runs (mix, session plan, seed).
    pub base: StudyConfig,
    /// Cluster widths to sweep, in curve order.
    pub widths: Vec<usize>,
}

impl ScaleConfig {
    /// The sweep at paper session scale — hours of machine time per width.
    pub fn paper() -> Self {
        ScaleConfig {
            base: StudyConfig::paper(),
            widths: DEFAULT_WIDTHS.to_vec(),
        }
    }

    /// The sweep at quick scale (minutes of machine time per width):
    /// coarse but complete curves, suitable for smoke tests.
    pub fn quick() -> Self {
        ScaleConfig {
            base: StudyConfig::quick(),
            widths: DEFAULT_WIDTHS.to_vec(),
        }
    }

    /// Validate the template at every requested width before any session
    /// runs, so a bad width fails fast instead of hours in.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.widths.is_empty() {
            return Err(ConfigError::out_of_range(
                "widths",
                "[]",
                "expected at least one cluster width",
            ));
        }
        for &w in &self.widths {
            self.study_for_width(w)?;
        }
        Ok(())
    }

    /// The complete per-width study configuration.
    fn study_for_width(&self, width: usize) -> Result<StudyConfig, ConfigError> {
        StudyConfigBuilder::from_config(self.base.clone())
            .machine(MachineConfig::scaled(width))
            .build()
    }
}

/// One point on the scaling curves: a full study's pooled measures at one
/// cluster width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Cluster width the study ran at.
    pub n_ces: usize,
    /// Workload Concurrency `C_w` (eq. 4.2) pooled over random sessions.
    pub c_w: f64,
    /// Mean Concurrency Level `P_c` (eq. 4.4); `None` when no concurrency
    /// was observed at this width.
    pub p_c: Option<f64>,
    /// Cache missrate: memory-bus `Fetch` starts per record.
    pub missrate: f64,
    /// Memory-bus utilization (non-idle fraction of records).
    pub mem_bus_busy: f64,
    /// CE-bus utilization averaged over this width's buses.
    pub ce_bus_busy: f64,
    /// Records behind the point.
    pub records: u64,
}

impl ScalePoint {
    fn from_study(n_ces: usize, study: &Study) -> Self {
        let m = study.overall_measures();
        let counts = study.pooled_counts();
        ScalePoint {
            n_ces,
            c_w: m.workload_concurrency,
            p_c: m.mean_concurrency_level,
            missrate: counts.missrate(),
            mem_bus_busy: counts.mem_bus_busy(),
            ce_bus_busy: counts.ce_bus_busy(),
            records: m.total_records,
        }
    }
}

/// The finished sweep: one [`ScalePoint`] per requested width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleStudy {
    /// Points in the configured width order.
    pub points: Vec<ScalePoint>,
}

/// Wall-clock and cache accounting of one sweep run (the sweep analogue
/// of a study's observability; never part of [`ScaleStudy`], so sweep
/// results stay bit-comparable across cached and uncached runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    /// Wall-clock seconds for the whole sweep.
    pub sweep_wall_s: f64,
    /// Sessions scheduled across every width.
    pub sessions: usize,
    /// Result-cache counters for this sweep alone (zero when uncached).
    pub cache: CacheStats,
}

/// Why a hook-driven sweep stopped before producing curves.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaleRunError {
    /// The configuration failed validation (before any session ran).
    Config(ConfigError),
    /// The run's [`crate::api::CancelToken`] fired.
    Cancelled(Cancelled),
}

impl From<ConfigError> for ScaleRunError {
    fn from(e: ConfigError) -> Self {
        ScaleRunError::Config(e)
    }
}

impl std::fmt::Display for ScaleRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleRunError::Config(e) => e.fmt(f),
            ScaleRunError::Cancelled(_) => write!(f, "sweep was cancelled"),
        }
    }
}

impl std::error::Error for ScaleRunError {}

impl ScaleStudy {
    /// Run the sweep as an *incremental* fan-out: a complete [`Study`] per
    /// width, with every width's sessions flattened into one longest-first
    /// pool (so widths overlap on the host instead of running one study at
    /// a time), and each session consulting the result cache before
    /// stepping. Re-running a sweep with one added width therefore
    /// recomputes only that width's sessions — every previously-computed
    /// (width, session) point loads.
    pub fn run_cached(
        cfg: &ScaleConfig,
        cache: Option<&SessionCache>,
    ) -> Result<(ScaleStudy, SweepStats), ConfigError> {
        ScaleStudy::run_cached_with_hooks(cfg, cache, &RunHooks::default()).map_err(|e| match e {
            ScaleRunError::Config(c) => c,
            ScaleRunError::Cancelled(_) => {
                unreachable!("a run without a cancel token cannot be cancelled")
            }
        })
    }

    /// The service-callable sweep: [`ScaleStudy::run_cached`] plus
    /// [`RunHooks`] — cancellation checked before each session starts and
    /// a per-session completion callback across the whole flattened pool,
    /// labelled with the session's width (`"w8 random 0"`).
    pub fn run_cached_with_hooks(
        cfg: &ScaleConfig,
        cache: Option<&SessionCache>,
        hooks: &RunHooks<'_>,
    ) -> Result<(ScaleStudy, SweepStats), ScaleRunError> {
        cfg.validate()?;
        let started = std::time::Instant::now();
        let studies = cfg
            .widths
            .iter()
            .map(|&w| cfg.study_for_width(w).expect("validated above"))
            .collect();
        let (studies, cache_stats) = run_studies(studies, cache, hooks, |sc, obs| {
            format!("w{} {}", sc.machine.n_ces, obs.label)
        })
        .map_err(ScaleRunError::Cancelled)?;
        let points = cfg
            .widths
            .iter()
            .zip(&studies)
            .map(|(&w, (study, _))| ScalePoint::from_study(w, study))
            .collect();
        let stats = SweepStats {
            sweep_wall_s: started.elapsed().as_secs_f64(),
            sessions: studies.iter().map(|(_, obs)| obs.len()).sum(),
            cache: cache_stats,
        };
        Ok((ScaleStudy { points }, stats))
    }

    /// Render the curves as a text table plus an ASCII C_w curve — the
    /// scaling analogue of the thesis's Table 2.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("SCALING STUDY. Concurrency measures vs cluster width.\n");
        s.push_str("  width       C_w       P_c  Missrate  MemBusBusy  CEBusBusy    records\n");
        for p in &self.points {
            let pc = match p.p_c {
                Some(pc) => format!("{pc:>9.2}"),
                None => format!("{:>9}", "—"),
            };
            let _ = writeln!(
                s,
                "  {:>5}  {:>8.4}  {pc}  {:>8.4}  {:>10.4}  {:>9.4}  {:>9}",
                p.n_ces, p.c_w, p.missrate, p.mem_bus_busy, p.ce_bus_busy, p.records
            );
        }
        s.push_str("\n  C_w curve (fraction of records concurrent):\n");
        for p in &self.points {
            let bar = "#".repeat((p.c_w.clamp(0.0, 1.0) * 40.0).round() as usize);
            let _ = writeln!(s, "  {:>5} |{bar:<40}| {:.4}", p.n_ces, p.c_w);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_at_every_default_width() {
        assert!(ScaleConfig::quick().validate().is_ok());
        assert!(ScaleConfig::paper().validate().is_ok());
    }

    #[test]
    fn empty_width_list_is_rejected() {
        let mut cfg = ScaleConfig::quick();
        cfg.widths.clear();
        assert_eq!(cfg.validate().unwrap_err().field(), "widths");
    }

    #[test]
    fn invalid_width_fails_before_any_session_runs() {
        let mut cfg = ScaleConfig::quick();
        cfg.widths = vec![8, 65];
        assert!(cfg.validate().is_err());
        assert!(ScaleStudy::run_cached(&cfg, None).is_err());
    }

    /// A two-point micro sweep end to end: points come back in width
    /// order, carry that width's record pool, and render as curves.
    #[test]
    fn micro_sweep_produces_ordered_finite_points() {
        let mut cfg = ScaleConfig::quick();
        cfg.base.n_random = 1;
        cfg.base.session_hours = vec![0.02];
        cfg.base.n_triggered = 0;
        cfg.base.n_transition = 0;
        cfg.widths = vec![2, 16];
        let (s, _) = ScaleStudy::run_cached(&cfg, None).unwrap();
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].n_ces, 2);
        assert_eq!(s.points[1].n_ces, 16);
        for p in &s.points {
            assert!(p.records > 0, "width {} captured no records", p.n_ces);
            assert!(p.c_w.is_finite() && (0.0..=1.0).contains(&p.c_w));
            assert!(p.missrate.is_finite());
            assert!(p.ce_bus_busy.is_finite());
        }
        let txt = s.render();
        assert!(txt.contains("SCALING STUDY"));
        assert!(txt.contains("C_w curve"));
        // JSON round-trip for the report file the CLI writes.
        let json = serde_json::to_string(&s).unwrap();
        let back: ScaleStudy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    /// The sweep shares the study's session fan-out: every point equals
    /// the point of a stand-alone study at that width, and the progress
    /// hook fires once per session across the whole flattened pool, each
    /// label naming its width.
    #[test]
    fn sweep_points_equal_standalone_studies() -> Result<(), ConfigError> {
        let mut cfg = ScaleConfig::quick();
        cfg.base.n_random = 1;
        cfg.base.session_hours = vec![0.02];
        cfg.base.n_triggered = 1;
        cfg.base.captures_per_triggered = 1;
        cfg.base.n_transition = 1;
        cfg.base.captures_per_transition = 1;
        cfg.widths = vec![2, 8];
        let seen = std::sync::Mutex::new(Vec::new());
        let on_session = |d: crate::api::SessionDone| seen.lock().unwrap().push(d);
        let hooks = RunHooks {
            cancel: None,
            on_session: Some(&on_session),
        };
        let (sweep, stats) = ScaleStudy::run_cached_with_hooks(&cfg, None, &hooks)
            .expect("an uncancelled sweep of valid widths completes");
        assert_eq!(sweep.points.len(), cfg.widths.len());
        for (p, &w) in sweep.points.iter().zip(&cfg.widths) {
            let alone = ScalePoint::from_study(w, &Study::run(cfg.study_for_width(w)?));
            assert_eq!(*p, alone, "width {w} differs from its stand-alone study");
        }

        let seen = seen.into_inner().unwrap();
        let total = 2 * 3;
        assert_eq!(stats.sessions, total);
        assert_eq!(seen.len(), total, "one callback per session");
        assert!(seen.iter().all(|d| d.total == total));
        let mut done: Vec<usize> = seen.iter().map(|d| d.done).collect();
        done.sort_unstable();
        assert_eq!(done, (1..=total).collect::<Vec<_>>());
        let mut labels: Vec<&str> = seen.iter().map(|d| d.label.as_str()).collect();
        labels.sort_unstable();
        assert_eq!(
            labels,
            [
                "w2 random 0",
                "w2 transition 0",
                "w2 triggered 0",
                "w8 random 0",
                "w8 transition 0",
                "w8 triggered 0",
            ]
        );
        Ok(())
    }
}
