//! `sweep`: the cached width sweep, cold then warm.
//!
//! `ScaleStudy::run_cached` over the quick study template at widths
//! {2, 4, 8, 16, 32} against a fresh on-disk `SessionCache` directory, in
//! two timed passes: cold (35 misses, each computed and stored with a
//! write, fsync and rename) and warm (a new `SessionCache` on the same
//! directory: 35 disk loads).

use crate::measure::{self, median, process_cpu_s, secs, tail};
use crate::report::Report;
use crate::{out_dir, Args};
use fx8_core::api::{RunHooks, SessionDone};
use fx8_core::{ScaleConfig, ScalePoint, ScaleStudy, SessionCache, StudyConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The widths the sweep visits.
pub const WIDTHS: [usize; 5] = [2, 4, 8, 16, 32];

/// The sweep: the quick study template at [`WIDTHS`].
pub fn config() -> ScaleConfig {
    ScaleConfig {
        base: StudyConfig::quick(),
        widths: WIDTHS.to_vec(),
    }
}

/// Sessions one pass schedules.
pub fn sessions(cfg: &ScaleConfig) -> u64 {
    let b = &cfg.base;
    (cfg.widths.len() * (b.n_random + b.n_triggered + b.n_transition)) as u64
}

/// Per-session latency as the sweep's own progress hook sees it: the time
/// from the pass start, or from the same worker's previous completion, to
/// this completion.
struct SessionClock {
    start: Instant,
    last: Mutex<HashMap<ThreadId, Instant>>,
    ms: Mutex<Vec<f64>>,
}

impl SessionClock {
    fn new() -> Self {
        SessionClock {
            start: Instant::now(),
            last: Mutex::new(HashMap::new()),
            ms: Mutex::new(Vec::new()),
        }
    }

    fn done(&self, _: SessionDone) {
        let now = Instant::now();
        let prev = self
            .last
            .lock()
            .expect("session clock poisoned")
            .insert(std::thread::current().id(), now)
            .unwrap_or(self.start);
        let ms = now.duration_since(prev).as_secs_f64() * 1e3;
        self.ms.lock().expect("session clock poisoned").push(ms);
    }
}

/// One sweep's result and timings.
struct SweepRun {
    points: Vec<ScalePoint>,
    wall_s: f64,
    cpu_s: f64,
    cold_session_ms: Vec<f64>,
}

/// Both passes against `dir`, checked: pass 1 misses and stores every
/// session, pass 2 hits every one with no invalid entries and returns the
/// same curves.
fn run_once(cfg: &ScaleConfig, dir: &Path) -> Result<SweepRun, String> {
    let n = sessions(cfg);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let clock = SessionClock::new();
    let on_session = |s: SessionDone| clock.done(s);
    let hooks = RunHooks {
        cancel: None,
        on_session: Some(&on_session),
    };
    let cold = SessionCache::at_dir(dir);
    let (study1, stats1) = ScaleStudy::run_cached_with_hooks(cfg, Some(&cold), &hooks)
        .map_err(|e| format!("cold sweep failed: {e}"))?;
    let warm = SessionCache::at_dir(dir);
    let (study2, stats2) =
        ScaleStudy::run_cached(cfg, Some(&warm)).map_err(|e| format!("warm sweep failed: {e}"))?;
    let wall_s = secs(t0);
    let cpu_s = process_cpu_s() - cpu0;
    let (c, w) = (stats1.cache, stats2.cache);
    if (c.hits, c.misses, c.stores, c.invalid_entries) != (0, n, n, 0) {
        return Err(format!(
            "cold pass cache counters {c:?}, expected {n} misses and stores"
        ));
    }
    if (w.hits, w.misses, w.stores, w.invalid_entries) != (n, 0, 0, 0) {
        return Err(format!("warm pass cache counters {w:?}, expected {n} hits"));
    }
    if study1 != study2 {
        return Err("the warm pass's curves differ from the cold pass's".into());
    }
    Ok(SweepRun {
        points: study1.points,
        wall_s,
        cpu_s,
        cold_session_ms: clock.ms.into_inner().expect("session clock poisoned"),
    })
}

/// A fresh, empty cache directory for sweep `k` of this process.
pub fn fresh_dir(tag: &str, k: usize) -> PathBuf {
    let dir = out_dir().join(format!("{tag}-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a cache directory can be created");
    dir
}

/// The untraced workload: sweeps back to back for `--seconds`, starting
/// another only while it should end in time (see [`measure::fits`]).
pub fn workload(args: &Args, report: &mut Report) {
    let started = Instant::now();
    let (mut walls, mut cpus, mut setups, mut cold_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<ScalePoint>> = None;
    let mut k = 0;
    while k == 0 || measure::fits(started, args.seconds, &walls) {
        // Set-up: build and validate the sweep, make its cache directory.
        let t = Instant::now();
        let cfg = config();
        if let Err(e) = cfg.validate() {
            report.check(Err(e.to_string()));
            return;
        }
        let dir = fresh_dir("sweep", k);
        setups.push(secs(t));
        k += 1;
        let outcome = run_once(&cfg, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let run = match outcome {
            Ok(r) => r,
            Err(e) => {
                report.check(Err(e));
                continue;
            }
        };
        let same = match &first {
            None => {
                first = Some(run.points.clone());
                Ok(())
            }
            Some(p) if *p == run.points => Ok(()),
            Some(_) => Err("sweep curves differ between repetitions".to_string()),
        };
        report.check(same);
        walls.push(run.wall_s);
        cpus.push(run.cpu_s);
        cold_ms.extend(run.cold_session_ms);
    }
    if walls.is_empty() {
        return;
    }
    let (tail_ms, pct) = tail(&cold_ms);
    println!(
        "sweep: {} sweeps, {} cold sessions, p{pct:.1} cold-session latency {tail_ms:.3} ms; walls {walls:.3?}",
        walls.len(),
        cold_ms.len()
    );
    let n = sessions(&config()) as f64;
    report.metric("wall_s", "s", median(&walls));
    report.metric("cpu_s", "s", median(&cpus));
    report.metric("setup_s", "s", median(&setups));
    report.metric("p50_ms", "ms", median(&cold_ms));
    report.metric(
        "req_per_s",
        "1/s",
        2.0 * n * walls.len() as f64 / walls.iter().sum::<f64>(),
    );
}
