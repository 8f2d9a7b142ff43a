//! `paper`: the paper-scale study, the reproduction itself.
//!
//! `StudyConfig::paper()` as it stands, 1987 base seed included: 24
//! sessions run through `api::execute` with no cache, on the stock
//! executor whose pool is sized to the host. The engines, the macro layer,
//! the DAS and the executor do all the work; the cache and HTTP layers are
//! bypassed.

use crate::measure::{self, mean, median, process_cpu_s, secs, tail};
use crate::report::Report;
use crate::{digest, Args};
use fx8_core::api::{self, JobRequest, JobResult};
use fx8_core::observability::StudyObservability;
use fx8_core::report::CompRow;
use fx8_core::{Study, StudyConfig};
use std::time::Instant;

/// The paper-scale study request.
pub fn request() -> Result<JobRequest, String> {
    let req = JobRequest::study(StudyConfig::paper());
    req.validate().map_err(|e| e.to_string())?;
    Ok(req)
}

/// One executed paper study and what the benchmark measured around it.
pub struct PaperRun {
    /// The study's data.
    pub study: Study,
    /// Its thesis comparison rows.
    pub comparison: Vec<CompRow>,
    /// The study's own observability (per-session walls, cycle counts).
    pub obs: StudyObservability,
    /// Digest of the serialized `JobResult`.
    pub digest: String,
    /// Wall seconds of `api::execute`.
    pub wall_s: f64,
    /// Process CPU seconds over `api::execute`.
    pub cpu_s: f64,
}

/// Execute the study once, timed.
pub fn execute(req: &JobRequest) -> Result<PaperRun, String> {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let outcome = api::execute(req, None).map_err(|e| format!("paper study failed: {e}"))?;
    let wall_s = secs(t0);
    let cpu_s = process_cpu_s() - cpu0;
    let json = serde_json::to_string(&outcome.result).expect("job results serialize");
    let JobResult::Study { study, comparison } = outcome.result else {
        return Err("a study request returned a non-study result".into());
    };
    Ok(PaperRun {
        study,
        comparison,
        obs: outcome
            .study_obs
            .ok_or("a study job returns its observability")?,
        digest: digest(&json),
        wall_s,
        cpu_s,
    })
}

/// Output checks: the full session plan ran, and every sample's and
/// capture's event counts pass `EventCounts::validate`.
pub fn check(run: &PaperRun) -> Result<(), String> {
    let s = &run.study;
    let c = &s.config;
    if s.random_sessions.len() != c.n_random
        || s.triggered.len() != c.n_triggered
        || s.transitions.len() != c.n_transition
    {
        return Err("the study is missing sessions".into());
    }
    for sample in s.all_samples() {
        sample
            .counts
            .validate()
            .map_err(|e| format!("random session {} sample: {e}", sample.session))?;
    }
    for cap in s.triggered.iter().chain(&s.transitions).flatten() {
        cap.counts
            .validate()
            .map_err(|e| format!("session {} capture: {e}", cap.session))?;
    }
    if !run.obs.pooled_engine().consistent() {
        return Err("engine cycle counts do not partition the total".into());
    }
    Ok(())
}

/// Median relative error of the quantitative comparison rows (those with
/// a thesis value) against the thesis.
pub fn rel_err(rows: &[CompRow]) -> f64 {
    let errs: Vec<f64> = rows
        .iter()
        .filter_map(|r| {
            let p = r.paper?;
            (p != 0.0 && r.measured.is_finite()).then(|| ((r.measured - p) / p).abs())
        })
        .collect();
    if errs.is_empty() {
        0.0
    } else {
        median(&errs)
    }
}

/// The untraced workload: studies back to back for `--seconds`, starting
/// another only while it should end in time (see [`measure::fits`]).
pub fn workload(args: &Args, report: &mut Report) {
    let started = Instant::now();
    let (mut walls, mut cpus, mut sessions_ms, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_digest: Option<String> = None;
    while measure::fits(started, args.seconds, &walls) {
        // Set-up, before each study: build and validate the request. A call
        // takes 100-200 ns, so calls are timed in batches of 100 for 0.2 s.
        // The shared host alternates between fast and slow spells that
        // differ by up to 1.8x and last seconds. One burst of samples, or a
        // median over a few bursts, reads one spell or the other; the mean
        // over bursts spread across the run mixes them as a study does.
        let (times, req) = measure::time_batches(0.2, 100, request);
        setups.extend(times);
        let req = match req {
            Ok(r) => r,
            Err(e) => {
                report.check(Err(e));
                break;
            }
        };
        let run = match execute(&req) {
            Ok(r) => r,
            Err(e) => {
                report.check(Err(e));
                break;
            }
        };
        let same = match &first_digest {
            None => {
                println!(
                    "paper: digest {} cycles {} paper_rel_err {:.6}",
                    run.digest,
                    run.obs.total_cycles(),
                    rel_err(&run.comparison)
                );
                first_digest = Some(run.digest.clone());
                Ok(())
            }
            Some(d) if *d == run.digest => Ok(()),
            Some(d) => Err(format!("study digest {} differs from {d}", run.digest)),
        };
        report.check(check(&run).and(same));
        walls.push(run.wall_s);
        cpus.push(run.cpu_s);
        sessions_ms.extend(run.obs.sessions.iter().map(|s| s.wall_s * 1e3));
    }
    if walls.is_empty() {
        return;
    }
    let (tail_ms, pct) = tail(&sessions_ms);
    println!(
        "paper: {} studies, {} sessions, p{pct:.1} session latency {tail_ms:.3} ms; walls {walls:.3?}",
        walls.len(),
        sessions_ms.len()
    );
    report.metric("wall_s", "s", median(&walls));
    report.metric("cpu_s", "s", median(&cpus));
    report.metric("setup_s", "s", mean(&setups));
    report.metric("p50_ms", "ms", median(&sessions_ms));
    report.metric(
        "req_per_s",
        "1/s",
        sessions_ms.len() as f64 / walls.iter().sum::<f64>(),
    );
}
