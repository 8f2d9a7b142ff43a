//! `reproduce hammer` — load-test the job server over real TCP.
//!
//! Spawns an in-process [`fx8_serve::Server`] on a loopback port with a
//! fresh in-memory cache, runs one cold job to populate it, then fires
//! concurrent identical requests and measures the *warm-hit* service
//! path end to end: TCP connect, HTTP parse, queue, cache lookup, result
//! splice, response. Reports client-observed p50 latency and request
//! throughput, plus the server's own counters for gating (warm-hit rate,
//! 5xx count). CI's serve-smoke job runs this and fails on a cold-path
//! regression dressed up as a cache.

use crate::throughput::{self, Row};
use fx8_core::api::{JobState, JobStatus};
use fx8_core::cache::SessionCache;
use fx8_serve::{client, ServeConfig, Server};
use serde::{Deserialize, Value};
use std::net::SocketAddr;
use std::time::Instant;

/// Hammer knobs (`reproduce hammer` flags end up here).
#[derive(Debug, Clone)]
pub struct HammerOptions {
    /// Use the quick study preset (vs the paper-scale study).
    pub quick: bool,
    /// Warm requests per client thread.
    pub requests: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
}

impl Default for HammerOptions {
    fn default() -> Self {
        HammerOptions {
            quick: true,
            requests: 25,
            concurrency: 4,
        }
    }
}

/// What the hammer measured and what the gates saw.
#[derive(Debug, Clone)]
pub struct HammerReport {
    /// Server-reported wall of the cold (cache-populating) job, seconds.
    pub cold_wall_s: f64,
    /// Client-observed median warm round-trip (POST + long-poll), ms.
    pub warm_p50_ms: f64,
    /// Warm requests completed per second across all clients.
    pub req_per_s: f64,
    /// Cache hits / cache lookups over the whole run.
    pub warm_hit_rate: f64,
    /// 5xx responses the server counted.
    pub responses_5xx: u64,
    /// Warm requests issued.
    pub warm_requests: usize,
}

impl HammerReport {
    /// The CI gate: every warm request served, ≥90% of cache lookups hit,
    /// and not a single 5xx.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.warm_hit_rate < 0.9 {
            failures.push(format!(
                "warm-hit rate {:.1}% below the 90% gate",
                self.warm_hit_rate * 100.0
            ));
        }
        if self.responses_5xx > 0 {
            failures.push(format!(
                "{} 5xx responses (gate is zero)",
                self.responses_5xx
            ));
        }
        failures
    }

    /// Render the human summary.
    pub fn render(&self) -> String {
        format!(
            "hammer: {} warm requests\n  cold job: {:.2} s\n  warm p50: {:.2} ms\n  \
             throughput: {:.0} req/s\n  warm-hit rate: {:.1}%\n  5xx: {}\n",
            self.warm_requests,
            self.cold_wall_s,
            self.warm_p50_ms,
            self.req_per_s,
            self.warm_hit_rate * 100.0,
            self.responses_5xx,
        )
    }
}

fn status_of(body: &str) -> Result<JobStatus, String> {
    serde_json::from_str(body).map_err(|e| format!("bad status body: {e}: {body}"))
}

/// POST the request and long-poll it to a terminal state; returns the
/// final status.
fn submit_and_wait(addr: SocketAddr, body: &str) -> Result<JobStatus, String> {
    let resp = client::request(addr, "POST", "/v1/jobs", Some(body))
        .map_err(|e| format!("submit failed: {e}"))?;
    if resp.status != 202 {
        return Err(format!("submit got {}: {}", resp.status, resp.body_str()));
    }
    let queued = status_of(&resp.body_str())?;
    let path = format!("/v1/jobs/{}?wait=1", queued.id);
    loop {
        let resp =
            client::request(addr, "GET", &path, None).map_err(|e| format!("poll failed: {e}"))?;
        let status = status_of(&resp.body_str())?;
        if status.state.is_terminal() {
            if status.state != JobState::Done {
                return Err(format!(
                    "job {} ended {}: {:?}",
                    status.id,
                    status.state.as_str(),
                    status.error
                ));
            }
            return Ok(status);
        }
    }
}

/// Run the hammer against a fresh in-process server.
pub fn run(opts: &HammerOptions) -> Result<HammerReport, String> {
    let preset = if opts.quick { "quick" } else { "paper" };
    let body = format!("{{\"api\":1,\"job\":{{\"study\":\"{preset}\"}}}}");
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: opts.concurrency.max(4) * 4,
            ..ServeConfig::default()
        },
        Some(SessionCache::in_memory()),
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let serve_thread = std::thread::spawn(move || server.run());

    let num = |v: &Value, k: &str| -> Result<u64, String> {
        u64::from_value(v.get(k).ok_or_else(|| format!("metrics lack {k}"))?)
            .map_err(|e| format!("bad metrics field {k}: {e}"))
    };
    let cache_counters = || -> Result<(u64, u64), String> {
        let resp = client::request(addr, "GET", "/v1/metrics", None)
            .map_err(|e| format!("metrics failed: {e}"))?;
        let metrics: Value =
            serde_json::from_str(&resp.body_str()).map_err(|e| format!("bad metrics: {e}"))?;
        let cache = metrics.get("cache").ok_or("metrics lack cache stats")?;
        Ok((num(cache, "hits")?, num(cache, "misses")?))
    };

    // Cold pass populates the cache.
    eprintln!("hammer: cold {preset} study against {addr}...");
    let cold = submit_and_wait(addr, &body)?;
    // Snapshot the cache counters so the hit-rate gate sees only the warm
    // phase — the cold pass's misses are the point, not a failure.
    let (hits_cold, misses_cold) = cache_counters()?;

    // Warm pass: concurrent clients, each timing its own round-trips.
    let total = opts.requests * opts.concurrency.max(1);
    eprintln!(
        "hammer: {} warm requests across {} clients...",
        total,
        opts.concurrency.max(1)
    );
    let t0 = Instant::now();
    let threads: Vec<_> = (0..opts.concurrency.max(1))
        .map(|_| {
            let body = body.clone();
            let requests = opts.requests;
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut latencies = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let t = Instant::now();
                    submit_and_wait(addr, &body)?;
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Ok(latencies)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(total);
    for t in threads {
        latencies.extend(t.join().map_err(|_| "client thread panicked")??);
    }
    let wall = t0.elapsed().as_secs_f64();

    // Server-side counters for the gates: the warm phase's cache delta
    // and the run's 5xx count.
    let resp = client::request(addr, "GET", "/v1/metrics", None)
        .map_err(|e| format!("metrics failed: {e}"))?;
    let metrics: Value =
        serde_json::from_str(&resp.body_str()).map_err(|e| format!("bad metrics: {e}"))?;
    let responses_5xx = num(&metrics, "responses_5xx")?;
    let (hits_all, misses_all) = cache_counters()?;
    let hits = (hits_all - hits_cold) as f64;
    let misses = (misses_all - misses_cold) as f64;
    let warm_hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };

    handle.shutdown();
    let _ = serve_thread.join();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let warm_p50_ms = latencies[latencies.len() / 2];
    Ok(HammerReport {
        cold_wall_s: cold.wall_s,
        warm_p50_ms,
        req_per_s: total as f64 / wall.max(1e-9),
        warm_hit_rate,
        responses_5xx,
        warm_requests: total,
    })
}

/// Record the hammer's serve rows into the ledger at `path`: upsert
/// `serve/warm_p50` and `serve/req_per_s` into `current`, keeping every
/// other row. A missing file starts as an empty ledger.
pub fn record(path: &str, report: &HammerReport) -> Result<(), String> {
    let mut ledger = throughput::load_or_empty(path).map_err(|e| e.to_string())?;
    throughput::merge(
        &mut ledger.current,
        vec![
            Row::once("serve", "warm_p50", "ms", report.warm_p50_ms),
            Row::once("serve", "req_per_s", "req/s", report.req_per_s),
        ],
    );
    ledger.save(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_fire_on_bad_hit_rate_and_5xx() {
        let good = HammerReport {
            cold_wall_s: 1.0,
            warm_p50_ms: 2.0,
            req_per_s: 100.0,
            warm_hit_rate: 0.98,
            responses_5xx: 0,
            warm_requests: 100,
        };
        assert!(good.gate_failures().is_empty());
        let bad = HammerReport {
            warm_hit_rate: 0.5,
            responses_5xx: 3,
            ..good
        };
        let failures = bad.gate_failures();
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("90%"));
        assert!(failures[1].contains("5xx"));
    }

    #[test]
    fn record_upserts_into_missing_or_partial_file() {
        let path = std::env::temp_dir().join(format!("fx8_hammer_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let report = HammerReport {
            cold_wall_s: 1.0,
            warm_p50_ms: 2.0,
            req_per_s: 100.0,
            warm_hit_rate: 1.0,
            responses_5xx: 0,
            warm_requests: 4,
        };
        // No file yet: the record creates one holding only the serve rows.
        record(path, &report).unwrap();
        let mut ledger = throughput::load(path).unwrap();
        assert_eq!(ledger.current.len(), 2);
        // A later record keeps the kernel rows a bench run wrote.
        let kernel = Row::once("kernel", "loop", "cycles/s", 5.0e6);
        throughput::merge(&mut ledger.current, vec![kernel.clone()]);
        ledger.save(path).unwrap();
        record(
            path,
            &HammerReport {
                warm_p50_ms: 3.0,
                ..report
            },
        )
        .unwrap();
        let ledger = throughput::load(path).unwrap();
        assert_eq!(ledger.current.len(), 3);
        assert_eq!(ledger.current[2], kernel);
        let p50 = throughput::find(&ledger.current, "serve", "warm_p50").unwrap();
        assert_eq!(p50.value, 3.0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_tiny_hammer_run_round_trips_the_server() {
        // One client, two warm requests, against the real server stack.
        // (The e2e suite in fx8-serve covers the protocol; this pins the
        // hammer's own plumbing end to end.)
        let report = run(&HammerOptions {
            quick: true,
            requests: 2,
            concurrency: 1,
        })
        .expect("hammer runs");
        assert_eq!(report.warm_requests, 2);
        assert!(report.warm_hit_rate > 0.9, "all-warm rerun should hit");
        assert_eq!(report.responses_5xx, 0);
        assert!(report.warm_p50_ms > 0.0);
        assert!(report.gate_failures().is_empty());
    }
}
