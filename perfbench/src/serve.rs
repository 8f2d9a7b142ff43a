//! The request path, driven from outside: an `fx8_serve::Server` on
//! loopback with an in-memory cache, warmed with a fixed set of job
//! bodies, and a closed loop of `nproc` client threads in this process.
//! Each request is a POST followed by `?wait=1` long-polls, one connection
//! per HTTP request, with its body picked from the warmed set by a
//! generator seeded with the benchmark seed. Every request must be a cache
//! hit, which isolates the request path: parse, queue, cache hit, result
//! splice, write. The traced pass (`layers`) uses it for the `serve.*`
//! metrics.

use crate::measure::secs;
use fx8_core::api::JobRequest;
use fx8_core::{ScaleConfig, SessionCache, StudyConfig};
use fx8_serve::{client, ServeConfig, Server, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop clients: one per host CPU, as the load must come from at
/// most `nproc` threads and connections.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The warmed job bodies: the quick study by preset name and as a full
/// config object (serial, so the body differs but the sessions do not),
/// and the quick scale template over widths {2, 4} and {2, 4, 8, 16}.
pub fn bodies() -> Vec<String> {
    let json = |r: JobRequest| serde_json::to_string(&r).expect("requests serialize");
    let mut serial = StudyConfig::quick();
    serial.parallel = false;
    let scale = |widths: &[usize]| {
        json(JobRequest::scale(ScaleConfig {
            widths: widths.to_vec(),
            ..ScaleConfig::quick()
        }))
    };
    vec![
        r#"{"api":1,"job":{"study":"quick"}}"#.to_string(),
        json(JobRequest::study(serial)),
        scale(&[2, 4]),
        scale(&[2, 4, 8, 16]),
    ]
}

/// A running server.
pub struct Live {
    /// Its loopback address.
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Live {
    /// Bind a server with an in-memory cache and warm every body.
    pub fn start(bodies: &[String]) -> Result<Live, String> {
        let server = Server::bind(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                queue_depth: 4 * clients().max(4),
                ..ServeConfig::default()
            },
            Some(SessionCache::in_memory()),
        )
        .map_err(|e| format!("bind failed: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let live = Live {
            addr,
            handle,
            thread,
        };
        for b in bodies {
            if let Err(e) = request(addr, b) {
                live.stop();
                return Err(format!("warm-up request failed: {e}"));
            }
        }
        Ok(live)
    }

    /// Drain and stop the server, waiting for its threads.
    pub fn stop(self) {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: server exited with {e}"),
            Err(_) => eprintln!("perfbench: server thread panicked"),
        }
    }
}

/// One request's timings and served result.
pub struct Served {
    /// POST round trip, seconds.
    pub submit_s: f64,
    /// Long-poll round trips until terminal, seconds.
    pub wait_s: f64,
    /// Long-polls sent.
    pub polls: u64,
    /// The status line's `result` value, verbatim.
    pub result: String,
}

fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(key)? + key.len();
    let rest = &body[start..];
    let end = rest.find([',', '}', '"'])?;
    Some(&rest[..end])
}

/// POST `body`, then long-poll the job to a terminal state. A transport
/// error, a non-2xx reply or a job that ends other than `done` is an error.
pub fn request(addr: SocketAddr, body: &str) -> Result<Served, String> {
    let t0 = Instant::now();
    let resp = client::request(addr, "POST", "/v1/jobs", Some(body))
        .map_err(|e| format!("submit failed: {e}"))?;
    let submit_s = secs(t0);
    if resp.status != 202 {
        return Err(format!("submit got {}: {}", resp.status, resp.body_str()));
    }
    let text = resp.body_str();
    let id = field(&text, "\"id\":").ok_or_else(|| format!("no job id in {text}"))?;
    let path = format!("/v1/jobs/{id}?wait=1");
    let t1 = Instant::now();
    let mut polls = 0;
    loop {
        polls += 1;
        let resp =
            client::request(addr, "GET", &path, None).map_err(|e| format!("poll failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!("poll got {}: {}", resp.status, resp.body_str()));
        }
        let text = resp.body_str();
        match field(&text, "\"state\":\"") {
            Some("queued" | "running") => continue,
            Some("done") => {
                let at = text
                    .find(",\"result\":")
                    .ok_or("a done status carries a result")?;
                let result = text[at + 10..text.len() - 1].to_string();
                return Ok(Served {
                    submit_s,
                    wait_s: secs(t1),
                    polls,
                    result,
                });
            }
            other => return Err(format!("job ended {other:?}: {text}")),
        }
    }
}

/// The server's counters that the checks read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_misses: u64,
    pub responses_4xx: u64,
    pub responses_5xx: u64,
    pub rejected_busy: u64,
}

/// Read `/v1/metrics`.
pub fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let resp = client::request(addr, "GET", "/v1/metrics", None)
        .map_err(|e| format!("metrics failed: {e}"))?;
    let text = resp.body_str();
    let num = |scope: &str, key: &str| -> Result<u64, String> {
        let from = text
            .find(scope)
            .ok_or_else(|| format!("no {scope} in metrics"))?;
        field(&text[from..], &format!("\"{key}\":"))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no {key} in metrics: {text}"))
    };
    Ok(Counters {
        cache_misses: num("\"cache\":", "misses")?,
        responses_4xx: num("{", "responses_4xx")?,
        responses_5xx: num("{", "responses_5xx")?,
        rejected_busy: num("{", "rejected_busy")?,
    })
}

/// What the closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    /// Client-observed latency of each request, POST to terminal, ms.
    pub latency_ms: Vec<f64>,
    /// POST round trips, ms.
    pub submit_ms: Vec<f64>,
    /// Long-poll waits, ms.
    pub wait_ms: Vec<f64>,
    /// Long-polls per request.
    pub polls: Vec<f64>,
    /// Requests attempted and failed.
    pub attempted: u64,
    pub failed: u64,
}

/// Run `clients()` closed-loop clients, each sending `per_client`
/// requests. Every served result is compared byte for byte with
/// `expected`, the in-process result of the same body.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[String],
    seed: u64,
    per_client: usize,
) -> LoopStats {
    let stats = Mutex::new(LoopStats::default());
    std::thread::scope(|scope| {
        for c in 0..clients() {
            let stats = &stats;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ c as u64);
                let mut local = LoopStats::default();
                for _ in 0..per_client {
                    let pick = rng.gen_range(0..bodies.len());
                    let t = Instant::now();
                    let outcome = request(addr, &bodies[pick]).and_then(|s| {
                        if s.result == expected[pick] {
                            Ok(s)
                        } else {
                            Err(format!(
                                "served result for body {pick} differs from in-process execute"
                            ))
                        }
                    });
                    local.attempted += 1;
                    match outcome {
                        Ok(s) => {
                            local.latency_ms.push(secs(t) * 1e3);
                            local.submit_ms.push(s.submit_s * 1e3);
                            local.wait_ms.push(s.wait_s * 1e3);
                            local.polls.push(s.polls as f64);
                        }
                        Err(e) => {
                            local.failed += 1;
                            eprintln!("perfbench: request failed: {e}");
                        }
                    }
                }
                let mut all = stats.lock().expect("loop stats poisoned");
                all.latency_ms.extend(local.latency_ms);
                all.submit_ms.extend(local.submit_ms);
                all.wait_ms.extend(local.wait_ms);
                all.polls.extend(local.polls);
                all.attempted += local.attempted;
                all.failed += local.failed;
            });
        }
    });
    stats.into_inner().expect("loop stats poisoned")
}
