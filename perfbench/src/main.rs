//! The fx8 study's benchmark.
//!
//! ```text
//! perfbench --workload <paper|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload for `--seconds` seconds with
//! nothing but the benchmark's own clocks around the program, checks every
//! output, and prints the end-to-end metrics. With `--trace 1` it instead
//! runs the traced attribution pass (see `layers`), which times calls into
//! each layer from outside and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`, and a failed output
//! check makes the exit code 1. `perfbench/README.md` documents every
//! metric and workload.

mod layers;
mod measure;
mod paper;
mod protocols;
mod report;
mod serve;
mod spans;
mod sweep;

use fx8_sim::fingerprint::CacheKeyHasher;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every `--trace 0` run prints, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `paper` or `sweep`.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs. It picks the
    /// traced pass's served request sequence; the study inputs are the
    /// presets' (see README.md, "Seeds").
    pub seed: u64,
    /// How long the timed part runs.
    pub seconds: f64,
    /// Run the traced attribution pass instead of the workload.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper", "sweep"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected paper or sweep)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// FNV-1a-128 of a serialized output, as hex: two commits' simulated
/// results compare exactly through it.
pub fn digest(json: &str) -> String {
    let mut h = CacheKeyHasher::new();
    h.write_str(json);
    h.finish().to_hex()
}

/// Scratch directory for cache stores and span files, under the
/// directory the benchmark runs in.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).expect("the benchmark's scratch directory can be created");
    dir
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper|sweep> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} CPUs",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = Report::default();
    if args.trace {
        layers::run(&args, &mut report);
        report.print(&layers::PER_LAYER);
    } else {
        match args.workload.as_str() {
            "paper" => paper::workload(&args, &mut report),
            _ => sweep::workload(&args, &mut report),
        }
        report.metric("peak_rss_mb", "MiB", measure::peak_rss_mb());
        report.print(&END_TO_END);
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload sweep --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sweep", 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload paper --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload paper --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload paper --seed 1")).is_err());
    }

    /// The metric names and units this program emits are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let serde::Value::Array(items) = v.get(key).expect("key present") else {
                panic!("{key} is not an array")
            };
            let field = |m: &serde::Value, f: &str| match m.get(f) {
                Some(serde::Value::Str(s)) => s.clone(),
                _ => panic!("{key} entry lacks {f}"),
            };
            let mut out: Vec<(String, String)> = items
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            out.sort();
            out
        };
        let ours = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            let mut out: Vec<(String, String)> = set
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            out.sort();
            out
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&layers::PER_LAYER));
    }
}
