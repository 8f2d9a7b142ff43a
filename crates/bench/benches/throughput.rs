//! Simulation-throughput bench: cycles simulated per wall-clock second
//! for each machine state, plus the quick-study wall time. Prints the
//! same numbers that `reproduce bench` persists.
//!
//! Like the other benches this is `harness = false`, so `cargo test`
//! runs it too; without `--bench` it only smoke-tests a short window.

use fx8_core::study::StudyConfig;

fn main() {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    // Under `cargo test` keep the window tiny so the suite stays fast.
    let (min_wall_s, study_cfg) = if bench_mode {
        (1.0, StudyConfig::quick())
    } else {
        let cfg = StudyConfig {
            n_random: 1,
            session_hours: vec![0.05],
            n_triggered: 1,
            captures_per_triggered: 1,
            n_transition: 1,
            captures_per_transition: 1,
            ..StudyConfig::quick()
        };
        (0.02, cfg)
    };
    let opts = fx8_bench::throughput::BenchOptions::default();
    let n = fx8_bench::throughput::measure(min_wall_s, study_cfg, &opts);
    print!("{}", fx8_bench::throughput::render("throughput", &n));
}
