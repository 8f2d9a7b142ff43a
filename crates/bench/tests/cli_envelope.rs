//! Regression tests for the CLI's exit codes and output streams.
//!
//! An invalid configuration must exit with the documented code 2 and a
//! one-line `reproduce: error[config/...]: ...` diagnostic — the same
//! stable machine-readable code an HTTP client would see in the server's
//! `{"api":1,"error":{...}}` envelope, because both transports route
//! through `fx8_core::api`. Asking for help is not an error: it prints
//! the usage on stdout and exits 0.

use std::process::Command;

/// Run the binary, returning its exit code, stdout and stderr.
fn reproduce_out(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let (code, _, stderr) = reproduce_out(args);
    (code, stderr)
}

#[test]
fn invalid_trace_config_exits_2_with_a_stable_code() {
    let (code, stderr) = reproduce(&["trace", "--quick", "--event-capacity", "0"]);
    assert_eq!(code, Some(2), "documented exit code for invalid config");
    assert!(
        stderr.contains("reproduce: error[config/zero-trace-event-capacity]:"),
        "stderr carries the envelope code: {stderr}"
    );
    assert!(
        stderr.contains("trace.event_capacity"),
        "diagnostic names the offending field: {stderr}"
    );
}

#[test]
fn invalid_scale_width_exits_2_with_a_stable_code() {
    let (code, stderr) = reproduce(&["scale", "--quick", "--widths", "0", "--no-cache"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("reproduce: error[config/"),
        "scale failures use the same envelope: {stderr}"
    );
}

#[test]
fn unknown_flags_still_print_usage_not_an_envelope() {
    // Argument-parse errors are not API errors: they exit 1 with usage,
    // keeping the config/* code space for validated-config failures only.
    let (code, stderr) = reproduce(&["run", "--definitely-not-a-flag"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
    assert!(!stderr.contains("error[config/"), "{stderr}");
}

#[test]
fn bare_flags_are_an_unknown_subcommand() {
    // The pre-subcommand spelling is gone: `reproduce --quick` must fail
    // at argument parsing, before any study runs, with no stdout output.
    let (code, stdout, stderr) = reproduce_out(&["--quick"]);
    assert_eq!(code, Some(1));
    assert!(stdout.is_empty(), "no study ran: {stdout}");
    assert!(stderr.contains("unknown subcommand --quick"), "{stderr}");
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
    assert!(!stderr.contains("deprecated"), "{stderr}");
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["run", "--help"],
        &["scale", "-h"],
    ] {
        let (code, stdout, stderr) = reproduce_out(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(stdout.starts_with("usage: reproduce"), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
