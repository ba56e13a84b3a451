//! A flag value a throughput bin cannot use ends it with exit status 2
//! and one `error: --<flag>: …` line on stderr — no panic, and no file
//! written, because the check runs before any work starts.

use std::path::PathBuf;
use std::process::Command;

/// Run `bin` with `args` in a fresh empty directory; return its exit code,
/// its stderr and the directory.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "flag_errors_{}_{}",
        bin.rsplit('/').next().unwrap(),
        args.join("_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin).args(args).current_dir(&dir).output().expect("spawn bin");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), dir)
}

fn assert_flag_error(bin: &str, args: &[&str], flag: &str, reason: &str) {
    let (code, stderr, dir) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked: {stderr}");
    let line = format!("error: --{flag}: ");
    assert!(
        stderr.lines().any(|l| l.starts_with(&line) && l.contains(reason)),
        "{bin} {args:?}: no `{line}…{reason}` line in {stderr:?}"
    );
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{bin} {args:?} wrote files: {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

const TOO_FEW_ROUNDS: &str = "memory experiment needs at least 2 rounds, got 1";

#[test]
fn streaming_bins_reject_too_few_rounds_through_the_engine_builder() {
    for bin in [
        env!("CARGO_BIN_EXE_spacetime_throughput"),
        env!("CARGO_BIN_EXE_detect_throughput"),
        env!("CARGO_BIN_EXE_fleet_throughput"),
    ] {
        assert_flag_error(bin, &["--rounds", "1"], "rounds", TOO_FEW_ROUNDS);
    }
}

#[test]
fn unparsable_values_are_rejected_not_defaulted() {
    let decoder = env!("CARGO_BIN_EXE_decoder_throughput");
    assert_flag_error(decoder, &["--shots", "abc"], "shots", "cannot use \"abc\"");
    assert_flag_error(decoder, &["--seed=-1"], "seed", "cannot use \"-1\"");
    let mitigation = env!("CARGO_BIN_EXE_mitigation_throughput");
    assert_flag_error(mitigation, &["--shots"], "shots", "missing value");
}

#[test]
fn zero_counts_are_rejected() {
    for (bin, args, flag) in [
        (env!("CARGO_BIN_EXE_decoder_throughput"), &["--shots", "0"][..], "shots"),
        (env!("CARGO_BIN_EXE_decoder_throughput"), &["--reps", "0"], "reps"),
        (env!("CARGO_BIN_EXE_spacetime_throughput"), &["--shots=0"], "shots"),
        (env!("CARGO_BIN_EXE_fleet_throughput"), &["--patches", "0"], "patches"),
    ] {
        assert_flag_error(bin, args, flag, "cannot use \"0\"");
    }
}
