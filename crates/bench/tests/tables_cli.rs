//! The `tables` front door: bad arguments fail loudly instead of running
//! the full default report, and a run makes one report, from flags its
//! mode reads.

use std::process::Command;

#[test]
fn help_prints_usage_and_bad_arguments_exit_2() {
    let tables = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(args)
            .output()
            .expect("tables runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let (code, stdout, _) = tables(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("usage: tables"), "{stdout}");
    assert!(stdout.contains("--trace-report [--json BENCH_5.json]"));
    assert!(
        !stdout.contains("--iters"),
        "no iteration-count knob: {stdout}"
    );

    let json = std::env::temp_dir().join(format!("tables_cli_{}.json", std::process::id()));
    let json_arg = json.to_str().expect("a UTF-8 temp path");
    for bad in [
        &["--bogus"][..],
        &["--table", "3", "-h"],
        &["--iters"],
        &["--trace-report", "--json"],
        // A flag the selected mode does not read, a repeated flag, two
        // modes, or a thread count that is not positive.
        &["--threads", "10"],
        &["--seed", "7"],
        &["--table", "3", "--table", "4"],
        &["--table", "3", "--json", json_arg],
        &["--kernel-size", "--table", "2"],
        &["--trace-report", "--recovery-report"],
        &["--capacity", "--threads", "0"],
    ] {
        let (code, stdout, stderr) = tables(bad);
        assert_eq!(code, Some(2), "{bad:?}");
        assert!(stderr.contains("usage: tables"), "{bad:?}: {stderr}");
        assert!(stdout.is_empty(), "{bad:?} ran a report: {stdout}");
    }
    assert!(!json.exists(), "a refused --json run wrote {json:?}");
}
