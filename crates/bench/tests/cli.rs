//! Input from outside the process fails with a typed error, never a
//! panic: every matrix bin answers a bad command line — or a trace file it
//! cannot use — with the reason, its usage line, and exit status 2.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_with_usage() {
    let bins = [
        ("checked", env!("CARGO_BIN_EXE_checked")),
        ("campaign", env!("CARGO_BIN_EXE_campaign")),
        ("transport", env!("CARGO_BIN_EXE_transport")),
        ("explore", env!("CARGO_BIN_EXE_explore")),
        ("scale", env!("CARGO_BIN_EXE_scale")),
        ("travel", env!("CARGO_BIN_EXE_travel")),
    ];
    // A flag a bin does not take at all is an unknown flag there, which
    // must fail the same way.
    let lines: [&[&str]; 8] = [
        &["--frobnicate"],
        &["--apps", "nosuch"],
        &["--protocols", "bar-x"],
        &["--nprocs", "four"],
        &["--nprocs"],
        &["--replay", "no/such/file.trace"],
        &["--trace", "no/such/file.trace"],
        // Readable, but not a trace (tests run in the package root).
        &["--replay", "Cargo.toml", "--trace", "Cargo.toml"],
    ];
    for (name, exe) in bins {
        for line in lines {
            let out = Command::new(exe).args(line).output().expect("bin runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {line:?}: {stderr}");
            assert!(
                stderr.contains(&format!("usage: {name}")) && !stderr.contains("panicked"),
                "{name} {line:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{name} {line:?} printed results");
        }
    }
}
