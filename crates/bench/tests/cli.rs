//! Input from outside the process fails with a typed error, never a
//! panic: every `dsm` subcommand answers a bad command line — or a file it
//! cannot use — with the reason, its usage line, and exit status 2.

use std::path::Path;
use std::process::{Command, Output};

use dsm_bench::cmd::COMMANDS;

fn dsm(line: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsm"))
        .args(line)
        .output()
        .expect("dsm runs")
}

/// Exit 2, the subcommand's usage, no panic.
fn assert_rejected(name: &str, line: &[&str], out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {line:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: dsm {name}")) && !stderr.contains("panicked"),
        "{name} {line:?}: {stderr}"
    );
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    // A flag a subcommand does not take at all is an unknown flag there,
    // which must fail the same way.
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
    for cmd in COMMANDS {
        assert_eq!(cmd.usage.split(' ').nth(2), Some(cmd.name));
        for line in lines {
            let out = dsm(&[&[cmd.name], line].concat());
            assert_rejected(cmd.name, line, &out);
            assert!(
                out.stdout.is_empty(),
                "{} {line:?} printed results",
                cmd.name
            );
        }
    }
}

#[test]
fn bad_values_the_parser_alone_cannot_see_exit_2_with_usage() {
    let unwritable: &[&str] = &[
        "--apps",
        "jacobi",
        "--protocols",
        "lmw-i",
        "--budget",
        "1",
        "--hunt",
        "--save-trace",
        "no/such/dir/hunt.trace",
    ];
    for (name, line) in [
        ("campaign", &["--nprocs", "1"][..]),
        ("transport", &["--nprocs", "1"][..]),
        ("explore", unwritable),
        ("paper", &["no/such/dir"][..]),
    ] {
        let out = dsm(&[&[name], line].concat());
        assert_rejected(name, line, &out);
        if name == "paper" {
            // Refused before it simulates anything.
            assert!(out.stdout.is_empty(), "paper printed results");
            assert!(!Path::new("no/such/dir").exists(), "paper wrote a file");
        }
    }
}

#[test]
fn a_bad_top_level_line_exits_2_with_the_subcommand_list() {
    // A removed subcommand keeps no alias.
    for line in [
        &[][..],
        &["frobnicate"],
        &["table1"],
        &["travel"],
        &["--jobs", "many", "paper"],
    ] {
        let out = dsm(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(
            stderr.contains("usage: dsm [--jobs N]"),
            "{line:?}: {stderr}"
        );
    }
}
