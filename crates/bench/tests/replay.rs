//! `dsm explore --replay` is a gate on the committed trace: it passes only
//! while the replayed schedule still violates, so a trace gone stale fails
//! the smoke tier instead of replaying clean.

use std::process::{Command, Output};

fn replay(path: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsm"))
        .args(["explore", "--replay", path])
        .output()
        .expect("dsm runs")
}

const COMMITTED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/repro/lmw-u-coverage-gap.trace"
);

#[test]
fn the_committed_trace_reproduces_and_walks_back() {
    let out = replay(COMMITTED);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("backward walk matched the forward pass at every step"));
    assert!(stdout.contains("violation reproduced"));
}

#[test]
fn a_clean_replay_exits_nonzero() {
    // The same choices without the planted bug: the schedule replays
    // exactly and comes out clean.
    let text = std::fs::read_to_string(COMMITTED).expect("committed trace");
    let clean: String = text
        .lines()
        .map(|l| {
            if l.starts_with("planted ") {
                "planted none"
            } else {
                l
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let path = format!("{}/clean.trace", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, clean + "\n").expect("write trace");
    let out = replay(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("stale=0"), "{stdout}");
    assert!(stderr.contains("the trace is stale"), "{stderr}");
}
