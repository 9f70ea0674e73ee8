//! The manifest is the one record of what regenerates what: it must cover
//! exactly the committed results files, name only real subcommands, and be
//! the table DESIGN.md §5 prints; the docs (the root ones and every
//! crate's `DESIGN.md`) cite paths and subcommands, so every one they
//! mention must exist. And because every report renders its rows inside
//! the shared cell driver's workers, a report's bytes must not depend on
//! `--jobs`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use dsm_bench::cmd::COMMANDS;
use dsm_bench::manifest::{render_list, MANIFEST};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn manifest_outputs_are_exactly_the_committed_results() {
    let root = workspace_root();
    let committed: BTreeSet<String> = std::fs::read_dir(root.join("results"))
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            let name = path.file_name().expect("a file").to_string_lossy();
            format!("results/{name}")
        })
        .collect();
    let listed: Vec<&str> = MANIFEST
        .iter()
        .flat_map(|e| e.outputs.iter().copied())
        .collect();
    let reports: BTreeSet<String> = listed
        .iter()
        .filter(|path| !path.starts_with("results/repro/"))
        .map(ToString::to_string)
        .collect();
    assert_eq!(reports, committed, "manifest outputs vs results/*.txt");
    assert_eq!(
        listed.len(),
        listed.iter().collect::<BTreeSet<_>>().len(),
        "a file listed by two entries"
    );
    for path in listed {
        assert!(root.join(path).is_file(), "{path} is listed, not committed");
    }
}

#[test]
fn manifest_names_real_subcommands_and_design_prints_it() {
    for e in &MANIFEST {
        let sub = e.command.split(' ').next().expect("a subcommand");
        assert!(
            COMMANDS.iter().any(|c| c.name == sub),
            "{}: no subcommand {sub:?}",
            e.name
        );
    }
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    assert!(
        design.contains(&render_list()),
        "DESIGN.md §5 must carry the current `dsm list` output verbatim"
    );
}

/// The docs the path and subcommand checks read: the root ones, then each
/// `crates/*/DESIGN.md`, read from the directory so a new crate's design
/// file cannot fall outside the checks.
fn docs(root: &Path) -> Vec<String> {
    let mut crate_designs: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.expect("readable entry").file_name())
        .filter(|name| root.join("crates").join(name).join("DESIGN.md").is_file())
        .map(|name| format!("crates/{}/DESIGN.md", name.to_string_lossy()))
        .collect();
    crate_designs.sort();
    let mut docs: Vec<String> = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ]
    .map(String::from)
    .to_vec();
    docs.extend(crate_designs);
    docs
}

#[test]
fn docs_mention_only_paths_and_subcommands_that_exist() {
    let root = workspace_root();
    let docs = docs(root);
    assert!(
        docs.iter().any(|d| d == "crates/snap/DESIGN.md"),
        "crate design files must be under the checks: {docs:?}"
    );
    for doc in &docs {
        let text = std::fs::read_to_string(root.join(doc)).expect("a doc");
        // `crates/…` up to the first character no path here contains (so a
        // glob or placeholder is checked up to its fixed prefix).
        for (at, _) in text.match_indices("crates/") {
            let path = text[at..]
                .split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
                .next()
                .expect("split yields a first piece")
                .trim_end_matches('.');
            assert!(root.join(path).exists(), "{doc} mentions missing {path}");
        }
        // `dsm <word>` where `dsm` stands alone: flags and `<placeholders>`
        // are not words.
        for (at, _) in text.match_indices("dsm ") {
            let glued = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
            if text[..at].chars().next_back().is_some_and(glued) {
                continue;
            }
            let word = text[at + 4..]
                .split(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
                .next()
                .expect("split yields a first piece");
            if word.is_empty() || word.starts_with('-') {
                continue;
            }
            assert!(
                COMMANDS.iter().any(|c| c.name == word),
                "{doc} mentions `dsm {word}`, which is no subcommand"
            );
        }
    }
}

fn stdout_at(jobs: &str, line: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_dsm"))
        .args(["--jobs", jobs])
        .args(line.split(' '))
        .output()
        .expect("dsm runs");
    assert!(out.status.success(), "dsm --jobs {jobs} {line}");
    out.stdout
}

fn assert_jobs_invariant(line: &str) {
    let one = stdout_at("1", line);
    assert!(!one.is_empty(), "{line} printed nothing");
    assert!(one == stdout_at("2", line), "{line}: --jobs changed bytes");
}

#[test]
fn campaign_smoke_is_byte_identical_at_any_job_count() {
    assert_jobs_invariant("campaign --smoke");
}

#[test]
fn transport_small_is_byte_identical_at_any_job_count() {
    assert_jobs_invariant("transport --scale small --apps jacobi,fft");
}

#[test]
fn scale_smoke_is_byte_identical_at_any_job_count() {
    assert_jobs_invariant("scale --smoke");
}

#[test]
fn explore_smoke_is_byte_identical_at_any_job_count() {
    let smoke = MANIFEST
        .iter()
        .find(|e| e.name == "explore-smoke")
        .expect("the explore smoke entry");
    assert_jobs_invariant(smoke.command);
}
