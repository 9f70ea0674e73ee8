//! dsm-lint: the source contracts rustc and clippy cannot state.
//!
//! Every run must be a pure function of `(protocol, nprocs, scale, seed)`.
//! The compiler holds most of what guards that: the root `clippy.toml`
//! bans wall clocks, randomly seeded std maps, environment reads and a
//! second `Network`; `#[must_use]` on `FlushOutcome` and dsm-core's
//! `clippy::let_underscore_must_use` reject a discarded flush; `deny.toml`
//! bans `rand` (DESIGN §12). Two rules have no compiler equivalent and
//! live here, on a small lexer's token layer, so comments and string
//! contents never reach them:
//!
//! * `dense-by-nodes` — no node-count-sized allocation in per-page
//!   protocol state and no fixed 64-wide pid arithmetic there or in the
//!   checker (the sparse-scaling contract);
//! * `state-rest` — no `..` rest pattern inside a hand-written
//!   `impl State for …`, so the compiler's exhaustiveness check stays the
//!   proof that every field is classified.
//!
//! [`scan`] runs both over every `crates/*/src` tree and `examples/`; this
//! crate's test runs it over the workspace, so `cargo test` is the gate.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

mod lexer;
mod rules;

use lexer::lex;
use rules::{check_dense, check_state_rest, EXEMPT};

/// The trees [`scan`] walks: each `crates/*/src`, read from the directory
/// so a new crate cannot fall outside the rules, then `examples/`.
fn source_trees(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut trees = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            trees.push(src);
        }
    }
    trees.sort();
    trees.push(root.join("examples"));
    Ok(trees)
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every finding under the workspace at `root`, one `path:line: [rule]
/// message` line each, plus a line for every exemption that excused
/// nothing. Empty means clean.
pub fn scan(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for tree in source_trees(root).map_err(|e| format!("listing crates: {e}"))? {
        rust_sources(&tree, &mut files).map_err(|e| format!("walking {}: {e}", tree.display()))?;
    }
    files.sort();

    let mut used = [false; EXEMPT.len()];
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let toks = lex(&text);
        let mut found = check_dense(&rel, &toks);
        found.extend(check_state_rest(&toks));
        for f in found {
            match EXEMPT
                .iter()
                .position(|e| (e.file, e.rule) == (&*rel, f.rule))
            {
                Some(i) => used[i] = true,
                None => findings.push(format!("{rel}:{}: [{}] {}", f.line, f.rule, f.msg)),
            }
        }
    }
    for (e, used) in EXEMPT.iter().zip(used) {
        if !used {
            findings.push(format!(
                "stale exemption: {} [{}] matches nothing (reason was: {})",
                e.file, e.rule, e.reason
            ));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let trees = source_trees(&root).unwrap();
        assert!(
            trees.contains(&root.join("crates/snap/src")),
            "the checkpoint codec must be under the rules: {trees:?}"
        );
        let findings = scan(&root).unwrap();
        assert!(
            findings.is_empty(),
            "dsm-lint: {} finding(s):\n{}",
            findings.len(),
            findings.join("\n")
        );
    }
}
