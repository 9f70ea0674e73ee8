//! dsm-lint: the determinism contract, mechanically enforced.
//!
//! The whole point of the virtual cluster is bit-identical replay: every
//! run, every explored schedule, every committed `results/*.txt` must be a
//! pure function of `(protocol, nprocs, scale, seed)`. That property dies
//! quietly — one `Instant::now()` in a hot path, one default-hasher
//! `HashMap` whose iteration order leaks into a trace, one `std::env`
//! read that changes behavior between machines. This binary scans the
//! library sources of the deterministic crates and fails on:
//!
//! * `instant` — `std::time::Instant` / `Instant::now` (wall-clock time;
//!   the simulator has its own virtual clock);
//! * `system-time` — `std::time::SystemTime` (same, worse);
//! * `default-hasher` — `HashMap` / `HashSet` mentions outside
//!   `dsm_sim::fasthash` (RandomState seeds per-process: iteration order
//!   is not reproducible; use `FastMap` / `FastSet`);
//! * `thread-rng` — `thread_rng` / `rand::` (ambient RNG; use
//!   `dsm_sim::DetRng`);
//! * `env-read` — `std::env` reads in library code (behavior must not
//!   depend on the invoking environment).
//!
//! A second, structural pass enforces the transport discipline
//! (`send-raw`, `flush-outcome`), the sparse-scaling contract
//! (`dense-by-nodes`) and the state-declaration contract (`state-rest`:
//! no `..` rest pattern inside a hand-written `impl State for …`, so the
//! compiler's exhaustiveness check stays the proof that every field is
//! classified). Those rules live in [`rules`] on the [`lexer`]'s token
//! layer — they bind to call-site and statement syntax, not substrings —
//! and this binary applies them over a wider net than the determinism
//! needles: `examples/` and `crates/bench/src` can also reach the
//! transport, so they are scanned for raw sends and discarded
//! `FlushOutcome`s too (the determinism rules stay library-only — host
//! timing is bench's job, and examples may read the environment).
//!
//! Deliberate exceptions live in `lint-allow.toml` at the workspace root,
//! parsed by [`allow`] (the workspace is dependency-free by design). Every
//! entry names a file, a rule, and a reason; stale entries that no longer
//! match anything are themselves errors, so the allowlist cannot rot.
//!
//! Comments and string literals are stripped before matching: the rules
//! bind to code, not to prose about code.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod allow;
mod lexer;
mod rules;

use allow::parse_allowlist;
use lexer::lex;
use rules::{check_dense, check_sends, check_state_rest};

/// Library source trees under the determinism contract. `bench` (host
/// timing is its job) and this crate are deliberately outside it; test
/// directories are too (asserting over a `HashMap` is harmless).
const CRATES: [&str; 8] = [
    "sim", "vm", "net", "core", "check", "explore", "apps", "plan",
];

/// Extra source trees under the *transport* rules only: examples and the
/// bench harness drive real clusters, so a raw `send_flush` there skips
/// costs and fault injection exactly as it would in a library crate.
const TRANSPORT_EXTRA: [&str; 2] = ["examples", "crates/bench/src"];

/// One banned-pattern rule: an id for the allowlist, the needles that
/// trigger it, and the contract it protects.
struct Rule {
    id: &'static str,
    needles: &'static [&'static str],
    why: &'static str,
}

const RULES: [Rule; 5] = [
    Rule {
        id: "instant",
        needles: &["std::time::Instant", "Instant::now"],
        why: "wall-clock time; use the simulator's virtual clock",
    },
    Rule {
        id: "system-time",
        needles: &["SystemTime"],
        why: "wall-clock time; use the simulator's virtual clock",
    },
    Rule {
        id: "default-hasher",
        needles: &["HashMap", "HashSet"],
        why: "RandomState iteration order is not reproducible; use dsm_sim::{FastMap, FastSet}",
    },
    Rule {
        id: "thread-rng",
        needles: &["thread_rng", "rand::"],
        why: "ambient RNG; use dsm_sim::DetRng",
    },
    Rule {
        id: "env-read",
        needles: &["std::env", "env::var"],
        why: "library behavior must not depend on the invoking environment",
    },
];

/// Strip `//` comments and the contents of ordinary string literals, so
/// rules match code only. Char literals and raw strings don't occur with
/// banned needles in this codebase; the stripper stays simple on purpose.
fn strip_noise(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_str = true;
                out.push('"');
            }
            _ => out.push(c),
        }
    }
    out
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
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

fn run(root: &Path) -> Result<Vec<String>, String> {
    let allow_text = fs::read_to_string(root.join("lint-allow.toml"))
        .map_err(|e| format!("reading lint-allow.toml: {e}"))?;
    let mut allows = parse_allowlist(&allow_text)?;

    // (path, under the determinism needle rules?). The transport and
    // dense token rules apply to every scanned file; their own path
    // scoping decides what can fire where.
    let mut files: Vec<(PathBuf, bool)> = Vec::new();
    let walk = |dir: PathBuf, needles: bool, files: &mut Vec<(PathBuf, bool)>| {
        let mut found = Vec::new();
        rust_sources(&dir, &mut found).map_err(|e| format!("walking {}: {e}", dir.display()))?;
        files.extend(found.into_iter().map(|p| (p, needles)));
        Ok::<(), String>(())
    };
    for c in CRATES {
        walk(root.join("crates").join(c).join("src"), true, &mut files)?;
    }
    for extra in TRANSPORT_EXTRA {
        walk(root.join(extra), false, &mut files)?;
    }
    files.sort();

    let mut findings: Vec<String> = Vec::new();
    for (path, needles) in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        if *needles {
            for (ln, raw) in text.lines().enumerate() {
                let code = strip_noise(raw);
                for rule in &RULES {
                    if !rule.needles.iter().any(|n| code.contains(n)) {
                        continue;
                    }
                    if let Some(a) = allows
                        .iter_mut()
                        .find(|a| a.rule == rule.id && a.file == rel)
                    {
                        a.used = true;
                        continue;
                    }
                    findings.push(format!(
                        "{rel}:{}: [{}] {} ({})",
                        ln + 1,
                        rule.id,
                        raw.trim(),
                        rule.why
                    ));
                }
            }
        }
        let toks = lex(&text);
        let structural = check_sends(&rel, &toks)
            .into_iter()
            .chain(check_dense(&rel, &toks))
            .chain(check_state_rest(&toks));
        for f in structural {
            if let Some(a) = allows
                .iter_mut()
                .find(|a| a.rule == f.rule && a.file == rel)
            {
                a.used = true;
                continue;
            }
            findings.push(format!("{rel}:{}: [{}] {}", f.line, f.rule, f.msg));
        }
    }
    for a in &allows {
        if !a.used {
            findings.push(format!(
                "lint-allow.toml: stale entry: file=\"{}\" rule=\"{}\" matches nothing \
                 (reason was: {})",
                a.file, a.rule, a.reason
            ));
        }
    }
    Ok(findings)
}

fn main() -> ExitCode {
    // Resolve the workspace root: the directory holding lint-allow.toml,
    // searched upward from the CWD so the binary works from any subdir.
    let mut root = std::env::current_dir().expect("cwd");
    while !root.join("lint-allow.toml").exists() {
        if !root.pop() {
            eprintln!("dsm-lint: no lint-allow.toml between CWD and filesystem root");
            return ExitCode::FAILURE;
        }
    }
    match run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("dsm-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            let mut msg = String::new();
            for f in &findings {
                let _ = writeln!(msg, "dsm-lint: {f}");
            }
            eprint!("{msg}");
            eprintln!("dsm-lint: {} violation(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dsm-lint: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_stripping() {
        assert_eq!(strip_noise("let x = 1; // HashMap here"), "let x = 1; ");
        assert_eq!(strip_noise("panic!(\"no HashMap\")"), "panic!(\"\")");
        assert_eq!(strip_noise("a(\"q\\\"x\", b)"), "a(\"\", b)");
        assert!(strip_noise("use std::env;").contains("std::env"));
    }
}
