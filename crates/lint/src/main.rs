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
//! * `instant` — `Instant` (wall-clock time; the simulator has its own
//!   virtual clock);
//! * `system-time` — `SystemTime` (same, worse);
//! * `default-hasher` — `HashMap` / `HashSet` mentions outside
//!   `dsm_sim::fasthash` (RandomState seeds per-process: iteration order
//!   is not reproducible; use `FastMap` / `FastSet`);
//! * `thread-rng` — `thread_rng` / a `rand::` path (ambient RNG; use
//!   `dsm_sim::DetRng`);
//! * `env-read` — an `env` path segment, as in `std::env` or `env::var`
//!   (behavior must not depend on the invoking environment).
//!
//! The structural rules enforce the transport discipline (`send-raw`,
//! `flush-outcome`), the sparse-scaling contract (`dense-by-nodes`) and
//! the state-declaration contract (`state-rest`: no `..` rest pattern
//! inside a hand-written `impl State for …`, so the compiler's
//! exhaustiveness check stays the proof that every field is classified).
//! Every rule lives in [`rules`] on the [`lexer`]'s token layer — they
//! bind to identifiers, paths, call sites and statement syntax, not
//! substrings, and comments and string contents never reach them. The
//! structural rules cast a wider net than the determinism ones:
//! `examples/` and `crates/bench/src` can also reach the transport, so
//! they are scanned for raw sends and discarded `FlushOutcome`s too (the
//! determinism rules stay library-only — host timing is bench's job, and
//! examples may read the environment).
//!
//! Deliberate exceptions live in `lint-allow.toml` at the workspace root,
//! parsed by [`allow`] (the workspace is dependency-free by design). Every
//! entry names a file, a rule, and a reason; stale entries that no longer
//! match anything are themselves errors, so the allowlist cannot rot.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod allow;
mod lexer;
mod rules;

use allow::parse_allowlist;
use lexer::lex;
use rules::{check_dense, check_determinism, check_sends, check_state_rest};

/// Library source trees under the determinism contract. `bench` (host
/// timing is its job) and this crate are deliberately outside it; test
/// directories are too (asserting over a `HashMap` is harmless).
const CRATES: [&str; 8] = [
    "sim", "vm", "net", "core", "check", "explore", "apps", "plan",
];

/// Extra source trees under the *transport* rules only: examples and the
/// bench harness drive real clusters, so a raw `push_update` there skips
/// costs and fault injection exactly as it would in a library crate.
const TRANSPORT_EXTRA: [&str; 2] = ["examples", "crates/bench/src"];

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

    // (path, under the determinism rules?). The transport and dense
    // rules apply to every scanned file; their own path
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
        let toks = lex(&text);
        let determinism = if *needles {
            check_determinism(&toks)
        } else {
            Vec::new()
        };
        let found = determinism
            .into_iter()
            .chain(check_sends(&rel, &toks))
            .chain(check_dense(&rel, &toks))
            .chain(check_state_rest(&toks));
        for f in found {
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
