//! The results manifest: the one record of which `dsm` command line, with
//! which exact arguments, regenerates which committed file under
//! `results/` — plus the gates that have no file and are only an exit
//! status. `dsm list` prints it; `dsm regen` runs it, rewriting the files
//! or (`--check`) byte-comparing them; CI and the docs call or cite it
//! rather than restating it.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::cli::{CliError, Flags};
use crate::harness;

/// Which CI job regenerates an entry: every push's fast gate, or the
/// long-running full matrices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    Smoke,
    Full,
}

impl Tier {
    pub fn label(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Full => "full",
        }
    }
}

/// One regenerable artifact, or one exit-status gate.
pub struct Entry {
    pub name: &'static str,
    pub tier: Tier,
    /// The subcommand and its exact arguments, space-separated.
    pub command: &'static str,
    /// The committed files the command regenerates. One whose path, or
    /// whose parent directory, is an argument is written by the command;
    /// the one no argument names is its stdout. Empty for a gate.
    pub outputs: &'static [&'static str],
}

const fn entry(
    name: &'static str,
    tier: Tier,
    command: &'static str,
    outputs: &'static [&'static str],
) -> Entry {
    Entry {
        name,
        tier,
        command,
        outputs,
    }
}

use Tier::{Full, Smoke};

// One row per entry: a table reads better unwrapped.
#[rustfmt::skip]
pub static MANIFEST: [Entry; 19] = [
    entry("paper", Smoke, "paper results", &["results/table1.txt", "results/fig2.txt", "results/fig3.txt", "results/fig4.txt", "results/summary.txt", "results/apptable.txt"]),
    entry("sweep", Smoke, "sweep", &["results/sweep.txt"]),
    entry("checked-baseline", Smoke, "checked --protocols lmw-i,bar-i,bar-u", &["results/checked-baseline.txt"]),
    entry("checked-smoke", Smoke, "checked --apps jacobi --protocols bar-u --nprocs 4", &[]),
    entry("explore-smoke", Smoke, "explore --apps jacobi --protocols lmw-u,bar-u --nprocs 2 --iters-cap 2 --budget 500", &["results/explore-smoke.txt"]),
    entry("explore-replay", Smoke, "explore --replay results/repro/lmw-u-coverage-gap.trace", &[]),
    entry("plan-small", Smoke, "plan --scale small", &["results/plan-small.txt"]),
    entry("plan-paper", Smoke, "plan --scale paper", &["results/plan-paper.txt"]),
    entry("regions-small", Smoke, "regions --scale small", &["results/regions-small.txt"]),
    entry("regions-paper", Smoke, "regions --scale paper", &["results/regions-paper.txt"]),
    entry("scale-smoke", Smoke, "scale --smoke", &["results/scale-smoke.txt"]),
    entry("campaign-smoke", Smoke, "campaign --smoke", &["results/campaign-smoke.txt"]),
    entry("transport-small", Smoke, "transport --scale small", &["results/transport-small.txt"]),
    entry("transport-paper", Full, "transport --scale paper", &["results/transport-paper.txt"]),
    entry("scale-paper", Full, "scale", &["results/scale-paper.txt"]),
    entry("campaign", Full, "campaign", &["results/campaign.txt"]),
    entry("campaign-od-paper", Full, "campaign --protocols bar-s,bar-m --nprocs 8 --scale paper", &["results/campaign-od-paper.txt"]),
    entry("campaign-od-n64", Full, "campaign --protocols bar-u,bar-s,bar-m,bar-r --nprocs 64 --scale small", &["results/campaign-od-n64.txt"]),
    entry("explore-baseline", Full, "explore --por-factor --hunt --save-trace results/repro/lmw-u-coverage-gap.trace", &["results/explore-baseline.txt", "results/repro/lmw-u-coverage-gap.trace"]),
];

pub const LIST_USAGE: &str = "usage: dsm list";

/// The manifest, one entry per line: name, tier, and the command line in
/// shell notation — `> file` is where its stdout is committed, and
/// `# writes ..` names the files it writes into a directory argument.
pub fn render_list() -> String {
    let mut out = String::new();
    for e in &MANIFEST {
        let _ = write!(
            out,
            "{:<17}  {:<5}  dsm {}",
            e.name,
            e.tier.label(),
            e.command
        );
        let route = e.route(false);
        if let Some(stdout) = route.outputs.iter().find(|o| o.written.is_none()) {
            let _ = write!(out, " > {}", stdout.committed);
        }
        let inside: Vec<&str> = route
            .outputs
            .iter()
            .filter(|o| o.written.is_some() && !route.argv.iter().any(|a| a == o.committed))
            .map(|o| base(o.committed))
            .collect();
        if !inside.is_empty() {
            let _ = write!(out, "  # writes {}", inside.join(" "));
        }
        out.push('\n');
    }
    out
}

/// `dsm list`: print the manifest.
pub fn list(flags: Flags) -> Result<ExitCode, CliError> {
    flags.none()?;
    print!("{}", render_list());
    Ok(ExitCode::SUCCESS)
}

pub const REGEN_USAGE: &str = "usage: dsm regen [--check] [--tier smoke|full] [name..]";

fn base(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Where `--check` writes, or keeps, a regenerated copy of `path`.
fn out_name(path: &str) -> String {
    format!("{}.out", base(path))
}

/// How `regen` runs one entry: a pure function of the entry's command,
/// its outputs and `--check`.
#[derive(Debug)]
struct Route {
    /// The child's arguments.
    argv: Vec<String>,
    /// Each argument `--check` swapped for a scratch path.
    swaps: Vec<Swap>,
    /// Each output, in manifest order.
    outputs: Vec<Routed>,
}

#[derive(Debug)]
struct Swap {
    arg: &'static str,
    scratch: String,
    /// The argument is the parent directory of outputs, not an output.
    dir: bool,
}

#[derive(Debug)]
struct Routed {
    committed: &'static str,
    /// Where the child writes it; `None` for the child's stdout.
    written: Option<String>,
    /// Where `--check` keeps it when it differs: a `*.out` in the cwd.
    kept: String,
}

/// Whether `arg` names `output`: it is the output's path or its parent
/// directory.
fn names(arg: &str, output: &str) -> bool {
    arg == output || Path::new(output).parent() == Some(Path::new(arg))
}

impl Entry {
    /// The argv/output mapping. An output an argument names is written by
    /// the command — under `check`, into that argument's scratch path, so
    /// no committed path reaches the child; the one output no argument
    /// names is the child's stdout.
    fn route(&self, check: bool) -> Route {
        let args: Vec<&'static str> = self.command.split(' ').collect();
        let swaps: Vec<Swap> = args
            .iter()
            .filter(|&&arg| check && self.outputs.iter().any(|o| names(arg, o)))
            .map(|&arg| Swap {
                arg,
                scratch: out_name(arg),
                dir: !self.outputs.contains(&arg),
            })
            .collect();
        let swapped = |arg: &str| {
            swaps
                .iter()
                .find(|s| s.arg == arg)
                .map_or(arg.to_string(), |s| s.scratch.clone())
        };
        let outputs = self
            .outputs
            .iter()
            .map(|&committed| {
                let written = args.iter().find(|&&a| names(a, committed)).map(|&a| {
                    if a == committed {
                        swapped(a)
                    } else {
                        format!("{}/{}", swapped(a), base(committed))
                    }
                });
                let kept = match written {
                    Some(_) => out_name(committed),
                    None => format!("{}.out", self.name),
                };
                Routed {
                    committed,
                    written,
                    kept,
                }
            })
            .collect();
        Route {
            argv: args.iter().map(|a| swapped(a)).collect(),
            swaps,
            outputs,
        }
    }

    /// Run the entry's command line as a child `dsm`. Without `check`,
    /// overwrite the committed files; with it, leave them alone,
    /// byte-compare, and keep what differs as a `*.out` in the cwd. The
    /// verdict is `ok`, `DIFF`, or `FAIL` for a nonzero exit.
    fn regen(&self, exe: &Path, check: bool) -> Result<&'static str, CliError> {
        let io = |what: &str, e: &std::io::Error| CliError(format!("{what}: {e}"));
        let read = |path: &str| std::fs::read(path).map_err(|e| io(path, &e));
        let route = self.route(check);
        for s in route.swaps.iter().filter(|s| s.dir) {
            std::fs::create_dir_all(&s.scratch).map_err(|e| io(&s.scratch, &e))?;
        }
        let mut child = Command::new(exe);
        if let Some(jobs) = harness::jobs() {
            child.arg("--jobs").arg(jobs.to_string());
        }
        let out = child
            .args(&route.argv)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| io("cannot run dsm", &e))?;
        let mut same = true;
        if check {
            for o in &route.outputs {
                let Some(written) = &o.written else { continue };
                match std::fs::read(written) {
                    Ok(bytes) if bytes == read(o.committed)? => {
                        std::fs::remove_file(written).map_err(|e| io(written, &e))?;
                    }
                    Ok(_) => {
                        std::fs::rename(written, &o.kept).map_err(|e| io(written, &e))?;
                        same = false;
                    }
                    // Not written: the child failed, or the entry is stale.
                    Err(_) => same = false,
                }
            }
            for s in route.swaps.iter().filter(|s| s.dir) {
                std::fs::remove_dir(&s.scratch).map_err(|e| io(&s.scratch, &e))?;
            }
        }
        if !out.status.success() {
            return Ok("FAIL");
        }
        if let Some(o) = route.outputs.iter().find(|o| o.written.is_none()) {
            if !check {
                std::fs::write(o.committed, &out.stdout).map_err(|e| io(o.committed, &e))?;
                return Ok("ok");
            }
            // The report echoes the paths it wrote to.
            let mut stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            for s in &route.swaps {
                stdout = stdout.replace(&s.scratch, s.arg);
            }
            if read(o.committed)? != stdout.as_bytes() {
                std::fs::write(&o.kept, &stdout).map_err(|e| io(&o.kept, &e))?;
                same = false;
            }
        }
        Ok(if same { "ok" } else { "DIFF" })
    }
}

/// `dsm regen`: regenerate (or `--check`) the named entries, or every
/// entry of the tier, or the whole manifest.
pub fn regen(mut flags: Flags) -> Result<ExitCode, CliError> {
    let mut check = false;
    let mut tier = None;
    let mut names: Vec<String> = Vec::new();
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--check" => check = true,
            "--tier" => {
                let val = flags.value()?;
                tier = Some(
                    [Smoke, Full]
                        .into_iter()
                        .find(|t| t.label() == val)
                        .ok_or_else(|| CliError(format!("unknown tier {val:?}")))?,
                );
            }
            other if other.starts_with('-') => return Err(CliError::unknown_flag(other)),
            name if MANIFEST.iter().any(|e| e.name == name) => names.push(flag),
            name => return Err(CliError(format!("unknown manifest entry {name:?}"))),
        }
    }
    if !Path::new("results").is_dir() {
        return Err(CliError(
            "no results/ here: run from the workspace root".to_string(),
        ));
    }
    let exe =
        std::env::current_exe().map_err(|e| CliError(format!("cannot locate dsm itself: {e}")))?;
    let mut failed: Vec<&str> = Vec::new();
    for e in &MANIFEST {
        let picked = tier.is_none_or(|t| e.tier == t)
            && (names.is_empty() || names.iter().any(|n| n == e.name));
        if !picked {
            continue;
        }
        let verdict = e.regen(&exe, check)?;
        println!("{verdict:<4}  {}", e.name);
        if verdict != "ok" {
            failed.push(e.name);
        }
    }
    if failed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("regen: {} failed: {}", failed.len(), failed.join(", "));
    Ok(ExitCode::FAILURE)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn route(name: &str, check: bool) -> Route {
        MANIFEST
            .iter()
            .find(|e| e.name == name)
            .expect("a manifest entry")
            .route(check)
    }

    fn written(r: &Route) -> Vec<Option<&str>> {
        r.outputs.iter().map(|o| o.written.as_deref()).collect()
    }

    #[test]
    fn stdout_only() {
        for check in [false, true] {
            let r = route("plan-small", check);
            assert_eq!(r.argv, ["plan", "--scale", "small"]);
            assert_eq!(written(&r), [None]);
            assert_eq!(r.outputs[0].kept, "plan-small.out");
            assert!(r.swaps.is_empty());
        }
    }

    #[test]
    fn stdout_and_a_named_side_file() {
        let trace = "results/repro/lmw-u-coverage-gap.trace";
        let r = route("explore-baseline", false);
        assert_eq!(r.argv.last().map(String::as_str), Some(trace));
        assert_eq!(written(&r), [None, Some(trace)]);
        let r = route("explore-baseline", true);
        let tmp = "lmw-u-coverage-gap.trace.out";
        assert_eq!(r.argv.last().map(String::as_str), Some(tmp));
        assert_eq!(written(&r), [None, Some(tmp)]);
        let kept: Vec<&str> = r.outputs.iter().map(|o| o.kept.as_str()).collect();
        assert_eq!(kept, ["explore-baseline.out", tmp]);
        assert!(matches!(&r.swaps[..], [Swap { arg, dir: false, .. }] if *arg == trace));
    }

    #[test]
    fn a_directory_of_files() {
        let r = route("paper", false);
        assert_eq!(r.argv, ["paper", "results"]);
        for o in &r.outputs {
            assert_eq!(o.written.as_deref(), Some(o.committed));
        }
        let r = route("paper", true);
        assert_eq!(r.argv, ["paper", "results.out"]);
        assert!(matches!(
            &r.swaps[..],
            [Swap {
                arg: "results",
                dir: true,
                ..
            }]
        ));
        for o in &r.outputs {
            let file = base(o.committed);
            assert_eq!(o.written, Some(format!("results.out/{file}")));
            assert_eq!(o.kept, format!("{file}.out"));
        }
    }

    #[test]
    fn check_keeps_committed_paths_out_of_argv_and_mismatches_at_the_root() {
        let mut kept = BTreeSet::new();
        for e in &MANIFEST {
            let r = e.route(true);
            for arg in &r.argv {
                assert!(
                    !e.outputs.iter().any(|o| names(arg, o)),
                    "{}: {arg} reaches the child",
                    e.name
                );
            }
            let stdout = r.outputs.iter().filter(|o| o.written.is_none()).count();
            assert!(stdout <= 1, "{}: {stdout} outputs are stdout", e.name);
            for o in r.outputs {
                assert_ne!(o.written.as_deref(), Some(o.committed), "{}", e.name);
                // What CI's failure upload collects: `*.out` in the cwd.
                let kept_at = Path::new(&o.kept);
                assert!(
                    kept_at.parent() == Some(Path::new(""))
                        && kept_at.extension() == Some("out".as_ref()),
                    "{}: kept as {}",
                    e.name,
                    o.kept
                );
                assert!(kept.insert(o.kept), "two mismatches kept as one file");
            }
        }
    }
}
