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
    /// The committed files the command regenerates: the first is its
    /// stdout, a second is a file its arguments name. Empty for a gate.
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
pub static MANIFEST: [Entry; 25] = [
    entry("table1", Smoke, "table1", &["results/table1.txt"]),
    entry("fig2", Smoke, "fig2", &["results/fig2.txt"]),
    entry("fig3", Smoke, "fig3", &["results/fig3.txt"]),
    entry("fig4", Smoke, "fig4", &["results/fig4.txt"]),
    entry("summary", Smoke, "summary", &["results/summary.txt"]),
    entry("sweep", Smoke, "sweep", &["results/sweep.txt"]),
    entry("apptable", Smoke, "apptable", &["results/apptable.txt"]),
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
    entry("travel", Full, "travel", &[]),
];

pub const LIST_USAGE: &str = "usage: dsm list";

/// The manifest, one entry per line: name, tier, and the command line in
/// shell notation — `> file` is where its stdout is committed.
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
        if let Some(file) = e.outputs.first() {
            let _ = write!(out, " > {file}");
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

/// Where `--check` leaves a regenerated copy that differs from `path`.
fn out_name(path: &str) -> String {
    let base = path.rsplit('/').next().unwrap_or(path);
    format!("{base}.out")
}

impl Entry {
    /// Run the entry's command line as a child `dsm`. Without `check`,
    /// overwrite the committed files; with it, leave them alone,
    /// byte-compare, and keep what differs as `<name>.out`. The verdict is
    /// `ok`, `DIFF`, or `FAIL` for a nonzero exit.
    fn regen(&self, exe: &Path, check: bool) -> Result<&'static str, CliError> {
        let io = |what: &str, e: &std::io::Error| CliError(format!("{what}: {e}"));
        let read = |path: &str| std::fs::read(path).map_err(|e| io(path, &e));
        // Under --check the file the arguments name is written beside the
        // stdout copy, not over the committed one.
        let side = self
            .outputs
            .get(1)
            .filter(|_| check)
            .map(|path| (*path, out_name(path)));
        let mut child = Command::new(exe);
        if let Some(jobs) = harness::jobs() {
            child.arg("--jobs").arg(jobs.to_string());
        }
        for arg in self.command.split(' ') {
            match &side {
                Some((path, tmp)) if arg == *path => child.arg(tmp),
                _ => child.arg(arg),
            };
        }
        let out = child
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| io("cannot run dsm", &e))?;
        if !out.status.success() {
            return Ok("FAIL");
        }
        let Some(file) = self.outputs.first() else {
            return Ok("ok");
        };
        if !check {
            std::fs::write(file, &out.stdout).map_err(|e| io(file, &e))?;
            return Ok("ok");
        }
        let mut same = true;
        let mut stdout = out.stdout;
        if let Some((path, tmp)) = &side {
            // The report echoes the path it saved to.
            stdout = String::from_utf8_lossy(&stdout)
                .replace(tmp, path)
                .into_bytes();
            if read(tmp)? == read(path)? {
                std::fs::remove_file(tmp).map_err(|e| io(tmp, &e))?;
            } else {
                same = false;
            }
        }
        if read(file)? != stdout {
            let kept = format!("{}.out", self.name);
            std::fs::write(&kept, &stdout).map_err(|e| io(&kept, &e))?;
            same = false;
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
