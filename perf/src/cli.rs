//! The command line both bins share.
//!
//! ```text
//! perf --workload W [--seed N] [--seconds S] [--trace 0|1]
//! perf all [--seed N] [--seconds S] [--save FILE]
//! perf verify A.json[,A2.json,..] B.json[,B2.json,..]
//! perf jobs W
//! ```
//!
//! The first form is the benchmark contract's: one workload in this
//! process, the result object as the last line of stdout. `--trace 0`
//! prints every end-to-end metric, `--trace 1` every per-layer metric.
//! `perf` and `perf-trace` accept the same arguments; they differ only in
//! the allocator (`perf-trace` counts, so its `alloc.*` are non-zero), and
//! `perf/run.sh` picks the bin from `--trace`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::exec::{timed_run, Pass, Prepared};
use crate::jobs::{workload, Workload, WORKLOADS};
use crate::json::Value;
use crate::layers::{traced_run, AllocCounters};
use crate::meter::{Meter, CAL_REF_S};
use crate::metrics::{median, quartiles, MetricSet};

/// The repo default of `SimConfig.seed`.
const DEFAULT_SEED: u64 = 0x5EED_CAFE;
/// Long enough for five passes of the longest workload on the reference
/// host; `BENCHMARK.json` passes its own `run_seconds`.
const DEFAULT_SECONDS: f64 = 14.0;

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  perf --workload W [--seed N] [--seconds S] [--trace 0|1]\n  \
         perf all [--seed N] [--seconds S] [--save FILE]\n  \
         perf verify A.json[,A2.json,..] B.json[,B2.json,..]\n  perf jobs W\nworkloads: {}",
        names.join(", ")
    )
}

/// Flag/value pairs after the subcommand; every flag takes one value.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn parse_seed(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("--seed {v:?} is not a whole number"))
}

fn parse_seconds(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(s) if s > 0.0 && s <= 3600.0 => Ok(s),
        _ => Err(format!("--seconds {v:?} is not in (0, 3600]")),
    }
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workload(name).ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: &WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut named = false;
    for (flag, value) in flags(args, &["--workload", "--seed", "--seconds", "--trace"])? {
        match flag.as_str() {
            "--workload" => {
                run.workload = find_workload(&value)?;
                named = true;
            }
            "--seed" => run.seed = parse_seed(&value)?,
            "--seconds" => run.seconds = parse_seconds(&value)?,
            _ => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                }
            }
        }
    }
    if named {
        Ok(run)
    } else {
        Err(format!("--workload is required\n{}", usage()))
    }
}

/// Entry point of both bins. `alloc` is the counting allocator's counters
/// in `perf-trace`, `None` in `perf`.
pub fn main(alloc: Option<&'static AllocCounters>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => Err(usage()),
        Some("all") => all(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("jobs") => jobs(&args[1..]),
        // The result object carries correctness; the exit status only
        // says whether one was printed.
        Some(_) => parse_run(&args).map(|run| {
            if run.trace {
                run_traced(&run, alloc);
            } else {
                run_timed(&run);
            }
            true
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

fn report_failures(pass: &Pass, prepared: &Prepared, label: &str) {
    for (job, o) in prepared.jobs.iter().zip(&pass.outcomes) {
        if let Some(why) = &o.failure {
            eprintln!(
                "FAILED {}/{} ({label}): {why}",
                prepared.workload.name, job.name
            );
        }
    }
}

/// The contract's result object, as the last line of stdout.
fn print_result(attempted: usize, failed: usize, metrics: &MetricSet) {
    let line = Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{}", line.render());
}

/// `--trace 0`: the timed run, then every end-to-end metric.
fn run_timed(run: &RunArgs) {
    let w = run.workload;
    let t = timed_run(w, run.seed, run.seconds);
    report_failures(&t.warmup, &t.prepared, "warm-up");
    for (k, pass) in t.passes.iter().enumerate() {
        report_failures(pass, &t.prepared, &format!("pass {}", k + 1));
    }
    let (attempted, failed) = t.attempted_failed();
    let m = t.metrics();

    let raw: Vec<f64> = t.passes.iter().map(|p| p.time().raw_s).collect();
    let norm: Vec<f64> = t.passes.iter().map(|p| p.time().norm_s).collect();
    let (q1, q3) = quartiles(&norm);
    println!(
        "{}: seed {} · {} jobs · {} timed passes (+1 warm-up) · normalised pass q1 {q1:.4} q3 {q3:.4} s",
        w.name,
        run.seed,
        t.prepared.jobs.len(),
        t.passes.len()
    );
    println!(
        "  raw pass median {:.4} s · calibration slice {:.4} ms (reference {:.4} ms)",
        median(&raw),
        t.mean_slice_s * 1e3,
        CAL_REF_S * 1e3
    );
    println!(
        "  work per pass: {} {} · sim_elapsed_ms {:.6} · failed {failed} of {attempted} jobs",
        t.warmup.work(),
        w.work_unit,
        t.warmup.sim_elapsed_ns() as f64 / 1e6
    );
    print!("{}", m.table());
    let nums = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect());
    let setups: Vec<f64> = t.setups.iter().map(|s| s.norm_s).collect();
    let samples = Value::obj([
        ("wall_s", nums(&norm)),
        ("raw_wall_s", nums(&raw)),
        ("setup_s", nums(&setups)),
        ("work", Value::Num(t.warmup.work())),
        ("work_unit", Value::Str(w.work_unit.to_string())),
    ]);
    println!("samples {}", samples.render());
    print_result(attempted, failed, &m);
}

/// `--trace 1`: one set-up, the traced pass and probes, then every
/// per-layer metric; the span table and a Chrome trace go to `perf/out/`.
fn run_traced(run: &RunArgs, alloc: Option<&AllocCounters>) {
    let w = run.workload;
    let prepared = Prepared::new(w, run.seed, &mut Meter::new());
    let traced = traced_run(&prepared, alloc);
    report_failures(&traced.pass, &prepared, "traced pass");
    let failed = traced.pass.failed();
    println!(
        "{}: seed {} · {} jobs · 1 traced pass · {} spans",
        w.name,
        run.seed,
        prepared.jobs.len(),
        traced.tracer.spans().len()
    );
    print!("{}", traced.layers.table());
    match write_trace_files(&prepared, &traced.tracer, &traced.layers) {
        Ok(Some(dir)) => println!("trace files under {}", dir.display()),
        Ok(None) => eprintln!("no perf/ directory here: trace files not written"),
        Err(e) => eprintln!("trace files not written: {e}"),
    }
    print_result(prepared.jobs.len(), failed, &traced.layers);
}

/// `perf/out/` under the current directory, if this is a checkout root.
fn out_dir() -> std::io::Result<Option<PathBuf>> {
    if !Path::new("perf/Cargo.toml").is_file() {
        return Ok(None);
    }
    let dir = PathBuf::from("perf/out");
    std::fs::create_dir_all(&dir)?;
    Ok(Some(dir))
}

fn write_trace_files(
    prepared: &Prepared,
    tracer: &crate::span::Tracer,
    layers: &MetricSet,
) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = out_dir()? else {
        return Ok(None);
    };
    let names: Vec<String> = prepared.jobs.iter().map(|j| j.name.clone()).collect();
    let stem = format!("{}-{}", prepared.workload.name, prepared.seed);
    std::fs::write(
        dir.join(format!("trace-{stem}.json")),
        tracer.chrome_trace(&names).render(),
    )?;
    std::fs::write(dir.join(format!("layers-{stem}.txt")), layers.table())?;
    Ok(Some(dir))
}

fn jobs(args: &[String]) -> Result<bool, String> {
    let [name] = args else {
        return Err(usage());
    };
    for job in find_workload(name)?.jobs() {
        println!("{}", job.name);
    }
    Ok(true)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn verify(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let side = |list: &str| {
        list.split(',')
            .map(read_json)
            .collect::<Result<Vec<_>, _>>()
    };
    let bench = read_json("BENCHMARK.json")?;
    let verdict = crate::verify::verify(&bench, &side(a)?, &side(b)?)?;
    print!("{}", verdict.table);
    println!(
        "{} regression(s), {} unresolved",
        verdict.regressions, verdict.unresolved
    );
    Ok(verdict.regressions == 0)
}

fn first_line_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::Str(cpu)),
        (
            "rustc",
            Value::Str(first_line_of(Command::new("rustc").arg("--version"))),
        ),
    ])
}

/// Run one child of `perf all` and parse its last stdout line (and its
/// `samples` line, when it printed one).
fn child(exe: &Path, args: &[String]) -> Result<(Value, Option<Value>), String> {
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result =
        Value::parse(last).map_err(|e| format!("{} printed no result line: {e}", exe.display()))?;
    let samples = stdout
        .lines()
        .find_map(|l| l.strip_prefix("samples "))
        .and_then(|l| Value::parse(l).ok());
    Ok((result, samples))
}

/// Every workload, one process each (so `peak_rss_mb` is the workload's
/// own): the timed run through this binary, then the traced run through
/// the sibling `perf-trace` when it has been built.
fn all(args: &[String]) -> Result<bool, String> {
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut save = None;
    for (flag, value) in flags(args, &["--seed", "--seconds", "--save"])? {
        match flag.as_str() {
            "--seed" => seed = parse_seed(&value)?,
            "--seconds" => seconds = parse_seconds(&value)?,
            _ => save = Some(PathBuf::from(value)),
        }
    }
    let me = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let tracer = me.with_file_name("perf-trace");
    if !tracer.is_file() {
        eprintln!(
            "{} not built: per-layer metrics skipped \
             (cargo build --release --manifest-path perf/Cargo.toml --bins)",
            tracer.display()
        );
    }
    let mut ok = true;
    let mut sets = Vec::new();
    for w in &WORKLOADS {
        let base = |trace: &str| -> Vec<String> {
            [
                "--workload",
                w.name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                trace,
            ]
            .map(str::to_string)
            .to_vec()
        };
        let field = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
        let correct = |v: &Value| v.get("correct").and_then(Value::as_bool) == Some(true);
        let (timed, samples) = child(&me, &base("0"))?;
        ok &= correct(&timed);
        let mut entry = vec![
            ("attempted".to_string(), field(&timed, "attempted")),
            ("failed".to_string(), field(&timed, "failed")),
            ("end_to_end".to_string(), field(&timed, "metrics")),
            ("samples".to_string(), samples.unwrap_or(Value::Null)),
        ];
        if tracer.is_file() {
            let (traced, _) = child(&tracer, &base("1"))?;
            ok &= correct(&traced);
            entry.push(("per_layer".to_string(), field(&traced, "metrics")));
        }
        sets.push((w.name.to_string(), Value::Obj(entry)));
        println!();
    }
    let set = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("host", host()),
        ("workloads", Value::Obj(sets)),
    ]);
    let path = match save {
        Some(p) => Some(p),
        None => out_dir()
            .map_err(|e| format!("cannot create perf/out: {e}"))?
            .map(|d| d.join(format!("results-{seed}.json"))),
    };
    match path {
        Some(p) => {
            std::fs::write(&p, set.render_pretty())
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            println!("result set written to {}", p.display());
        }
        None => eprintln!("no perf/ directory here and no --save: result set not written"),
    }
    Ok(ok)
}
