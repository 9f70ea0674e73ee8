//! Command-line parsing shared by every `dsm` subcommand.
//!
//! A command line comes from outside the process, so a bad one is a typed
//! error — one line saying why, printed above the subcommand's usage, exit
//! status 2 — never a panic. The same goes for a file a flag names.

use std::str::FromStr;

use dsm_apps::{all_apps, app_by_name, AppSpec, Scale};
use dsm_core::{DsmApp, ProtocolKind};
use dsm_explore::{CappedApp, ChoiceTrace, RegressApp};

/// The one-line reason a command line, or a file it names, is unusable.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl CliError {
    pub fn unknown_flag(flag: &str) -> CliError {
        CliError(format!("unknown flag {flag:?}"))
    }
}

/// The argument stream: flags, and the values that follow them.
pub struct Flags {
    it: std::vec::IntoIter<String>,
    flag: String,
}

impl Flags {
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags {
            it: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
        }
    }

    /// The next flag, if any; [`Flags::value`] then reads its value.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.it.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value.
    pub fn value(&mut self) -> Result<String, CliError> {
        let flag = &self.flag;
        self.it
            .next()
            .ok_or_else(|| CliError(format!("{flag} needs a value")))
    }

    /// The current flag's value, parsed.
    pub fn parsed<T: FromStr>(&mut self) -> Result<T, CliError> {
        let val = self.value()?;
        let flag = &self.flag;
        val.parse()
            .map_err(|_| CliError(format!("{flag} needs a number, not {val:?}")))
    }

    /// The command line of a subcommand that takes no arguments.
    pub fn none(mut self) -> Result<(), CliError> {
        match self.next_flag() {
            Some(flag) => Err(CliError::unknown_flag(&flag)),
            None => Ok(()),
        }
    }

    /// The command line of a report that takes `--scale` and nothing else,
    /// and has no default for it.
    pub fn scale_only(mut self) -> Result<Scale, CliError> {
        let mut scale = None;
        while let Some(flag) = self.next_flag() {
            match flag.as_str() {
                "--scale" => scale = Some(parse_scale(&self.value()?)?),
                other => return Err(CliError::unknown_flag(other)),
            }
        }
        scale.ok_or_else(|| CliError("--scale is required".to_string()))
    }
}

fn parse_scale(val: &str) -> Result<Scale, CliError> {
    [Scale::Small, Scale::Paper]
        .into_iter()
        .find(|s| s.label() == val)
        .ok_or_else(|| CliError(format!("unknown scale {val:?}")))
}

/// What `--apps`, `--protocols`, `--nprocs` and `--scale` select.
pub struct Matrix {
    pub apps: Vec<&'static str>,
    pub protocols: Vec<ProtocolKind>,
    pub nprocs: usize,
    pub scale: Scale,
}

impl Matrix {
    /// Every registered app under `protocols`, at the given defaults.
    pub fn new(protocols: &[ProtocolKind], nprocs: usize, scale: Scale) -> Matrix {
        Matrix {
            apps: all_apps().iter().map(|s| s.name).collect(),
            protocols: protocols.to_vec(),
            nprocs,
            scale,
        }
    }

    /// Parse a command line that takes the four flags and no others.
    pub fn parse(mut self, mut flags: Flags) -> Result<Matrix, CliError> {
        while let Some(flag) = flags.next_flag() {
            if !self.take(&mut flags)? {
                return Err(CliError::unknown_flag(&flag));
            }
        }
        Ok(self)
    }

    /// The app × protocol cells, app-major.
    pub fn cells(&self) -> Vec<(AppSpec, ProtocolKind)> {
        self.apps
            .iter()
            .flat_map(|app| {
                let spec = app_by_name(app).expect("app names are checked where they enter");
                self.protocols.iter().map(move |&p| (spec, p))
            })
            .collect()
    }

    /// Reject a one-process matrix: the fault and backend sweeps compare
    /// what crosses the wire, and one process sends nothing.
    pub fn multiprocess(self) -> Result<Matrix, CliError> {
        if self.nprocs < 2 {
            return Err(CliError("--nprocs needs at least 2 here".to_string()));
        }
        Ok(self)
    }

    /// Consume the current flag if it is one of the four; `Ok(false)`
    /// leaves it to the caller.
    pub fn take(&mut self, flags: &mut Flags) -> Result<bool, CliError> {
        match flags.flag.as_str() {
            "--apps" => {
                self.apps = flags
                    .value()?
                    .split(',')
                    .map(|a| {
                        app_by_name(a)
                            .map(|spec| spec.name)
                            .ok_or_else(|| CliError(format!("unknown app {a:?}")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--protocols" => {
                self.protocols = flags
                    .value()?
                    .split(',')
                    .map(|l| {
                        ProtocolKind::from_label(l)
                            .ok_or_else(|| CliError(format!("unknown protocol {l:?}")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--nprocs" => {
                let val = flags.value()?;
                // The checker stamps pids into 16 bits, one value reserved.
                self.nprocs = match val.parse() {
                    Ok(n) if (1..usize::from(u16::MAX)).contains(&n) => n,
                    _ => {
                        return Err(CliError(format!(
                            "--nprocs needs an integer in 1..65535, not {val:?}"
                        )))
                    }
                };
            }
            "--scale" => self.scale = parse_scale(&flags.value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Read and parse a saved choice trace, checking that it names an app
/// [`trace_app`] can build.
pub fn read_trace(path: &str) -> Result<ChoiceTrace, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read trace {path:?}: {e}")))?;
    let trace =
        ChoiceTrace::parse(&text).map_err(|e| CliError(format!("bad trace {path:?}: {e}")))?;
    if trace.app != "regress" && app_by_name(&trace.app).is_none() {
        return Err(CliError(format!(
            "trace {path:?} names unknown app {:?}",
            trace.app
        )));
    }
    Ok(trace)
}

/// Build the application a trace (or the planted-bug hunt) names: the
/// purpose-built regression app, or a registry app capped to the
/// exploration iteration budget.
pub fn trace_app(name: &str, iters_cap: usize) -> Box<dyn DsmApp> {
    if name == "regress" {
        Box::new(RegressApp::new())
    } else {
        let spec = app_by_name(name).expect("app names are checked where they enter");
        Box::new(CappedApp::new(spec.build(Scale::Small), iters_cap))
    }
}
