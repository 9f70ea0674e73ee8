//! Replayable choice traces.
//!
//! A violating schedule serializes to a small self-describing text file
//! (the workspace carries no serialization dependency) recording the run
//! configuration knobs that shape the choice tree plus the resolved choice
//! list. Replaying the trace under the same binary re-executes exactly
//! that schedule — the recorded `alts` counts are asserted against the
//! replayed run, so a drifted tree is a loud error rather than a silently
//! different schedule.

use dsm_core::{PlantedBug, ProtocolKind};
use dsm_sim::ChoiceKind;

use crate::sched::{Bounds, ChoicePoint};

/// Everything needed to re-execute one explored schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ChoiceTrace {
    /// Application name (registry name, or `regress`).
    pub app: String,
    pub protocol: ProtocolKind,
    pub nprocs: usize,
    /// Iteration cap applied to the app (0 = app default).
    pub iters_cap: usize,
    pub planted: PlantedBug,
    pub bounds: Bounds,
    pub choices: Vec<ChoicePoint>,
}

const HEADER: &str = "dsm-explore trace v1";

impl ChoiceTrace {
    /// Serialize to the text format.
    pub fn to_text(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        // Writing to a String is infallible; the `let _` keeps that local.
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "app {}", self.app);
        let _ = writeln!(out, "protocol {}", self.protocol.label());
        let _ = writeln!(out, "nprocs {}", self.nprocs);
        let _ = writeln!(out, "iters-cap {}", self.iters_cap);
        let _ = writeln!(out, "planted {}", self.planted.label());
        let _ = writeln!(out, "drop-points {}", self.bounds.max_drop_points);
        if self.bounds.max_dup_points > 0 {
            // Written only when the duplicate fault space was enabled, so
            // traces from dup-free explorations (including every committed
            // repro trace) keep their exact legacy bytes.
            let _ = writeln!(out, "dup-points {}", self.bounds.max_dup_points);
        }
        let _ = writeln!(out, "defers {}", self.bounds.max_defers);
        let _ = writeln!(out, "por {}", if self.bounds.por { "on" } else { "off" });
        let _ = writeln!(out, "choices {}", self.choices.len());
        for c in &self.choices {
            let _ = writeln!(out, "{} {}/{}", c.kind.label(), c.chosen, c.alts);
        }
        out
    }

    /// Parse the text format.
    pub fn parse(text: &str) -> Result<ChoiceTrace, String> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("not a trace file (expected '{HEADER}' header)"));
        }
        let mut app = None;
        let mut protocol = None;
        let mut nprocs = None;
        let mut iters_cap = 0usize;
        let mut planted = PlantedBug::None;
        let mut bounds = Bounds::default();
        let mut n_choices = None;
        for line in lines.by_ref() {
            let Some((key, val)) = line.split_once(' ') else {
                return Err(format!("malformed line: '{line}'"));
            };
            match key {
                "app" => app = Some(val.to_string()),
                "protocol" => {
                    protocol = Some(
                        ProtocolKind::from_label(val)
                            .ok_or_else(|| format!("unknown protocol {val}"))?,
                    );
                }
                "nprocs" => nprocs = Some(parse_num(key, val)?),
                "iters-cap" => iters_cap = parse_num(key, val)?,
                "planted" => {
                    planted = PlantedBug::from_label(val)
                        .ok_or_else(|| format!("unknown planted bug {val}"))?;
                }
                "drop-points" => bounds.max_drop_points = parse_num(key, val)?,
                "dup-points" => bounds.max_dup_points = parse_num(key, val)?,
                "defers" => bounds.max_defers = parse_num(key, val)?,
                "por" => bounds.por = val == "on",
                "choices" => {
                    n_choices = Some(parse_num(key, val)?);
                    break;
                }
                other => return Err(format!("unknown key '{other}'")),
            }
        }
        let n_choices = n_choices.ok_or("missing 'choices' count")?;
        let mut choices = Vec::with_capacity(n_choices);
        for line in lines {
            let Some((kind, rest)) = line.split_once(' ') else {
                return Err(format!("malformed choice line: '{line}'"));
            };
            let kind = ChoiceKind::from_label(kind)
                .ok_or_else(|| format!("unknown choice kind '{kind}'"))?;
            let Some((chosen, alts)) = rest.split_once('/') else {
                return Err(format!("malformed choice line: '{line}'"));
            };
            choices.push(ChoicePoint {
                kind,
                chosen: parse_num::<u32>("chosen", chosen)?,
                alts: parse_num::<u32>("alts", alts)?,
            });
        }
        if choices.len() != n_choices {
            return Err(format!(
                "trace declares {n_choices} choices but lists {}",
                choices.len()
            ));
        }
        Ok(ChoiceTrace {
            app: app.ok_or("missing 'app'")?,
            protocol: protocol.ok_or("missing 'protocol'")?,
            nprocs: nprocs.ok_or("missing 'nprocs'")?,
            iters_cap,
            planted,
            bounds,
            choices,
        })
    }
}

fn parse_num<T: core::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("bad number for '{key}': '{val}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let t = ChoiceTrace {
            app: "regress".to_string(),
            protocol: ProtocolKind::LmwU,
            nprocs: 2,
            iters_cap: 0,
            planted: PlantedBug::LmwUCoverageGap,
            bounds: Bounds {
                max_drop_points: 5,
                max_dup_points: 2,
                max_defers: 1,
                por: true,
                state_prune: true,
            },
            choices: vec![
                ChoicePoint {
                    kind: ChoiceKind::Drop,
                    chosen: 1,
                    alts: 2,
                },
                ChoicePoint {
                    kind: ChoiceKind::Delivery,
                    chosen: 2,
                    alts: 3,
                },
            ],
        };
        let parsed = ChoiceTrace::parse(&t.to_text()).unwrap();
        assert_eq!(parsed.app, t.app);
        assert_eq!(parsed.protocol, t.protocol);
        assert_eq!(parsed.nprocs, t.nprocs);
        assert_eq!(parsed.planted, t.planted);
        assert_eq!(parsed.bounds.max_drop_points, 5);
        assert_eq!(parsed.bounds.max_dup_points, 2);
        assert_eq!(parsed.bounds.max_defers, 1);
        assert!(parsed.bounds.por);
        assert_eq!(parsed.choices, t.choices);
    }

    #[test]
    fn dup_free_trace_keeps_legacy_bytes() {
        let t = ChoiceTrace {
            app: "regress".to_string(),
            protocol: ProtocolKind::LmwU,
            nprocs: 2,
            iters_cap: 0,
            planted: PlantedBug::None,
            bounds: Bounds::default(),
            choices: vec![],
        };
        let text = t.to_text();
        assert!(
            !text.contains("dup-points"),
            "default bounds must serialize without the dup-points key"
        );
        let parsed = ChoiceTrace::parse(&text).unwrap();
        assert_eq!(parsed.bounds.max_dup_points, 0, "missing key defaults to 0");
    }

    #[test]
    fn rejects_garbage() {
        assert!(ChoiceTrace::parse("not a trace").is_err());
        assert!(ChoiceTrace::parse("dsm-explore trace v1\nbogus-key 3\n").is_err());
        assert!(
            ChoiceTrace::parse(
                "dsm-explore trace v1\napp x\nprotocol lmw-u\nnprocs 2\nchoices 2\ndrop 0/2\n"
            )
            .is_err(),
            "declared/listed choice count mismatch"
        );
    }
}
