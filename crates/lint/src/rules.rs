//! The lint rules, on the token layer.
//!
//! These bind to syntax, not substrings: banned names are identifier and
//! path-segment tokens, call sites are identifier-followed-by-`(` tokens
//! (never `fn` definitions), statement boundaries are `;`/`{`/`}` tokens,
//! and the pid-width and rest-pattern rules match token sequences, so
//! prose, strings, and creative formatting can neither trigger nor dodge
//! them.

use crate::lexer::{Tok, TokKind};

/// One rule finding: source line, rule id, message.
#[derive(Debug)]
pub struct Finding {
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

/// Source prefixes allowed to call the network's verbs.
pub const SEND_ALLOWED: [&str; 3] = [
    "crates/net/src/",
    "crates/core/src/proto/",
    "crates/core/src/drive/",
];

/// Source trees under the sparse-scaling contract (`dense-by-nodes`).
pub const DENSE_SCOPE: [&str; 2] = ["crates/core/src/proto/", "crates/check/src/"];

/// The node-count-indexed allocation check only applies to per-page
/// protocol state; one-entry-per-process vectors elsewhere are fine.
pub const DENSE_ALLOC_SCOPE: [&str; 1] = ["crates/core/src/proto/"];

/// One determinism rule: names library code must not mention, and the
/// contract they would break. `idents` match anywhere; `segments` only as
/// a path segment (next to a `::`), so a local called `env` is fine.
struct Banned {
    rule: &'static str,
    idents: &'static [&'static str],
    segments: &'static [&'static str],
    why: &'static str,
}

const BANNED: [Banned; 5] = [
    Banned {
        rule: "instant",
        idents: &["Instant"],
        segments: &[],
        why: "wall-clock time; use the simulator's virtual clock",
    },
    Banned {
        rule: "system-time",
        idents: &["SystemTime"],
        segments: &[],
        why: "wall-clock time; use the simulator's virtual clock",
    },
    Banned {
        rule: "default-hasher",
        idents: &["HashMap", "HashSet"],
        segments: &[],
        why: "RandomState iteration order is not reproducible; use dsm_sim::{FastMap, FastSet}",
    },
    Banned {
        rule: "thread-rng",
        idents: &["thread_rng"],
        segments: &["rand"],
        why: "ambient RNG; use dsm_sim::DetRng",
    },
    Banned {
        rule: "env-read",
        idents: &[],
        segments: &["env"],
        why: "library behavior must not depend on the invoking environment",
    },
];

/// The determinism contract: one finding per rule per source line that
/// names a banned identifier or path segment.
pub fn check_determinism(toks: &[Tok]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let in_path =
            (i > 0 && toks[i - 1].text == "::") || toks.get(i + 1).is_some_and(|n| n.text == "::");
        let name = t.text.as_str();
        for b in &BANNED {
            let hit = b.idents.contains(&name) || (in_path && b.segments.contains(&name));
            let seen = findings
                .last()
                .is_some_and(|f| f.line == t.line && f.rule == b.rule);
            if hit && !seen {
                findings.push(Finding {
                    line: t.line,
                    rule: b.rule,
                    msg: format!("`{name}`: {}", b.why),
                });
            }
        }
    }
    findings
}

/// The network's verbs: every logical message enters through one of these.
pub const NETWORK_VERBS: [&str; 4] = ["send_reliable", "fetch", "push_reliable", "push_update"];

/// The wire's per-message resolvers, which only the network may call.
pub const WIRE_INTERNALS: [&str; 2] = ["resolve_reliable", "resolve_flush"];

/// Transport discipline: network verb call sites outside the protocol
/// engine, wire internals outside the transport, and discarded
/// [`FlushOutcome`]s of `push_update`. `rel` is the workspace-relative
/// path.
pub fn check_sends(rel: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_engine = SEND_ALLOWED.iter().any(|p| rel.starts_with(p));
    let in_net = rel.starts_with("crates/net/src/");
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let wire_internal = WIRE_INTERNALS.contains(&t.text.as_str());
        if !wire_internal && !NETWORK_VERBS.contains(&t.text.as_str()) {
            continue;
        }
        if toks.get(i + 1).is_none_or(|n| n.text != "(") {
            continue; // a mention, not a call or definition
        }
        if i > 0 && toks[i - 1].text == "fn" {
            continue; // the definition itself
        }
        if wire_internal {
            if !in_net {
                findings.push(Finding {
                    line: t.line,
                    rule: "send-raw",
                    msg: format!(
                        "wire internal `{}(..)` used outside crates/net \
                         (go through the Network verbs)",
                        t.text
                    ),
                });
            }
            continue;
        }
        if !in_engine {
            findings.push(Finding {
                line: t.line,
                rule: "send-raw",
                msg: format!(
                    "direct network `{}(..)` outside the protocol engine \
                     (messages must flow through crates/core proto/drive \
                     so costs, stats, and fault injection apply)",
                    t.text
                ),
            });
            continue;
        }
        if t.text == "push_update" && flush_outcome_discarded(toks, i) {
            findings.push(Finding {
                line: t.line,
                rule: "flush-outcome",
                msg: "FlushOutcome discarded: the delivered/duplicated flags are \
                      the only record of loss or duplication and must be consumed"
                    .to_string(),
            });
        }
    }
    findings
}

/// Statement binding analysis for a `push_update` call at token index
/// `at`: the outcome is discarded when the call is an expression statement
/// or is bound to a `_`-named local.
fn flush_outcome_discarded(toks: &[Tok], at: usize) -> bool {
    // The statement this call belongs to.
    let stmt = toks[..at]
        .iter()
        .rposition(|t| matches!(t.text.as_str(), ";" | "{" | "}"))
        .map_or(0, |p| p + 1);
    let prefix = &toks[stmt..at];
    if let Some(let_at) = prefix.iter().position(|t| t.text == "let") {
        // The bound name: first identifier after `let` (skipping `mut`).
        let name = prefix[let_at + 1..]
            .iter()
            .find(|t| t.text != "mut")
            .map_or("", |t| t.text.as_str());
        return name.starts_with('_');
    }
    // No `let`: consumed when nested in a larger expression (an argument
    // or macro operand leaves an open paren in the prefix; an assignment
    // leaves an `=`; a `match`/`return`/`if`/`while` scrutinee flows
    // onward) or when it is its block's tail, whose value flows out. A
    // bare receiver chain ended by `;` is an expression statement.
    let nested = prefix.iter().any(|t| {
        t.text.contains('=')
            || t.text == "("
            || matches!(t.text.as_str(), "match" | "return" | "if" | "while")
    });
    !nested && statement_end(toks, at) == Some(";")
}

/// The token that ends the statement containing token `at`: the first
/// `;` or unmatched `}` after it, outside any nested delimiters.
fn statement_end(toks: &[Tok], at: usize) -> Option<&str> {
    let mut depth = 0usize;
    for t in &toks[at..] {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "}" if depth == 0 => return Some("}"),
            "}" => depth -= 1,
            ";" if depth == 0 => return Some(";"),
            _ => {}
        }
    }
    None
}

/// Sparse-scaling contract: node-count-sized allocations in protocol
/// state, and fixed 64-wide pid arithmetic there or in the checker.
pub fn check_dense(rel: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !DENSE_SCOPE.iter().any(|p| rel.starts_with(p)) {
        return findings;
    }
    let alloc_scope = DENSE_ALLOC_SCOPE.iter().any(|p| rel.starts_with(p));
    for i in 0..toks.len() {
        let t = &toks[i];
        // `vec![ ..; <len mentioning nprocs/nodes> ]`
        if alloc_scope
            && t.text == "vec"
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
            && toks.get(i + 2).is_some_and(|n| n.text == "[")
        {
            let mut depth = 0i64;
            let mut semi = None;
            let mut j = i + 2;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" | "(" => depth += 1,
                    "]" | ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ";" if depth == 1 => semi = Some(j),
                    _ => {}
                }
                j += 1;
            }
            if let Some(s) = semi {
                let len_names = toks[s + 1..j]
                    .iter()
                    .any(|t| matches!(t.text.as_str(), "nprocs" | "nodes"));
                if len_names {
                    findings.push(Finding {
                        line: t.line,
                        rule: "dense-by-nodes",
                        msg: "node-count-sized allocation in protocol state: per-page \
                              tables must stay sparse (O(sharers), not O(N))"
                            .to_string(),
                    });
                }
            }
        }
        // Fixed 64-wide pid arithmetic: `<< pid`, `% 64`, `& 63`, `0..64`.
        let fixed_width = (t.text == "<"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.text == "<" && n.pos == t.pos + 1)
            && toks.get(i + 2).is_some_and(|n| n.text == "pid"))
            || (t.text == "%" && toks.get(i + 1).is_some_and(|n| n.text == "64"))
            || (t.text == "&" && toks.get(i + 1).is_some_and(|n| n.text == "63"))
            || (t.text == "0"
                && toks.get(i + 1).is_some_and(|n| n.text == "..")
                && toks.get(i + 2).is_some_and(|n| n.text == "64"));
        if fixed_width {
            findings.push(Finding {
                line: t.line,
                rule: "dense-by-nodes",
                msg: "fixed 64-wide pid arithmetic: breaks silently for pid >= 64 \
                      (use CopySet or a spill table)"
                    .to_string(),
            });
        }
    }
    findings
}

/// State-declaration contract: a hand-written `impl State for …` must
/// classify every field, which its exhaustive destructures prove to the
/// compiler — unless one of them says `..`. A rest in a struct pattern
/// (`..` directly before the closing brace) anywhere in such an impl is an
/// error; struct-update syntax (`..base }`) and ranges are not patterns
/// and do not match.
pub fn check_state_rest(toks: &[Tok]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let header = toks[i].text == "State"
            && toks[i + 1].text == "for"
            && toks[..i]
                .iter()
                .rev()
                .take_while(|t| !matches!(t.text.as_str(), ";" | "{" | "}"))
                .any(|t| t.text == "impl");
        i += 1;
        if !header {
            continue;
        }
        let mut depth = 0usize;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "{" => depth += 1,
                "}" if depth <= 1 => break,
                "}" => depth -= 1,
                ".." if toks.get(i + 1).is_some_and(|n| n.text == "}") => {
                    findings.push(Finding {
                        line: toks[i].line,
                        rule: "state-rest",
                        msg: "`..` in a struct pattern inside `impl State`: every field \
                              must be named so that adding one is a compile error here"
                            .to_string(),
                    });
                }
                _ => {}
            }
            i += 1;
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src)
    }

    #[test]
    fn banned_names_are_tokens_not_substrings() {
        let rules = |src: &str| -> Vec<(&'static str, usize)> {
            check_determinism(&toks(src))
                .iter()
                .map(|f| (f.rule, f.line))
                .collect()
        };
        assert_eq!(rules("let t = Instant::now();"), [("instant", 1)]);
        assert_eq!(
            rules("use std::time::{Duration,\n SystemTime};"),
            [("system-time", 2)]
        );
        // One finding per rule per line, however many mentions.
        assert_eq!(
            rules("let m: HashMap<u8, HashSet<u8>> = HashMap::new();"),
            [("default-hasher", 1)]
        );
        assert_eq!(rules("rand::thread_rng()"), [("thread-rng", 1)]);
        assert_eq!(
            rules("use std::env;\nlet v = env::var(k);"),
            [("env-read", 1), ("env-read", 2)]
        );
        // Not code, not the name, or not a path segment.
        for ok in [
            "// a HashMap here\nlet s = \"std::env\"; /* Instant::now() */",
            "let instant = now; struct FastHashMap; fn operand() {}",
            "let env = Env::new(); let rand = env.rand;",
        ] {
            assert!(rules(ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn rest_pattern_in_state_impl_flagged() {
        let bad = "impl<T: Pod> State for Frame<T> {\n fn encode(&self, w: &mut W) {\n \
                   let Frame { data, .. } = self;\n }\n}";
        let f = check_state_rest(&toks(bad));
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("state-rest", 3));
        let arm = "impl State for V { fn fold(&self) { match self { V::A { x, .. } => {} } } }";
        assert_eq!(check_state_rest(&toks(arm)).len(), 1);
    }

    #[test]
    fn rest_outside_state_impls_and_non_patterns_pass() {
        for ok in [
            // An inherent impl, and a different trait, may elide fields.
            "impl Frame { fn f(&self) { let Frame { data, .. } = self; } }",
            "impl Debug for Frame { fn f(&self) { let Frame { data, .. } = self; } }",
            // Exhaustive destructure, struct update, ranges, tuple rest.
            "impl State for H { fn f(&self) { let H { a, b: _ } = self; \
             let h = H { a: 1, ..H::new() }; for i in 0..n {} let (x, ..) = t; &v[1..]; } }",
            // The impl ends at its closing brace.
            "impl State for H { fn f(&self) {} } fn g(h: &H) { let H { a, .. } = h; }",
            // A bound or a path mentioning State is not an impl header.
            "fn f<T: State>(t: &T) { let P { a, .. } = p; }",
        ] {
            assert!(check_state_rest(&toks(ok)).is_empty(), "{ok}");
        }
    }

    #[test]
    fn raw_send_outside_engine_flagged() {
        let src = "let tr = self.net.send_reliable(a, b, k, 0, now);";
        let f = check_sends("crates/apps/src/sor.rs", &toks(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "send-raw");
        assert!(check_sends("crates/core/src/proto/bar.rs", &toks(src)).is_empty());
    }

    #[test]
    fn examples_and_bench_are_not_engine_paths() {
        let src = "let out = net.push_update(p, q, k, n, now);";
        for rel in ["examples/quickstart.rs", "crates/bench/src/paper.rs"] {
            let f = check_sends(rel, &toks(src));
            assert_eq!(f.len(), 1, "{rel}");
            assert_eq!(f[0].rule, "send-raw", "{rel}");
        }
    }

    #[test]
    fn raw_data_verbs_outside_engine_flagged() {
        // The data verbs are sends too: a raw push or fetch from an
        // example bypasses the protocol engine exactly as a sync send.
        for src in [
            "let t = net.push_reliable(p, q, k, n, now);",
            "let d = net.fetch(p, q, rk, 0, pk, n, prep, now);",
        ] {
            let f = check_sends("examples/quickstart.rs", &toks(src));
            assert_eq!(f.len(), 1, "{src}");
            assert_eq!(f[0].rule, "send-raw", "{src}");
            assert!(check_sends("crates/core/src/drive/cluster.rs", &toks(src)).is_empty());
        }
        // A differently named call is not a verb.
        let ok = "let d = self.fetch_from(p, q, req, rep, fixed);";
        assert!(check_sends("examples/quickstart.rs", &toks(ok)).is_empty());
    }

    #[test]
    fn wire_internals_outside_net_flagged() {
        let src = "let d = self.wire.resolve_flush(src, dst, legs, s);";
        assert_eq!(
            check_sends("crates/core/src/proto/bar.rs", &toks(src)).len(),
            1
        );
        assert!(check_sends("crates/net/src/network.rs", &toks(src)).is_empty());
    }

    #[test]
    fn discarded_flush_outcome_flagged() {
        for src in [
            "self.net.push_update(p, q, k, n, now);",
            "let _ = self.net.push_update(p, q, k, n, now);",
            "let _out = self\n    .net\n    .push_update(p, q, k, n, now);",
            "let mut _scratch = self.net.push_update(p, q, k, n, now);",
        ] {
            let f = check_sends("crates/core/src/proto/bar.rs", &toks(src));
            assert_eq!(f.len(), 1, "{src}");
            assert_eq!(f[0].rule, "flush-outcome", "{src}");
        }
        for ok in [
            "let out = self\n    .net\n    .push_update(p, q, k, n, now);\nuse_(out.delivered);",
            "consume(self.net.push_update(p, q, k, n, now));",
            "match self.net.push_update(p, q, k, n, now) { _ => {} }",
            "total += self.net.push_update(p, q, k, n, now).delivered as u64;",
            // A block's tail is its value: returned, not discarded.
            "fn f(n: &mut Network) -> FlushOutcome { n.push_update(p, q, k, n, now) }",
        ] {
            assert!(
                check_sends("crates/core/src/proto/bar.rs", &toks(ok)).is_empty(),
                "{ok}"
            );
        }
    }

    #[test]
    fn send_definitions_and_prose_not_flagged() {
        let def = "pub fn push_update(&mut self, src: usize) -> FlushOutcome {";
        assert!(check_sends("crates/net/src/network.rs", &toks(def)).is_empty());
        // Comments and strings never reach the token stream.
        let prose = "// push_update(..) is documented here\nlet s = \"send_reliable(\";";
        assert!(check_sends("crates/apps/src/sor.rs", &toks(prose)).is_empty());
    }

    #[test]
    fn dense_alloc_in_proto_flagged() {
        let src = "let owners = vec![0u32; nprocs];";
        let f = check_dense("crates/core/src/proto/bar.rs", &toks(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "dense-by-nodes");
        assert!(check_dense("crates/check/src/race.rs", &toks(src)).is_empty());
        assert!(check_dense("crates/sim/src/lib.rs", &toks(src)).is_empty());
        // A vec sized by something else is fine.
        let ok = "let xs = vec![0u32; npages];";
        assert!(check_dense("crates/core/src/proto/bar.rs", &toks(ok)).is_empty());
    }

    #[test]
    fn fixed_pid_width_flagged() {
        for src in [
            "mask |= 1u64 << pid;",
            "for p in 0..64 {",
            "let slot = pid % 64;",
            "let bit = pid & 63;",
        ] {
            for rel in [
                "crates/core/src/proto/copyset.rs",
                "crates/check/src/race.rs",
            ] {
                let f = check_dense(rel, &toks(src));
                assert_eq!(f.len(), 1, "{rel}: {src}");
                assert_eq!(f[0].rule, "dense-by-nodes", "{rel}: {src}");
            }
        }
        // N-sized arithmetic is fine; so are prose and generics.
        for ok in [
            "let home = page % nprocs;",
            "// the old bitmap did 1 << pid and wrapped at % 64",
            "let t: Vec<Vec<u64>> = grid(pid);",
        ] {
            assert!(
                check_dense("crates/core/src/proto/bar.rs", &toks(ok)).is_empty(),
                "{ok}"
            );
        }
    }
}
