//! The two source rules, on the token layer.
//!
//! These bind to syntax, not substrings: statement boundaries are
//! `;`/`{`/`}` tokens, and the pid-width and rest-pattern rules match
//! token sequences, so prose, strings, and creative formatting can
//! neither trigger nor dodge them.

use crate::lexer::Tok;

/// One rule finding: source line, rule id, message.
#[derive(Debug)]
pub struct Finding {
    pub line: usize,
    pub rule: &'static str,
    pub msg: &'static str,
}

/// Source trees under the sparse-scaling contract (`dense-by-nodes`).
pub const DENSE_SCOPE: [&str; 2] = ["crates/core/src/proto/", "crates/check/src/"];

/// The node-count-indexed allocation check only applies to per-page
/// protocol state; one-entry-per-process vectors elsewhere are fine.
pub const DENSE_ALLOC_SCOPE: [&str; 1] = ["crates/core/src/proto/"];

/// A deliberate exception: a file excused from one rule, and why.
pub struct Exemption {
    pub file: &'static str,
    pub rule: &'static str,
    pub reason: &'static str,
}

/// The one exception to `dense-by-nodes`. An entry that matches no
/// finding is itself reported, so the list cannot keep a dead excuse.
pub const EXEMPT: [Exemption; 1] = [Exemption {
    file: "crates/core/src/proto/copyset.rs",
    rule: "dense-by-nodes",
    reason: "the inline tier of the hybrid CopySet is deliberately a 64-bit bitmap \
             (1 << pid for pid < 64); larger pids spill to the sorted overflow vec, \
             which is exactly the sparse fallback the rule demands",
}];

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
                              tables must stay sparse (O(sharers), not O(N))",
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
                      (use CopySet or a spill table)",
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
                              must be named so that adding one is a compile error here",
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

    #[test]
    fn rest_pattern_in_state_impl_flagged() {
        let bad = "impl<T: Pod> State for Frame<T> {\n fn encode(&self, w: &mut W) {\n \
                   let Frame { data, .. } = self;\n }\n}";
        let f = check_state_rest(&lex(bad));
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("state-rest", 3));
        let arm = "impl State for V { fn fold(&self) { match self { V::A { x, .. } => {} } } }";
        assert_eq!(check_state_rest(&lex(arm)).len(), 1);
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
            assert!(check_state_rest(&lex(ok)).is_empty(), "{ok}");
        }
    }

    #[test]
    fn dense_alloc_in_proto_flagged() {
        let src = "let owners = vec![0u32; nprocs];";
        let f = check_dense("crates/core/src/proto/bar.rs", &lex(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "dense-by-nodes");
        assert!(check_dense("crates/check/src/race.rs", &lex(src)).is_empty());
        assert!(check_dense("crates/sim/src/lib.rs", &lex(src)).is_empty());
        // A vec sized by something else is fine.
        let ok = "let xs = vec![0u32; npages];";
        assert!(check_dense("crates/core/src/proto/bar.rs", &lex(ok)).is_empty());
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
                let f = check_dense(rel, &lex(src));
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
                check_dense("crates/core/src/proto/bar.rs", &lex(ok)).is_empty(),
                "{ok}"
            );
        }
    }
}
