//! The `lint-allow.toml` exemption parser.
//!
//! The format is deliberately tiny: `[[allow]]` table headers and
//! double-quoted `key = "value"` pairs for `file`, `rule`, and `reason`.
//! Anything else is a hard error, and every entry must be consumed by a
//! real violation (`used` flips when it is): stale entries are reported
//! as errors, so the allowlist cannot rot.

/// One `[[allow]]` entry from lint-allow.toml.
#[derive(Debug)]
pub struct Allow {
    pub file: String,
    pub rule: String,
    pub reason: String,
    /// Set once a violation consumes the entry; unused entries are stale.
    pub used: bool,
}

/// Hand-rolled parser for the tiny TOML subset the allowlist uses:
/// `[[allow]]` table headers and `key = "value"` pairs. Anything else is
/// a hard error — the format is the contract. (Hand-rolled because the
/// workspace is dependency-free by design.)
pub fn parse_allowlist(text: &str) -> Result<Vec<Allow>, String> {
    let mut out: Vec<Allow> = Vec::new();
    let mut cur: Option<(Option<String>, Option<String>, Option<String>)> = None;
    let finish = |cur: &mut Option<(Option<String>, Option<String>, Option<String>)>,
                  out: &mut Vec<Allow>|
     -> Result<(), String> {
        if let Some((f, r, why)) = cur.take() {
            let entry = Allow {
                file: f.ok_or("entry missing `file`")?,
                rule: r.ok_or("entry missing `rule`")?,
                reason: why.ok_or("entry missing `reason`")?,
                used: false,
            };
            out.push(entry);
        }
        Ok(())
    };
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(&mut cur, &mut out)?;
            cur = Some((None, None, None));
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            return Err(format!("lint-allow.toml:{}: unparseable line", ln + 1));
        };
        let key = key.trim();
        let val = val.trim();
        let Some(val) = val.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            return Err(format!(
                "lint-allow.toml:{}: value must be a double-quoted string",
                ln + 1
            ));
        };
        let Some(entry) = cur.as_mut() else {
            return Err(format!(
                "lint-allow.toml:{}: key outside an [[allow]] entry",
                ln + 1
            ));
        };
        let slot = match key {
            "file" => &mut entry.0,
            "rule" => &mut entry.1,
            "reason" => &mut entry.2,
            other => return Err(format!("lint-allow.toml:{}: unknown key `{other}`", ln + 1)),
        };
        if slot.replace(val.to_string()).is_some() {
            return Err(format!("lint-allow.toml:{}: duplicate `{key}`", ln + 1));
        }
    }
    finish(&mut cur, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_round_trips() {
        let text = r#"
# comment
[[allow]]
file = "crates/x/src/a.rs"
rule = "env-read"
reason = "because"

[[allow]]
file = "crates/y/src/b.rs"
rule = "dense-by-nodes"
reason = "audited"
"#;
        let a = parse_allowlist(text).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].file, "crates/x/src/a.rs");
        assert_eq!(a[0].rule, "env-read");
        assert_eq!(a[1].rule, "dense-by-nodes");
        assert!(!a[0].used && !a[1].used);
    }

    #[test]
    fn malformed_allowlist_is_rejected() {
        assert!(parse_allowlist("[[allow]]\nfile = unquoted\n").is_err());
        assert!(parse_allowlist("file = \"orphan\"\n").is_err());
        assert!(parse_allowlist("[[allow]]\nfile = \"f\"\n").is_err());
        assert!(parse_allowlist("[[allow]]\nfile = \"f\"\nfile = \"g\"\n").is_err());
        assert!(parse_allowlist("[[allow]]\nwhy = \"wrong key\"\n").is_err());
    }
}
