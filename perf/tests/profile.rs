//! The benchmark must time the codegen the shipped bins use: fail if the
//! release profile here drifts from the root manifest's, or if any
//! `dsm-*` dependency stops being a path into `../crates/`.

use std::collections::BTreeMap;
use std::path::Path;

/// `key = value` pairs of one `[section]` of a manifest. Line-based: the
/// two manifests keep one key per line, which is all this needs.
fn section(manifest: &str, name: &str) -> BTreeMap<String, String> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = section(&read(&here.join("../Cargo.toml")), "profile.release");
    let mine = section(&read(&here.join("Cargo.toml")), "profile.release");
    for key in ["lto", "codegen-units"] {
        assert!(root.contains_key(key), "root [profile.release] lost {key}");
        assert_eq!(
            mine.get(key),
            root.get(key),
            "[profile.release] {key} differs"
        );
    }
    assert_eq!(
        mine, root,
        "[profile.release] differs from the root manifest"
    );
}

#[test]
fn every_dsm_dependency_is_a_path_into_crates() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let deps = section(&read(&here.join("Cargo.toml")), "dependencies");
    let dsm: Vec<_> = deps.iter().filter(|(k, _)| k.starts_with("dsm-")).collect();
    assert!(!dsm.is_empty(), "no dsm-* dependencies found");
    assert_eq!(
        dsm.len(),
        deps.len(),
        "the benchmark depends on in-repo crates only"
    );
    for (name, value) in dsm {
        let path = value
            .split_once("path")
            .and_then(|(_, rest)| rest.split('"').nth(1))
            .unwrap_or_else(|| panic!("{name} is not a path dependency: {value}"));
        assert!(
            path.starts_with("../crates/") && here.join(path).join("Cargo.toml").is_file(),
            "{name}: {path:?} is not a crate under ../crates/"
        );
    }
}
