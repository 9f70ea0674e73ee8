//! Snapshot-format golden test: a pinned run snapshotted at a pinned step
//! must serialize to exactly the committed artifact, byte for byte. Any
//! codec change — even a compatible one — must bump `SNAP_VERSION` and
//! re-bless the artifact, so format drift is a deliberate act, never an
//! accident. Re-bless with `DSM_SNAP_BLESS=1 cargo test -p dsm-snap golden`.

mod golden_run;

use dsm_check::Checker;
use dsm_snap::{snapshot_run, SNAP_MAGIC, SNAP_VERSION};
use golden_run::{golden_config, golden_run, GoldenApp, GOLDEN_PATH};

fn golden_bytes() -> Vec<u8> {
    let checker = Checker::new(&golden_config());
    let mut app = GoldenApp::new();
    let run = golden_run(&mut app, &checker);
    snapshot_run(&run, Some(&checker))
}

#[test]
fn snapshot_format_matches_committed_golden() {
    let bytes = golden_bytes();

    // Header invariants hold regardless of the artifact: magic, version
    // byte, checker flag, and the CORE section tag right after the header.
    assert_eq!(&bytes[..8], &SNAP_MAGIC[..], "magic");
    assert_eq!(bytes[8], SNAP_VERSION, "version byte");
    assert_eq!(bytes[9] & 1, 1, "checker flag set");
    assert_eq!(&bytes[18..22], b"CORE", "first section tag");

    #[expect(
        clippy::disallowed_methods,
        reason = "the re-bless switch for a deliberate codec change; it never alters the bytes"
    )]
    let bless = std::env::var_os("DSM_SNAP_BLESS").is_some();
    if bless {
        std::fs::write(GOLDEN_PATH, &bytes).expect("bless golden snapshot");
        return;
    }

    let want = std::fs::read(GOLDEN_PATH)
        .expect("committed golden snapshot missing — run with DSM_SNAP_BLESS=1 to create it");
    if bytes != want {
        let first = bytes
            .iter()
            .zip(want.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| bytes.len().min(want.len()));
        panic!(
            "snapshot bytes drifted from the committed golden artifact \
             (len {} vs {}, first difference at offset {first:#x}).\n\
             A format change must bump SNAP_VERSION and re-bless with \
             DSM_SNAP_BLESS=1.",
            bytes.len(),
            want.len(),
        );
    }
}

#[test]
fn golden_snapshot_is_deterministic() {
    assert_eq!(
        golden_bytes(),
        golden_bytes(),
        "snapshot bytes vary run-to-run"
    );
}
