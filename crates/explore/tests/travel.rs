//! Time-travel over the committed repro trace: stepping the schedule
//! forward with a snapshot at every boundary and walking the checkpoints
//! backward must reproduce every state and trace hash — and the replayed
//! schedule must still produce the committed violation.

use dsm_explore::{config_for_trace, ChoiceTrace, RegressApp, Replay, SchedCheckpoint};

#[test]
fn committed_trace_travels_forward_and_backward() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/repro/lmw-u-coverage-gap.trace"
    );
    let text = std::fs::read_to_string(path).expect("committed trace exists");
    let trace = ChoiceTrace::parse(&text).expect("committed trace parses");
    assert_eq!(trace.app, "regress");
    let cfg = config_for_trace(&trace);

    let mut app = RegressApp::new();
    let mut walk = Replay::new(&mut app, cfg, &trace);

    // Forward pass: checkpoint every step boundary.
    let mut marks: Vec<(u64, u64, SchedCheckpoint, Vec<u8>)> = Vec::new();
    let report = walk.forward(|_, at| {
        marks.push((
            at.run.cluster().state_hash(),
            at.run.cluster().trace_hash(),
            at.sched.borrow().checkpoint(),
            dsm_snap::snapshot_run(&at.run, Some(&at.checker)),
        ));
    });
    let final_state = walk.run.cluster().state_hash();
    assert!(marks.len() > 2, "the repro schedule spans several steps");
    assert!(
        !report.is_clean() && report.stale_reads() > 0,
        "the committed violation must still reproduce: {}",
        report.summary()
    );

    // Backward pass: every restored checkpoint reproduces its hashes.
    for (i, (state, events, _, bytes)) in marks.iter().enumerate().rev() {
        dsm_snap::restore_run(bytes, &mut walk.run, Some(&walk.checker));
        assert_eq!(
            walk.run.cluster().state_hash(),
            *state,
            "backward step {i}: state hash mismatch"
        );
        assert_eq!(
            walk.run.cluster().trace_hash(),
            *events,
            "backward step {i}: trace hash mismatch"
        );
    }

    // And a restored mid-run checkpoint still finds the violation when
    // stepped to completion.
    let mid = marks.len() / 2;
    dsm_snap::restore_run(&marks[mid].3, &mut walk.run, Some(&walk.checker));
    walk.resume(marks[mid].2.clone());
    while walk.run.step() {}
    let resumed = walk.checker.report();
    assert_eq!(
        resumed.stale_reads(),
        report.stale_reads(),
        "resuming from a mid-run checkpoint lost the violation"
    );
    assert_eq!(
        walk.run.cluster().state_hash(),
        final_state,
        "resumed final state differs"
    );
}
