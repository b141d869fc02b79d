//! A served op's stage table: one processed op records `iep.apply`,
//! `solve.certify` and `serve.wal` under its `serve.op` span, the op
//! that triggers a checkpoint also records `serve.snapshot` but not
//! `serve.compact`, and the op that triggers a compaction records both.
//!
//! The trace sink is process-global, so this file holds a single test.

use std::collections::BTreeSet;
use std::sync::Arc;

use epplan_core::incremental::SequencedOp;
use epplan_datagen::{generate, GeneratorConfig, OpStreamSampler};
use epplan_obs::{CollectingSink, OwnedTraceEvent};
use epplan_serve::{Daemon, ServeConfig};

/// Names of every span nested (at any depth) under span `root`.
fn descendants(events: &[OwnedTraceEvent], root: u64) -> BTreeSet<String> {
    let mut ids = vec![root];
    let mut names = BTreeSet::new();
    while let Some(id) = ids.pop() {
        for e in events.iter().filter(|e| e.parent == Some(id)) {
            names.insert(e.span.clone());
            ids.push(e.id);
        }
    }
    names
}

#[test]
fn one_op_records_apply_certify_and_wal_and_the_snapshot_op_its_snapshot() {
    let instance = generate(&GeneratorConfig {
        n_users: 60,
        n_events: 8,
        seed: 7,
        ..GeneratorConfig::default()
    });
    let dir = std::env::temp_dir().join(format!("epplan-op-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        snapshot_every: Some(2),
        ..ServeConfig::default()
    };
    let mut daemon = Daemon::start(instance, config, Some(&dir)).unwrap();
    // The first ops the sampler draws that the daemon applies.
    let ops: Vec<SequencedOp> =
        OpStreamSampler::new(3).sequenced_stream(daemon.instance(), daemon.plan(), 2, 1);

    let sink = Arc::new(CollectingSink::new());
    epplan_obs::install_sink(sink.clone());
    let statuses: Vec<String> = ops
        .iter()
        .map(|sop| daemon.process(sop).unwrap().status)
        .collect();
    epplan_obs::uninstall_sink();
    assert_eq!(statuses, ["applied", "applied"]);
    assert_eq!(daemon.stats().compactions, 0, "the second op checkpoints");

    let events = sink.events();
    let op_spans: Vec<u64> = events
        .iter()
        .filter(|e| e.span == "serve.op")
        .map(|e| e.id)
        .collect();
    assert_eq!(op_spans.len(), 2, "one serve.op span per op");
    // Spans are recorded as they close, in op order.
    for (k, &id) in op_spans.iter().enumerate() {
        let names = descendants(&events, id);
        for stage in ["iep.apply", "solve.certify", "serve.wal"] {
            assert!(names.contains(stage), "op {k} lacks {stage}: {names:?}");
        }
        assert_eq!(
            names.contains("serve.snapshot"),
            k == 1,
            "only the second op snapshots: {names:?}"
        );
        assert!(
            !names.contains("serve.compact"),
            "op {k} compacts: {names:?}"
        );
    }

    // Feed on until a snapshot point compacts: the WAL has grown to
    // the base image's size. That op records both spans.
    let more: Vec<SequencedOp> =
        OpStreamSampler::new(5).sequenced_stream(daemon.instance(), daemon.plan(), 400, 3);
    let sink = Arc::new(CollectingSink::new());
    epplan_obs::install_sink(sink.clone());
    for sop in &more {
        daemon.process(sop).unwrap();
        if daemon.stats().compactions > 0 {
            break;
        }
    }
    epplan_obs::uninstall_sink();
    assert_eq!(daemon.stats().compactions, 1, "the stream compacts");
    let events = sink.events();
    let last_op = events
        .iter()
        .filter(|e| e.span == "serve.op")
        .map(|e| e.id)
        .next_back()
        .unwrap();
    let names = descendants(&events, last_op);
    assert!(names.contains("serve.snapshot"), "{names:?}");
    assert!(names.contains("serve.compact"), "{names:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
