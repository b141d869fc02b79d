//! A full re-solve certifies once: every `serve.resolve` span — the one
//! `Daemon::start` opens and each drift-triggered one — holds exactly
//! one `solve.certify`, because the daemon adopts the certificate and
//! tally the solver built its plan with instead of checking again.
//!
//! The trace sink is process-global, so this file holds a single test.

use std::sync::Arc;

use epplan_core::incremental::SequencedOp;
use epplan_datagen::{generate, GeneratorConfig, OpStreamSampler};
use epplan_obs::{CollectingSink, OwnedTraceEvent};
use epplan_serve::{Daemon, ServeConfig};

/// How many `span` events sit (at any depth) under span `root`.
fn count_under(events: &[OwnedTraceEvent], root: u64, span: &str) -> usize {
    let mut ids = vec![root];
    let mut n = 0;
    while let Some(id) = ids.pop() {
        for e in events.iter().filter(|e| e.parent == Some(id)) {
            n += usize::from(e.span == span);
            ids.push(e.id);
        }
    }
    n
}

#[test]
fn every_resolve_certifies_exactly_once() {
    let instance = generate(&GeneratorConfig {
        n_users: 60,
        n_events: 8,
        seed: 7,
        ..GeneratorConfig::default()
    });
    // Any op that drops an assignment trips a re-solve.
    let config = ServeConfig {
        drift_threshold: Some(1),
        ..ServeConfig::default()
    };
    let sink = Arc::new(CollectingSink::new());
    epplan_obs::install_sink(sink.clone());
    let mut daemon = Daemon::start(instance, config, None).unwrap();
    let ops: Vec<SequencedOp> =
        OpStreamSampler::new(3).sequenced_stream(daemon.instance(), daemon.plan(), 30, 1);
    for sop in &ops {
        daemon.process(sop).unwrap();
    }
    epplan_obs::uninstall_sink();
    assert!(daemon.stats().resolves >= 1, "the stream never re-solved");

    let events = sink.events();
    let resolves: Vec<u64> = events
        .iter()
        .filter(|e| e.span == "serve.resolve")
        .map(|e| e.id)
        .collect();
    assert_eq!(
        resolves.len() as u64,
        daemon.stats().resolves + 1,
        "one serve.resolve per re-solve, plus the start"
    );
    for (k, &id) in resolves.iter().enumerate() {
        assert_eq!(
            count_under(&events, id, "solve.certify"),
            1,
            "re-solve {k} certified other than once"
        );
    }
}
