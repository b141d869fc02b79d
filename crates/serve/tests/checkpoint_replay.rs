//! Instance-only replay against the live daemon.
//!
//! A checkpoint holds no instance: restore rebuilds it from the base
//! image plus the instance transitions of the logged ops, driven by
//! their recorded outcomes ([`replay_instance`]). Random streams of 32
//! ops — well-formed ops from the stream sampler with malformed ones
//! mixed in, under budgets that force repairs, drift re-solves,
//! fallback re-solves or admission shedding — are fed to a daemon that
//! checkpoints every few ops. After every snapshot point:
//!
//! * at a checkpoint, the rebuilt instance equals the live one by
//!   `PartialEq` and by serialized bytes;
//! * at a compaction, the new base image holds the live instance and
//!   no checkpoint is left behind.
//!
//! Streams run at 1 and 4 threads and must agree byte for byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use epplan_core::incremental::{AtomicOp, SequencedOp};
use epplan_core::model::{EventId, Instance, UserId};
use epplan_datagen::{generate, GeneratorConfig, OpStreamSampler};
use epplan_serve::daemon::replay_instance;
use epplan_serve::wal;
use epplan_serve::{Daemon, OverloadConfig, ServeConfig};
use epplan_solve::SolveBudget;
use proptest::prelude::*;

/// A malformed op for stream position `k`, rejected as `BadInput`.
fn malformed(k: usize, instance: &Instance) -> AtomicOp {
    match k % 3 {
        0 => AtomicOp::EtaDecrease {
            event: EventId(instance.n_events() as u32 + 3),
            new_upper: 1,
        },
        1 => AtomicOp::BudgetChange {
            user: UserId(0),
            new_budget: -1.0,
        },
        _ => AtomicOp::UtilityChange {
            user: UserId(0),
            event: EventId(0),
            new_utility: f64::NAN,
        },
    }
}

fn bytes<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

/// The daemon configuration of budget regime `regime`.
fn config(regime: u8, every: u64) -> ServeConfig {
    let base = ServeConfig {
        snapshot_every: Some(every),
        ..ServeConfig::default()
    };
    match regime {
        // Repairs, with a drift trigger that re-solves now and then.
        0 => ServeConfig {
            drift_threshold: Some(4),
            ..base
        },
        // Every repair exhausts its budget: fallback re-solves.
        1 => ServeConfig {
            op_budget: SolveBudget::from_iteration_cap(0),
            max_retries: 1,
            ..base
        },
        // Forced re-solves charge the work clock enough to shed.
        _ => ServeConfig {
            op_budget: SolveBudget::from_iteration_cap(0),
            max_retries: 1,
            overload: OverloadConfig {
                op_deadline_ops: Some(0),
                ..OverloadConfig::default()
            },
            ..base
        },
    }
}

/// Feeds one stream, checking every snapshot point. Returns each op's
/// status and the instance bytes at each snapshot point.
fn run_stream(seed: u64, regime: u8, every: u64, threads: usize) -> Vec<String> {
    epplan_par::set_threads(threads);
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let instance = generate(&GeneratorConfig {
        n_users: 12 + (seed % 12) as usize,
        n_events: 4 + (seed % 3) as usize,
        seed,
        ..GeneratorConfig::default()
    });
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "epplan-ckpt-replay-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut daemon = Daemon::start(instance, config(regime, every), Some(&dir)).unwrap();
    let ops: Vec<SequencedOp> = OpStreamSampler::new(seed ^ 0x5eed)
        .sequenced_stream(daemon.instance(), daemon.plan(), 32, 1)
        .into_iter()
        .enumerate()
        .map(|(k, sop)| match k % 7 {
            3 => SequencedOp::new(sop.id, malformed(k, daemon.instance())),
            _ => sop,
        })
        .collect();
    let mut transcript = Vec::new();
    let mut checkpoints = 0;
    for sop in &ops {
        let before = (daemon.stats().snapshots, daemon.stats().compactions);
        transcript.push(daemon.process(sop).unwrap().status);
        let after = (daemon.stats().snapshots, daemon.stats().compactions);
        if after.0 == before.0 {
            continue;
        }
        let base = wal::read_base(&dir).unwrap().expect("a base image");
        let live = bytes(daemon.instance());
        if after.1 > before.1 {
            assert_eq!(&base.snapshot.instance, daemon.instance(), "op {}", sop.id);
            assert_eq!(bytes(&base.snapshot.instance), live, "op {}", sop.id);
            assert!(wal::read_checkpoint(&dir).unwrap().is_none());
        } else {
            let ckpt = wal::read_checkpoint(&dir).unwrap().expect("a checkpoint");
            assert_eq!(ckpt.base, base.id);
            assert_eq!(ckpt.last_op_id, daemon.last_op_id());
            assert_eq!(&ckpt.plan, daemon.plan());
            let records = wal::read_wal(&dir.join(wal::WAL_FILE)).unwrap();
            let mut rebuilt = base.snapshot.instance;
            replay_instance(&mut rebuilt, records, base.id.last_op_id, ckpt.last_op_id).unwrap();
            assert_eq!(&rebuilt, daemon.instance(), "op {}", sop.id);
            assert_eq!(bytes(&rebuilt), live, "op {}", sop.id);
            checkpoints += 1;
        }
        transcript.push(live);
    }
    assert!(checkpoints > 0, "the stream never checkpointed");
    assert!(
        daemon.stats().rejected > 0,
        "the malformed ops must be rejected"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn instance_rebuilt_from_base_and_outcomes_equals_the_live_one(
        seed in 0u64..10_000,
        regime in 0u8..3,
        every in 2u64..6,
    ) {
        let one = run_stream(seed, regime, every, 1);
        let four = run_stream(seed, regime, every, 4);
        epplan_par::set_threads(1);
        prop_assert_eq!(one, four);
    }
}

/// Each budget regime produces the outcome it exists for, so the
/// property above covers every instance-changing and every inert mode.
#[test]
fn every_regime_reaches_its_outcome() {
    let repairs = run_stream(11, 0, 3, 1);
    assert!(repairs.iter().any(|s| s == "applied"));
    assert!(repairs.iter().any(|s| s == "resolved"));
    assert!(run_stream(11, 1, 3, 1).iter().any(|s| s == "resolved"));
    assert!(run_stream(11, 2, 3, 1).iter().any(|s| s == "shed"));
}
