//! Random atomic-operation workloads for IEP simulations.
//!
//! Section V-C evaluates single operations in isolation; real EBSN
//! platforms face *streams* of them. [`OpStreamSampler`] draws
//! operations from a weighted mix, always relative to the **current**
//! instance and plan (so, e.g., an `η` decrease targets an event that
//! actually has attendees, and a `NewEvent` op is consistent with the
//! current user count). Replay a stream by running
//! `IncrementalPlanner::try_apply_certified` once per operation.

use epplan_core::incremental::{AtomicOp, IncrementalPlanner, SequencedOp};
use epplan_core::model::{Event, EventId, Instance, TimeInterval, UserId};
use epplan_core::plan::Plan;
use epplan_core::solver::{SolveBudget, SolveError};
use epplan_geo::{BoundingBox, Point};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// Relative frequencies of the operation kinds. Zero disables a kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpWeights {
    /// `η` decreased (venue shrinks).
    pub eta_decrease: f64,
    /// `η` increased (bigger venue).
    pub eta_increase: f64,
    /// `ξ` increased (organizer raises break-even).
    pub xi_increase: f64,
    /// `ξ` decreased.
    pub xi_decrease: f64,
    /// Start/end time moved.
    pub time_change: f64,
    /// Venue moved.
    pub location_change: f64,
    /// New event posted.
    pub new_event: f64,
    /// A user's interest changes (including dropping to 0).
    pub utility_change: f64,
    /// A user's budget changes.
    pub budget_change: f64,
    /// Admission fee changes (the Section VII extension).
    pub fee_change: f64,
}

impl Default for OpWeights {
    fn default() -> Self {
        // Roughly: user-driven changes dominate, organizer changes are
        // rarer, brand-new events rarer still.
        OpWeights {
            eta_decrease: 1.0,
            eta_increase: 0.5,
            xi_increase: 1.0,
            xi_decrease: 0.5,
            time_change: 1.0,
            location_change: 0.5,
            new_event: 0.3,
            utility_change: 2.0,
            budget_change: 2.0,
            fee_change: 0.3,
        }
    }
}

impl OpWeights {
    fn total(&self) -> f64 {
        self.eta_decrease
            + self.eta_increase
            + self.xi_increase
            + self.xi_decrease
            + self.time_change
            + self.location_change
            + self.new_event
            + self.utility_change
            + self.budget_change
            + self.fee_change
    }
}

/// Stateful sampler of atomic operations.
#[derive(Debug)]
pub struct OpStreamSampler {
    rng: StdRng,
    weights: OpWeights,
}

impl OpStreamSampler {
    /// Sampler with the default operation mix.
    pub fn new(seed: u64) -> Self {
        OpStreamSampler {
            rng: StdRng::seed_from_u64(seed),
            weights: OpWeights::default(),
        }
    }

    /// Sampler with a custom mix; panics if every weight is zero.
    pub fn with_weights(seed: u64, weights: OpWeights) -> Self {
        assert!(weights.total() > 0.0, "all operation weights are zero");
        OpStreamSampler {
            rng: StdRng::seed_from_u64(seed),
            weights,
        }
    }

    /// Bounding box of all event venues. `next_op` asserts events
    /// exist before calling this, so the empty (`None`) arm is
    /// unreachable; a degenerate box at the origin keeps the path
    /// total instead of panicking.
    fn event_bbox(instance: &Instance) -> BoundingBox {
        BoundingBox::of(instance.events().iter().map(|e| &e.location))
            .unwrap_or_else(|| BoundingBox::new(Point::new(0.0, 0.0), Point::new(0.0, 0.0)))
    }

    fn random_event(&mut self, instance: &Instance) -> EventId {
        EventId(self.rng.gen_range(0..instance.n_events()) as u32)
    }

    fn random_user(&mut self, instance: &Instance) -> UserId {
        UserId(self.rng.gen_range(0..instance.n_users()) as u32)
    }

    /// Draws the next operation, consistent with the current state.
    /// Panics on instances without users or events.
    pub fn next_op(&mut self, instance: &Instance, plan: &Plan) -> AtomicOp {
        assert!(instance.n_users() > 0, "no users to operate on");
        assert!(instance.n_events() > 0, "no events to operate on");
        let w = self.weights.clone();
        let mut x = self.rng.gen_range(0.0..w.total());
        let mut pick = |weight: f64| -> bool {
            if x < weight {
                true
            } else {
                x -= weight;
                false
            }
        };

        if pick(w.eta_decrease) {
            let event = self.random_event(instance);
            let n = plan.attendance(event);
            let new_upper = if n > 1 {
                self.rng.gen_range(1..n)
            } else {
                n.max(1)
            };
            return AtomicOp::EtaDecrease { event, new_upper };
        }
        if pick(w.eta_increase) {
            let event = self.random_event(instance);
            let bump = self.rng.gen_range(1..=10);
            return AtomicOp::EtaIncrease {
                event,
                new_upper: instance.event(event).upper + bump,
            };
        }
        if pick(w.xi_increase) {
            let event = self.random_event(instance);
            let n = plan.attendance(event);
            let new_lower = (n + self.rng.gen_range(1..=3)).min(instance.event(event).upper);
            return AtomicOp::XiIncrease { event, new_lower };
        }
        if pick(w.xi_decrease) {
            let event = self.random_event(instance);
            return AtomicOp::XiDecrease {
                event,
                new_lower: instance.event(event).lower / 2,
            };
        }
        if pick(w.time_change) {
            let event = self.random_event(instance);
            let anchor = self.random_event(instance);
            let base = instance.event(anchor).time;
            let dur = instance.event(event).time.duration();
            let start = base.start.saturating_add(self.rng.gen_range(0..45));
            return AtomicOp::TimeChange {
                event,
                new_time: TimeInterval::new(start, start + dur),
            };
        }
        if pick(w.location_change) {
            let event = self.random_event(instance);
            let bb = Self::event_bbox(instance);
            return AtomicOp::LocationChange {
                event,
                new_location: Point::new(
                    self.rng.gen_range(bb.min.x..=bb.max.x.max(bb.min.x + 1e-9)),
                    self.rng.gen_range(bb.min.y..=bb.max.y.max(bb.min.y + 1e-9)),
                ),
            };
        }
        if pick(w.new_event) {
            let center = Self::event_bbox(instance).center();
            // Place the new event after everything else on the
            // timeline (the asserted-nonempty event set makes the
            // `max()` fallback unreachable).
            let latest = instance
                .events()
                .iter()
                .map(|e| e.time.end)
                .max()
                .unwrap_or(0);
            let start = latest + self.rng.gen_range(10..120);
            let dur = self.rng.gen_range(60..180);
            let upper = self.rng.gen_range(10..40);
            let lower = self.rng.gen_range(0..=upper / 3);
            let utilities: Vec<f64> = (0..instance.n_users())
                .map(|_| {
                    if self.rng.gen_bool(0.3) {
                        self.rng.gen_range(0.1..1.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            return AtomicOp::NewEvent {
                event: Event::new(center, lower, upper, TimeInterval::new(start, start + dur)),
                utilities,
            };
        }
        if pick(w.utility_change) {
            let user = self.random_user(instance);
            let event = self.random_event(instance);
            let new_utility = if self.rng.gen_bool(0.4) {
                0.0 // the "can no longer attend" case
            } else {
                self.rng.gen_range(0.05..1.0)
            };
            return AtomicOp::UtilityChange {
                user,
                event,
                new_utility,
            };
        }
        if pick(w.budget_change) {
            let user = self.random_user(instance);
            let old = instance.user(user).budget;
            let factor = self.rng.gen_range(0.3..1.7);
            return AtomicOp::BudgetChange {
                user,
                new_budget: old * factor,
            };
        }
        // Remaining mass: fee change.
        let event = self.random_event(instance);
        AtomicOp::FeeChange {
            event,
            new_fee: self.rng.gen_range(0.0..instance.user(UserId(0)).budget / 2.0),
        }
    }

    /// Draws `n` operations, applying each in place to one evolving
    /// copy of the state so later operations stay consistent (e.g. they
    /// may target events created by earlier `NewEvent` ops). An op the
    /// planner rejects leaves the copy unchanged. Returns the ops.
    pub fn stream(
        &mut self,
        instance: &Instance,
        plan: &Plan,
        n: usize,
    ) -> Vec<AtomicOp> {
        let mut inst = instance.clone();
        let mut cur = plan.clone();
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let op = self.next_op(&inst, &cur);
            // A rejected op is rolled back; the stream still carries it.
            let _ = IncrementalPlanner.try_apply_in_place(
                &mut inst,
                &mut cur,
                &op,
                SolveBudget::UNLIMITED,
            );
            ops.push(op);
        }
        ops
    }

    /// [`OpStreamSampler::stream`], with each operation tagged by a
    /// strictly monotonic stream id starting at `first_id` (≥ 1; id 0
    /// is reserved for "nothing applied yet"). Sequenced streams are
    /// the durable/replayable form — `epplan serve` skips any id at or
    /// below its high-water mark, so replaying a whole stream after a
    /// crash is idempotent. The result always passes
    /// [`epplan_core::incremental::validate_sequence`].
    ///
    /// Panics if `first_id` is 0 or the ids would overflow `u64`.
    pub fn sequenced_stream(
        &mut self,
        instance: &Instance,
        plan: &Plan,
        n: usize,
        first_id: u64,
    ) -> Vec<SequencedOp> {
        assert!(first_id >= 1, "stream id 0 is reserved");
        assert!(
            u64::MAX - first_id >= n as u64,
            "stream ids would overflow u64"
        );
        self.stream(instance, plan, n)
            .into_iter()
            .enumerate()
            .map(|(k, op)| SequencedOp::new(first_id + k as u64, op))
            .collect()
    }

    /// [`OpStreamSampler::sequenced_stream`] with a bursty arrival
    /// pattern: ids come in dense runs of `burst.len`, and after each
    /// run the next id jumps ahead by `burst.gap`. The id gaps model
    /// quiet periods between bursts — `epplan serve`'s ops-denominated
    /// admission control drains accumulated staleness across them, so
    /// this is the reproducible overload workload (deterministic from
    /// the sampler seed, like every other stream).
    ///
    /// Panics if `first_id` is 0 or the ids would overflow `u64`.
    pub fn sequenced_burst_stream(
        &mut self,
        instance: &Instance,
        plan: &Plan,
        n: usize,
        first_id: u64,
        burst: BurstSpec,
    ) -> Vec<SequencedOp> {
        assert!(first_id >= 1, "stream id 0 is reserved");
        let n_gaps = (n as u64) / burst.len;
        let span = match n_gaps
            .checked_mul(burst.gap)
            .and_then(|gaps| (n as u64).checked_add(gaps))
        {
            Some(span) => span,
            None => panic!("burst ids overflow u64"),
        };
        assert!(u64::MAX - first_id >= span, "stream ids would overflow u64");
        self.stream(instance, plan, n)
            .into_iter()
            .enumerate()
            .map(|(k, op)| {
                let k = k as u64;
                SequencedOp::new(first_id + k + (k / burst.len) * burst.gap, op)
            })
            .collect()
    }
}

/// A bursty arrival preset: `len` dense ids, then a gap of `gap` ids
/// before the next burst. Parsed from the CLI `--burst LEN,GAP` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSpec {
    /// Ops per burst (≥ 1).
    pub len: u64,
    /// Id gap between consecutive bursts.
    pub gap: u64,
}

impl BurstSpec {
    /// Parses `"LEN,GAP"` (two base-10 integers, `LEN ≥ 1`). A
    /// malformed spec is a typed `BadInput` failure, so the CLI maps
    /// it onto the invalid-instance exit code instead of panicking.
    pub fn parse(spec: &str) -> Result<BurstSpec, SolveError> {
        let bad = |why: &str| {
            SolveError::bad_input(
                "datagen.opstream",
                format!("malformed burst spec {spec:?} (want LEN,GAP): {why}"),
            )
        };
        let (len_s, gap_s) = spec
            .split_once(',')
            .ok_or_else(|| bad("missing comma"))?;
        let len: u64 = len_s
            .trim()
            .parse()
            .map_err(|e| bad(&format!("bad LEN: {e}")))?;
        let gap: u64 = gap_s
            .trim()
            .parse()
            .map_err(|e| bad(&format!("bad GAP: {e}")))?;
        if len == 0 {
            return Err(bad("LEN must be at least 1"));
        }
        Ok(BurstSpec { len, gap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};
    use epplan_core::certify::{certify, certify_tally};
    use epplan_core::incremental::IncrementalPlanner;
    use epplan_core::solver::{GepcSolver, GreedySolver};

    fn setup() -> (Instance, Plan) {
        let inst = generate(&GeneratorConfig {
            n_users: 40,
            n_events: 10,
            mean_lower: 2,
            mean_upper: 8,
            ..Default::default()
        });
        let plan = GreedySolver::seeded(1).solve(&inst).plan;
        (inst, plan)
    }

    /// The stream as sampled before it applied ops in place: every op
    /// applied to fresh copies by `IncrementalPlanner::try_apply_budgeted`,
    /// a rejected one leaving the state.
    fn clone_based_stream(
        sampler: &mut OpStreamSampler,
        instance: &Instance,
        plan: &Plan,
        n: usize,
    ) -> Vec<AtomicOp> {
        let mut inst = instance.clone();
        let mut cur = plan.clone();
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let op = sampler.next_op(&inst, &cur);
            if let Ok(out) =
                IncrementalPlanner.try_apply_budgeted(&inst, &cur, &op, SolveBudget::UNLIMITED)
            {
                inst = out.instance;
                cur = out.plan;
            }
            ops.push(op);
        }
        ops
    }

    /// Replays `ops` through the certified step, one op at a time: the
    /// final state and each op's `dif`.
    fn replay(instance: &Instance, plan: &Plan, ops: &[AtomicOp]) -> (Instance, Plan, Vec<usize>) {
        let (mut inst, mut cur) = (instance.clone(), plan.clone());
        let mut tally = certify_tally(instance, plan).1;
        let mut difs = Vec::new();
        for op in ops {
            let step = IncrementalPlanner.try_apply_certified(&mut inst, &mut cur, &mut tally, op, SolveBudget::UNLIMITED);
            difs.push(step.unwrap_or_else(|e| panic!("{op:?}: {e}")).dif.unwrap_or(0));
        }
        (inst, cur, difs)
    }

    #[test]
    fn in_place_stream_matches_the_clone_based_reference() {
        let (inst, plan) = setup();
        for seed in [3, 7, 11] {
            let got = OpStreamSampler::new(seed).stream(&inst, &plan, 120);
            let want = clone_based_stream(&mut OpStreamSampler::new(seed), &inst, &plan, 120);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let (inst, plan) = setup();
        let a = OpStreamSampler::new(5).stream(&inst, &plan, 10);
        let b = OpStreamSampler::new(5).stream(&inst, &plan, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn burst_stream_ids_jump_by_gap_between_dense_runs() {
        use epplan_core::incremental::validate_sequence;
        let (inst, plan) = setup();
        let burst = BurstSpec::parse("3,10").unwrap();
        let seq = OpStreamSampler::new(5).sequenced_burst_stream(&inst, &plan, 8, 1, burst);
        let ids: Vec<u64> = seq.iter().map(|s| s.id).collect();
        // Bursts of 3 dense ids, then a jump of 10.
        assert_eq!(ids, vec![1, 2, 3, 14, 15, 16, 27, 28]);
        validate_sequence(&seq).unwrap();

        // Deterministic from the seed, and the op payloads match the
        // plain stream exactly (only the ids differ).
        let again = OpStreamSampler::new(5).sequenced_burst_stream(&inst, &plan, 8, 1, burst);
        assert_eq!(seq, again);
        let plain = OpStreamSampler::new(5).sequenced_stream(&inst, &plan, 8, 1);
        let ops: Vec<_> = seq.iter().map(|s| &s.op).collect();
        let plain_ops: Vec<_> = plain.iter().map(|s| &s.op).collect();
        assert_eq!(ops, plain_ops);

        // A zero gap degenerates to the dense stream ids.
        let dense = OpStreamSampler::new(5).sequenced_burst_stream(
            &inst,
            &plan,
            8,
            1,
            BurstSpec::parse("3,0").unwrap(),
        );
        let dense_ids: Vec<u64> = dense.iter().map(|s| s.id).collect();
        assert_eq!(dense_ids, (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn malformed_burst_specs_are_typed_bad_input() {
        use epplan_core::solver::FailureKind;
        for spec in ["", "5", "a,b", "3;4", "0,7", ",", "4,-1", "4,"] {
            let err = BurstSpec::parse(spec)
                .expect_err(&format!("spec {spec:?} should be rejected"));
            assert_eq!(err.kind, FailureKind::BadInput, "spec {spec:?}");
            assert!(err.to_string().contains("burst spec"), "spec {spec:?}");
        }
        assert_eq!(
            BurstSpec::parse(" 64 , 16 ").unwrap(),
            BurstSpec { len: 64, gap: 16 }
        );
    }

    #[test]
    fn stream_is_replayable_via_batch() {
        let (inst, plan) = setup();
        let ops = OpStreamSampler::new(9).stream(&inst, &plan, 15);
        let (out_inst, out_plan, step_difs) = replay(&inst, &plan, &ops);
        assert!(certify(&out_inst, &out_plan).hard_ok());
        assert_eq!(step_difs.len(), 15);
    }

    #[test]
    fn disabled_kinds_never_sampled() {
        let (inst, plan) = setup();
        let weights = OpWeights {
            eta_decrease: 0.0,
            eta_increase: 0.0,
            xi_increase: 0.0,
            xi_decrease: 0.0,
            time_change: 0.0,
            location_change: 0.0,
            new_event: 0.0,
            utility_change: 0.0,
            budget_change: 1.0,
            fee_change: 0.0,
        };
        let mut sampler = OpStreamSampler::with_weights(3, weights);
        for _ in 0..20 {
            let op = sampler.next_op(&inst, &plan);
            assert!(matches!(op, AtomicOp::BudgetChange { .. }), "{op:?}");
        }
    }

    #[test]
    #[should_panic(expected = "all operation weights are zero")]
    fn zero_weights_panic() {
        let weights = OpWeights {
            eta_decrease: 0.0,
            eta_increase: 0.0,
            xi_increase: 0.0,
            xi_decrease: 0.0,
            time_change: 0.0,
            location_change: 0.0,
            new_event: 0.0,
            utility_change: 0.0,
            budget_change: 0.0,
            fee_change: 0.0,
        };
        let _ = OpStreamSampler::with_weights(1, weights);
    }

    #[test]
    fn new_events_extend_later_ops_range() {
        let (inst, plan) = setup();
        let weights = OpWeights {
            new_event: 5.0,
            ..Default::default()
        };
        let mut sampler = OpStreamSampler::with_weights(11, weights);
        let ops = sampler.stream(&inst, &plan, 30);
        let n_new = ops
            .iter()
            .filter(|o| matches!(o, AtomicOp::NewEvent { .. }))
            .count();
        assert!(n_new >= 2, "expected several NewEvent ops, got {n_new}");
        // Replay must succeed even with the growing event set.
        let (out_inst, _, _) = replay(&inst, &plan, &ops);
        assert_eq!(out_inst.n_events(), inst.n_events() + n_new);
    }

    #[test]
    fn sequenced_stream_is_strictly_monotonic_and_validates() {
        use epplan_core::incremental::validate_sequence;
        let (inst, plan) = setup();
        let seq = OpStreamSampler::new(5).sequenced_stream(&inst, &plan, 25, 1);
        assert_eq!(seq.len(), 25);
        validate_sequence(&seq).expect("generator output must validate");
        for (k, sop) in seq.iter().enumerate() {
            assert_eq!(sop.id, 1 + k as u64, "ids are dense from first_id");
        }
        // Ids carry the configured offset and the ops match the
        // unsequenced stream for the same seed.
        let offset = OpStreamSampler::new(5).sequenced_stream(&inst, &plan, 25, 100);
        assert_eq!(offset[0].id, 100);
        assert_eq!(offset[24].id, 124);
        let plain = OpStreamSampler::new(5).stream(&inst, &plan, 25);
        let unwrapped: Vec<_> = seq.into_iter().map(|s| s.op).collect();
        assert_eq!(unwrapped, plain);
    }

    #[test]
    fn duplicate_id_replay_is_rejected_at_validation_time() {
        use epplan_core::incremental::validate_sequence;
        let (inst, plan) = setup();
        let mut seq = OpStreamSampler::new(7).sequenced_stream(&inst, &plan, 10, 1);
        // A double-applied record (the WAL-replay hazard this guards).
        seq.push(seq[4].clone());
        let err = validate_sequence(&seq).unwrap_err();
        assert_eq!(err.kind, epplan_core::solver::FailureKind::BadInput);
    }

    #[test]
    #[should_panic(expected = "stream id 0 is reserved")]
    fn sequenced_stream_rejects_reserved_first_id() {
        let (inst, plan) = setup();
        let _ = OpStreamSampler::new(1).sequenced_stream(&inst, &plan, 1, 0);
    }

    #[test]
    fn all_default_kinds_eventually_appear() {
        let (inst, plan) = setup();
        let mut sampler = OpStreamSampler::new(17);
        let ops = sampler.stream(&inst, &plan, 250);
        // BTreeSet over a stable per-kind index — no hash-order
        // iteration, even in tests (determinism/hash-iter).
        fn kind_index(op: &AtomicOp) -> u8 {
            match op {
                AtomicOp::EtaDecrease { .. } => 0,
                AtomicOp::EtaIncrease { .. } => 1,
                AtomicOp::XiIncrease { .. } => 2,
                AtomicOp::XiDecrease { .. } => 3,
                AtomicOp::TimeChange { .. } => 4,
                AtomicOp::LocationChange { .. } => 5,
                AtomicOp::NewEvent { .. } => 6,
                AtomicOp::UtilityChange { .. } => 7,
                AtomicOp::BudgetChange { .. } => 8,
                AtomicOp::FeeChange { .. } => 9,
            }
        }
        let kinds: std::collections::BTreeSet<u8> = ops.iter().map(kind_index).collect();
        assert!(kinds.len() >= 9, "only {} distinct kinds", kinds.len());
    }
}
