//! The Incremental Event Planning (IEP) problem — Section IV.
//!
//! The paper identifies the atomic operations an EBSN faces (utility
//! and budget changes from users; new events, bound changes, time and
//! location changes from organizers) and shows that three repair
//! algorithms suffice:
//!
//! * [`AtomicOp::EtaDecrease`] → Algorithm 3 ([`eta_decrease`]);
//! * [`AtomicOp::XiIncrease`] → Algorithm 4 ([`xi_increase`]);
//! * [`AtomicOp::TimeChange`] → Algorithm 5 ([`time_change`]);
//!
//! with every other operation reducible to them (Section IV's opening
//! discussion: "solving for all other atomic operations can be reduced
//! to one of these"). [`IncrementalPlanner::try_apply_certified`] is
//! the IEP entry point: it runs the dispatch on the live instance and
//! plan ([`IncrementalPlanner::try_apply_in_place`], whose undo journal
//! [`OpJournal`] gives the negative impact `dif(P, P′)`), certifies
//! the delta, and keeps the repair or rolls it back.
//! [`IncrementalPlanner::try_apply_budgeted`] is the uncertified copy
//! form of the same core.

mod eta_decrease;
mod exact_iep;
pub(crate) mod repair;
mod time_change;
mod xi_increase;

pub use eta_decrease::eta_decrease;
pub use exact_iep::{exact_iep, ExactIepResult};
pub use repair::TransferResult;
pub use time_change::{time_change, TimeChangeOutcome};
pub use xi_increase::xi_increase;

use crate::certify::certify_delta;
use crate::model::{Event, EventId, Instance, TimeInterval, UserId};
use crate::plan::{Plan, PlanJournal};
use crate::solver::filler;
use epplan_geo::Point;
use epplan_solve::{BudgetGuard, CertTally, Certificate, SolveBudget, SolveError};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

const STAGE: &str = "core.incremental";

/// A single atomic change to the EBSN (Section IV's taxonomy).
///
/// Serializes as internally-tagged JSON (`{"op": "eta_decrease", ...}`)
/// so operation streams can be stored and replayed (see the `epplan`
/// CLI's `apply` subcommand).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum AtomicOp {
    /// Event `η_j` decreased (core Algorithm 3).
    EtaDecrease {
        /// Affected event.
        event: EventId,
        /// New upper bound `η'_j`.
        new_upper: u32,
    },
    /// Event `η_j` increased (reduction: pure capacity fill).
    EtaIncrease {
        /// Affected event.
        event: EventId,
        /// New upper bound.
        new_upper: u32,
    },
    /// Event `ξ_j` increased (core Algorithm 4).
    XiIncrease {
        /// Affected event.
        event: EventId,
        /// New lower bound `ξ'_j`.
        new_lower: u32,
    },
    /// Event `ξ_j` decreased (reduction: no plan change needed).
    XiDecrease {
        /// Affected event.
        event: EventId,
        /// New lower bound.
        new_lower: u32,
    },
    /// Event start/end time changed (core Algorithm 5).
    TimeChange {
        /// Affected event.
        event: EventId,
        /// New holding window.
        new_time: TimeInterval,
    },
    /// Event venue moved (reduction onto Algorithm 5's repair: the
    /// removal criterion is budget instead of conflict).
    LocationChange {
        /// Affected event.
        event: EventId,
        /// New venue.
        new_location: Point,
    },
    /// A new event posted (reduction: "increasing `e_j`'s participation
    /// lower bound from 0", i.e. Algorithm 4, then capacity fill).
    NewEvent {
        /// The event to add.
        event: Event,
        /// Per-user utilities for it (one entry per existing user).
        utilities: Vec<f64>,
    },
    /// A user's utility for an event changed (e.g. availability shifts
    /// make `μ` drop to 0 — the paper's Jessica example).
    UtilityChange {
        /// Affected user.
        user: UserId,
        /// Affected event.
        event: EventId,
        /// New score in `[0, 1]`.
        new_utility: f64,
    },
    /// A user's travel budget changed (the bad-weather example).
    BudgetChange {
        /// Affected user.
        user: UserId,
        /// New budget `B'_i ≥ 0`.
        new_budget: f64,
    },
    /// An event's admission fee changed (the Section VII cost
    /// extension). A fee hike can push attendees over budget, so the
    /// repair mirrors a location change: shed attendees who can no
    /// longer afford the event, then refill toward the bounds.
    FeeChange {
        /// Affected event.
        event: EventId,
        /// New fee `≥ 0`.
        new_fee: f64,
    },
}

/// An [`AtomicOp`] tagged with a strictly monotonic stream id — the
/// replay and idempotency unit of durable operation streams (the
/// `epplan serve` write-ahead log, `datagen::opstream` JSONL files).
///
/// Ids are assigned by the producer and must strictly increase along a
/// stream ([`validate_sequence`]); gaps are fine. A consumer that
/// remembers the last id it applied can replay any suffix of the
/// stream without double-applying an operation.
///
/// Serializes as `{"id": 17, "op": {"op": "eta_decrease", ...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequencedOp {
    /// Strictly monotonic stream id (producer-assigned, 1-based by
    /// convention; 0 is reserved for "nothing applied yet").
    pub id: u64,
    /// The operation itself.
    pub op: AtomicOp,
}

impl SequencedOp {
    /// Tags `op` with stream id `id`.
    pub fn new(id: u64, op: AtomicOp) -> Self {
        SequencedOp { id, op }
    }
}

/// Validates the id discipline of a sequenced stream: ids must
/// strictly increase (duplicates and reorderings are both rejected)
/// and must not use the reserved id 0. Run this on any deserialized
/// stream before replaying it — a duplicate id replayed against a
/// write-ahead log would double-apply its operation.
pub fn validate_sequence(ops: &[SequencedOp]) -> Result<(), SolveError<()>> {
    let mut last: u64 = 0;
    for (k, sop) in ops.iter().enumerate() {
        if sop.id == 0 {
            return Err(SolveError::bad_input(
                STAGE,
                format!("operation {k} uses reserved stream id 0"),
            ));
        }
        if sop.id <= last {
            let what = if sop.id == last { "duplicates" } else { "precedes" };
            return Err(SolveError::bad_input(
                STAGE,
                format!("operation {k} id {} {what} previous id {last}", sop.id),
            ));
        }
        last = sop.id;
    }
    Ok(())
}

/// Result of [`IncrementalPlanner::try_apply_budgeted`], the
/// uncertified copy form of the in-place step.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome {
    /// The updated instance (the operation applied).
    pub instance: Instance,
    /// The repaired plan `P′`.
    pub plan: Plan,
    /// Negative impact `dif(P, P′)`.
    pub dif: usize,
}

/// Why [`IncrementalPlanner::try_apply_certified`] did not fold its
/// operation in. Either way the state is as it was before the call.
#[derive(Debug, Clone)]
pub enum RepairError {
    /// The in-place core failed (malformed op, budget, fault).
    Failed(SolveError<()>),
    /// The repaired state failed delta certification and was rolled
    /// back.
    Uncertified(Certificate),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Failed(e) => write!(f, "{e}"),
            RepairError::Uncertified(cert) => write!(f, "repair rejected by certification: {cert}"),
        }
    }
}

/// Stateless IEP dispatcher. A batch of changes is a loop over
/// [`IncrementalPlanner::try_apply_certified`] — the paper's treatment
/// of multiple changes ("the case where multiple atomic operations
/// take place is treated here as running the incremental version
/// multiple times", Section II-B).
///
/// ```
/// use epplan_core::incremental::{AtomicOp, IncrementalPlanner};
/// use epplan_core::model::{EventId, InstanceBuilder, TimeInterval};
/// use epplan_core::solver::{GepcSolver, GreedySolver};
/// use epplan_geo::Point;
/// use epplan_solve::SolveBudget;
///
/// let mut b = InstanceBuilder::new();
/// let u0 = b.user(Point::new(0.0, 0.0), 10.0);
/// let u1 = b.user(Point::new(0.0, 1.0), 10.0);
/// let e = b.event(Point::new(1.0, 0.0), 0, 2, TimeInterval::new(540, 600));
/// b.utility(u0, e, 0.9);
/// b.utility(u1, e, 0.4);
/// let mut instance = b.build();
/// let solution = GreedySolver::seeded(1).solve(&instance);
/// let (mut plan, mut tally) = (solution.plan, solution.tally);
/// assert_eq!(plan.attendance(e), 2);
///
/// // The venue shrinks to a single seat: the lower-utility attendee
/// // is dropped, with the minimal negative impact of 1, and the
/// // repaired plan certifies.
/// let op = AtomicOp::EtaDecrease { event: e, new_upper: 1 };
/// let cert = IncrementalPlanner
///     .try_apply_certified(&mut instance, &mut plan, &mut tally, &op, SolveBudget::UNLIMITED)
///     .unwrap();
/// assert!(cert.hard_ok());
/// assert_eq!(cert.dif, Some(1));
/// assert!(plan.contains(u0, e));
/// assert!(!plan.contains(u1, e));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalPlanner;

impl IncrementalPlanner {
    /// Checks that `op` is well-formed against `instance`: ids in
    /// range, finite non-negative money amounts, utilities in `[0, 1]`
    /// (NaN rejected), non-inverted intervals and bounds. Deserialized
    /// operation streams can violate any of these.
    pub fn validate_op(instance: &Instance, op: &AtomicOp) -> Result<(), SolveError<()>> {
        let bad = |msg: String| Err(SolveError::bad_input(STAGE, msg));
        let check_event = |e: EventId| {
            if e.index() >= instance.n_events() {
                bad(format!("event {e} out of range ({} events)", instance.n_events()))
            } else {
                Ok(())
            }
        };
        let check_user = |u: UserId| {
            if u.index() >= instance.n_users() {
                bad(format!("user {u} out of range ({} users)", instance.n_users()))
            } else {
                Ok(())
            }
        };
        let check_utility = |v: f64| {
            if !(0.0..=1.0).contains(&v) {
                bad(format!("utility {v} outside [0, 1]"))
            } else {
                Ok(())
            }
        };
        let check_money = |what: &str, v: f64| {
            if !v.is_finite() || v < 0.0 {
                bad(format!("{what} {v} must be finite and non-negative"))
            } else {
                Ok(())
            }
        };
        let check_time = |t: TimeInterval| {
            if t.start >= t.end {
                bad(format!("empty or inverted interval [{}, {})", t.start, t.end))
            } else {
                Ok(())
            }
        };
        let check_point = |p: Point| {
            if !p.x.is_finite() || !p.y.is_finite() {
                bad(format!("non-finite location ({}, {})", p.x, p.y))
            } else {
                Ok(())
            }
        };
        match op {
            // The four bound operations encode their direction in the
            // tag, and the repair algorithms rely on it: a mislabeled
            // `EtaIncrease` that actually lowers η would skip Algorithm
            // 3's participant trim and leave the event overfull.
            AtomicOp::EtaDecrease { event, new_upper } => {
                check_event(*event)?;
                if *new_upper > instance.event(*event).upper {
                    return bad(format!(
                        "eta_decrease raises η for {event}: {} > {}",
                        new_upper,
                        instance.event(*event).upper
                    ));
                }
                Ok(())
            }
            AtomicOp::EtaIncrease { event, new_upper } => {
                check_event(*event)?;
                if *new_upper < instance.event(*event).upper {
                    return bad(format!(
                        "eta_increase lowers η for {event}: {} < {}",
                        new_upper,
                        instance.event(*event).upper
                    ));
                }
                Ok(())
            }
            AtomicOp::XiIncrease { event, new_lower } => {
                check_event(*event)?;
                if *new_lower < instance.event(*event).lower {
                    return bad(format!(
                        "xi_increase lowers ξ for {event}: {} < {}",
                        new_lower,
                        instance.event(*event).lower
                    ));
                }
                Ok(())
            }
            AtomicOp::XiDecrease { event, new_lower } => {
                check_event(*event)?;
                if *new_lower > instance.event(*event).lower {
                    return bad(format!(
                        "xi_decrease raises ξ for {event}: {} > {}",
                        new_lower,
                        instance.event(*event).lower
                    ));
                }
                Ok(())
            }
            AtomicOp::TimeChange { event, new_time } => {
                check_event(*event)?;
                check_time(*new_time)
            }
            AtomicOp::LocationChange { event, new_location } => {
                check_event(*event)?;
                check_point(*new_location)
            }
            AtomicOp::NewEvent { event, utilities } => {
                if utilities.len() != instance.n_users() {
                    return bad(format!(
                        "new event carries {} utilities for {} users",
                        utilities.len(),
                        instance.n_users()
                    ));
                }
                utilities.iter().try_for_each(|&v| check_utility(v))?;
                if event.lower > event.upper {
                    return bad(format!(
                        "lower bound {} exceeds upper bound {}",
                        event.lower, event.upper
                    ));
                }
                check_time(event.time)?;
                check_point(event.location)?;
                check_money("admission fee", event.fee)
            }
            AtomicOp::UtilityChange { user, event, new_utility } => {
                check_user(*user)?;
                check_event(*event)?;
                check_utility(*new_utility)
            }
            AtomicOp::BudgetChange { user, new_budget } => {
                check_user(*user)?;
                check_money("travel budget", *new_budget)
            }
            AtomicOp::FeeChange { event, new_fee } => {
                check_event(*event)?;
                check_money("admission fee", *new_fee)
            }
        }
    }

    /// The certified IEP step, and the entry point for applying ops.
    /// Applies `op` in place under `budget`
    /// ([`IncrementalPlanner::try_apply_in_place`]), certifies the delta
    /// against `tally` ([`certify_delta`]), and either keeps the repair
    /// — `tally` patched, the certificate carrying `dif(P, P′)` and the
    /// new `U_P` — or rolls it back. `tally` must describe a certified
    /// `(instance, plan)` ([`crate::certify::certify_tally`], or a
    /// solve's `Solution::tally`). On every error `(instance, plan,
    /// tally)` are exactly as they were.
    pub fn try_apply_certified(
        &self,
        instance: &mut Instance,
        plan: &mut Plan,
        tally: &mut CertTally,
        op: &AtomicOp,
        budget: SolveBudget,
    ) -> Result<Certificate, RepairError> {
        let journal = self
            .try_apply_in_place(instance, plan, op, budget)
            .map_err(RepairError::Failed)?;
        let cert = certify_delta(instance, plan, op, journal.plan(), tally);
        if !cert.hard_ok() {
            journal.rollback(instance, plan);
            return Err(RepairError::Uncertified(cert));
        }
        Ok(cert)
    }

    /// The uncertified copy form of the same in-place core: applies
    /// `op` to copies of `(instance, plan)` under `budget` and returns
    /// them with `dif`. Neither input is modified and nothing is
    /// certified; it is not a second repair algorithm.
    ///
    /// Every error carries the **unchanged** `(instance, plan)` as its
    /// partial outcome, never a half-repaired plan.
    pub fn try_apply_budgeted(
        &self,
        instance: &Instance,
        plan: &Plan,
        op: &AtomicOp,
        budget: SolveBudget,
    ) -> Result<IncrementalOutcome, SolveError<IncrementalOutcome>> {
        let mut inst = instance.clone();
        let mut new_plan = plan.clone();
        match self.try_apply_in_place(&mut inst, &mut new_plan, op, budget) {
            Ok(journal) => {
                let dif = journal.plan().dif(&new_plan);
                Ok(IncrementalOutcome { instance: inst, plan: new_plan, dif })
            }
            // A failed operation leaves the copies as they were.
            Err(e) => Err(e
                .discard_partial()
                .with_partial(IncrementalOutcome { instance: inst, plan: new_plan, dif: 0 })),
        }
    }

    /// The in-place core both applying paths share
    /// ([`IncrementalPlanner::try_apply_certified`] and
    /// [`IncrementalPlanner::try_apply_budgeted`]). Mutates
    /// `(instance, plan)` and returns only the operation's
    /// [`OpJournal`]: its saved lists give `dif` in
    /// O(touched), and [`OpJournal::rollback`] restores the exact pre-op
    /// state — the caller's way out when it rejects the result (say, on
    /// certification). Global utility and shortfalls are the caller's
    /// to compute, if it needs them.
    ///
    /// Malformed operations are rejected with a typed `BadInput` error
    /// instead of panicking deep inside the model layer. The budget is
    /// enforced at the operation granularity — one guard tick up front
    /// (so iteration caps and pre-expired zero allowances trip
    /// deterministically before any work) and a deadline check after
    /// the repair; a tripped budget is the usual retryable
    /// `BudgetExhausted` error. On every error `(instance, plan)` are
    /// left (or rolled back to) exactly as they were.
    pub fn try_apply_in_place(
        &self,
        instance: &mut Instance,
        plan: &mut Plan,
        op: &AtomicOp,
        budget: SolveBudget,
    ) -> Result<OpJournal, SolveError<()>> {
        let mut guard = BudgetGuard::new(budget);
        guard.tick(STAGE)?;
        Self::validate_op(instance, op)?;
        // Deterministic fault injection in front of the repair dispatch
        // (serial entry point, hit count thread-invariant).
        if let Some(action) = epplan_fault::point("core.iep.apply") {
            return Err(SolveError::from_fault(STAGE, "core.iep.apply", action));
        }
        let journal = Self::apply_validated(instance, plan, op);
        if let Err(e) = guard.check_deadline(STAGE) {
            // The repair finished but blew the deadline: the repair
            // result must not leak past a broken budget contract.
            journal.rollback(instance, plan);
            return Err(e);
        }
        Ok(journal)
    }

    /// The pure state transition of `op` on the instance alone, in
    /// place — no plan repair, no fault points, no budget. This is the
    /// single source of truth for "what the world looks like after
    /// `op`"; the repair path composes it with the repair algorithms,
    /// and the `epplan serve` full-re-solve fallback uses it directly
    /// when a repair fails and the plan is rebuilt from scratch. The
    /// returned journal undoes it. `op` must already be validated.
    pub fn apply_to_instance_in_place(instance: &mut Instance, op: &AtomicOp) -> InstanceJournal {
        let undo = match *op {
            AtomicOp::EtaDecrease { event, new_upper }
            | AtomicOp::EtaIncrease { event, new_upper } => {
                let old = *instance.event(event);
                instance.set_event_bounds(event, old.lower.min(new_upper), new_upper);
                InstanceUndo::Bounds { event, lower: old.lower, upper: old.upper }
            }
            AtomicOp::XiIncrease { event, new_lower } => {
                let old = *instance.event(event);
                instance.set_event_bounds(event, new_lower, old.upper.max(new_lower));
                InstanceUndo::Bounds { event, lower: old.lower, upper: old.upper }
            }
            AtomicOp::XiDecrease { event, new_lower } => {
                let old = *instance.event(event);
                instance.set_event_bounds(event, new_lower, old.upper);
                InstanceUndo::Bounds { event, lower: old.lower, upper: old.upper }
            }
            AtomicOp::TimeChange { event, new_time } => {
                let time = instance.event(event).time;
                instance.set_event_time(event, new_time);
                InstanceUndo::Time { event, time }
            }
            AtomicOp::LocationChange { event, new_location } => {
                let location = instance.event(event).location;
                instance.set_event_location(event, new_location);
                InstanceUndo::Location { event, location }
            }
            AtomicOp::NewEvent { ref event, ref utilities } => {
                instance.add_event(*event, utilities);
                InstanceUndo::NewEvent
            }
            AtomicOp::UtilityChange { user, event, new_utility } => {
                let slot = instance.utility_slot(user, event);
                instance.set_utility(user, event, new_utility);
                InstanceUndo::Utility { user, event, slot }
            }
            AtomicOp::BudgetChange { user, new_budget } => {
                let budget = instance.user(user).budget;
                instance.set_budget(user, new_budget);
                InstanceUndo::Budget { user, budget }
            }
            AtomicOp::FeeChange { event, new_fee } => {
                let fee = instance.event(event).fee;
                instance.set_event_fee(event, new_fee);
                InstanceUndo::Fee { event, fee }
            }
        };
        InstanceJournal(undo)
    }

    fn apply_validated(instance: &mut Instance, plan: &mut Plan, op: &AtomicOp) -> OpJournal {
        // Per-operation repair cost: the measurement the incremental
        // tables (paper §V/§VI) are built from.
        let mut sp = epplan_obs::span("iep.apply");
        sp.add_iters(1);
        epplan_obs::counter_add("iep.ops", 1);
        // Fee and budget repairs depend on the direction of the change.
        let direction = match op {
            AtomicOp::FeeChange { event, new_fee } => {
                new_fee.partial_cmp(&instance.event(*event).fee)
            }
            AtomicOp::BudgetChange { user, new_budget } => {
                new_budget.partial_cmp(&instance.user(*user).budget)
            }
            _ => None,
        };
        // The instance transition is shared with the serving layer's
        // full-re-solve fallback; only the repair dispatch lives here.
        let instance_journal = Self::apply_to_instance_in_place(instance, op);
        plan.begin_journal();
        let inst = &*instance;

        match op {
            AtomicOp::EtaDecrease { event, .. } => {
                eta_decrease(inst, plan, *event);
            }
            AtomicOp::EtaIncrease { event, .. } => {
                // Pure addition: fill the new capacity, no negative
                // impact possible.
                filler::fill_event(inst, plan, *event);
            }
            AtomicOp::XiIncrease { event, .. } => {
                xi_increase(inst, plan, *event);
            }
            AtomicOp::XiDecrease { .. } => {
                // The old plan remains feasible: nothing to repair.
            }
            AtomicOp::TimeChange { event, .. } => {
                time_change(inst, plan, *event);
            }
            AtomicOp::LocationChange { event, .. } => {
                // Same repair loop: the removal pass inside
                // `time_change` re-checks both conflicts and budgets,
                // and only budgets can newly fail here.
                time_change(inst, plan, *event);
            }
            AtomicOp::NewEvent { .. } => {
                // The transition appended the event, so it carries the
                // highest id.
                let id = EventId((inst.n_events() - 1) as u32);
                plan.resize_events(inst.n_events());
                // Reduction per the paper: raise the lower bound from 0
                // (Algorithm 4), then fill spare capacity to η.
                if inst.event(id).lower > 0 {
                    xi_increase(inst, plan, id);
                }
                filler::fill_event(inst, plan, id);
            }
            AtomicOp::UtilityChange {
                user,
                event,
                new_utility,
            } => {
                if *new_utility <= 0.0 && plan.contains(*user, *event) {
                    // The user can no longer attend (the paper's
                    // availability example): remove, restore the lower
                    // bound if broken, and let the user refill.
                    plan.remove(*user, *event);
                    if plan.attendance(*event) < inst.event(*event).lower {
                        xi_increase(inst, plan, *event);
                    }
                    filler::fill_to_upper(inst, plan, Some(&[*user]));
                } else if *new_utility > 0.0 && !plan.contains(*user, *event) {
                    // Higher interest: take the event if it simply fits.
                    if plan.attendance(*event) < inst.event(*event).upper
                        && inst.can_attend_with(*user, plan.user_plan(*user), *event)
                    {
                        plan.add(*user, *event);
                    }
                }
            }
            AtomicOp::FeeChange { event, .. } => match direction {
                // Same repair loop as a venue move: the removal pass
                // re-checks budgets (now including the higher fee) and
                // refills toward ξ/η.
                Some(Ordering::Greater) => {
                    time_change(inst, plan, *event);
                }
                // Cheaper event: purely additive refill.
                Some(Ordering::Less) => {
                    filler::fill_event(inst, plan, *event);
                }
                _ => {}
            },
            AtomicOp::BudgetChange { user, .. } => match direction {
                Some(Ordering::Less) => {
                    let dropped = repair::shed_to_budget(inst, plan, *user);
                    for e in dropped {
                        if plan.attendance(e) < inst.event(e).lower {
                            xi_increase(inst, plan, e);
                        }
                    }
                    // A cheaper event might still fit the shrunken
                    // budget.
                    filler::fill_to_upper(inst, plan, Some(&[*user]));
                }
                Some(Ordering::Greater) => {
                    filler::fill_to_upper(inst, plan, Some(&[*user]));
                }
                _ => {}
            },
        }

        OpJournal {
            instance: instance_journal,
            plan: plan.end_journal(),
        }
    }
}

/// What an operation's instance transition overwrote: the one field
/// group it changes, or the event it appended.
#[derive(Debug, Clone)]
enum InstanceUndo {
    Bounds { event: EventId, lower: u32, upper: u32 },
    Time { event: EventId, time: TimeInterval },
    Location { event: EventId, location: Point },
    Utility { user: UserId, event: EventId, slot: Option<f64> },
    Budget { user: UserId, budget: f64 },
    Fee { event: EventId, fee: f64 },
    NewEvent,
}

/// The undo record of one instance transition
/// ([`IncrementalPlanner::apply_to_instance_in_place`]).
#[derive(Debug, Clone)]
pub struct InstanceJournal(InstanceUndo);

impl InstanceJournal {
    /// Restores the instance the transition started from. The
    /// restoring setters drop the candidate cache where the forward
    /// setter did, so the next `candidates()` call rebuilds it.
    pub fn rollback(self, instance: &mut Instance) {
        match self.0 {
            InstanceUndo::Bounds { event, lower, upper } => {
                instance.set_event_bounds(event, lower, upper);
            }
            InstanceUndo::Time { event, time } => instance.set_event_time(event, time),
            InstanceUndo::Location { event, location } => {
                instance.set_event_location(event, location);
            }
            InstanceUndo::Utility { user, event, slot } => {
                instance.restore_utility(user, event, slot);
            }
            InstanceUndo::Budget { user, budget } => instance.set_budget(user, budget),
            InstanceUndo::Fee { event, fee } => instance.set_event_fee(event, fee),
            InstanceUndo::NewEvent => instance.pop_event(),
        }
    }
}

/// The undo record of one operation applied in place: what its
/// transition overwrote on the instance, and every plan list its
/// repair changed.
#[derive(Debug, Clone)]
pub struct OpJournal {
    instance: InstanceJournal,
    plan: PlanJournal,
}

impl OpJournal {
    /// The users the repair changed, with their pre-op lists.
    pub fn plan(&self) -> &PlanJournal {
        &self.plan
    }

    /// Restores the exact pre-op `(instance, plan)`: equal by
    /// `PartialEq` and by serialized bytes, each user's insertion order
    /// included.
    pub fn rollback(self, instance: &mut Instance, plan: &mut Plan) {
        plan.rollback(self.plan);
        self.instance.rollback(instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{certify, certify_tally};
    use crate::model::{User, UtilityMatrix};
    use crate::plan::dif;
    use crate::solver::{GepcSolver, GreedySolver};

    /// A 4-user, 3-event instance with room to maneuver.
    fn setup() -> (Instance, Plan) {
        let users = vec![
            User::new(Point::new(0.0, 0.0), 100.0),
            User::new(Point::new(0.0, 1.0), 100.0),
            User::new(Point::new(0.0, 2.0), 100.0),
            User::new(Point::new(0.0, 3.0), 100.0),
        ];
        let events = vec![
            Event::new(Point::new(1.0, 0.0), 1, 3, TimeInterval::new(0, 59)),
            Event::new(Point::new(1.0, 1.0), 1, 4, TimeInterval::new(60, 119)),
            Event::new(Point::new(1.0, 2.0), 0, 2, TimeInterval::new(120, 179)),
        ];
        let utilities = UtilityMatrix::from_rows(vec![
            vec![0.9, 0.6, 0.3],
            vec![0.7, 0.8, 0.5],
            vec![0.5, 0.4, 0.9],
            vec![0.3, 0.7, 0.6],
        ]).unwrap();
        let instance = Instance::new(users, events, utilities).unwrap();
        let plan = GreedySolver::seeded(11).solve(&instance).plan;
        (instance, plan)
    }

    /// Runs the certified step on copies of `(instance, plan)`, its
    /// tally seeded by one full certify: the repaired state and the
    /// step's certificate.
    pub(crate) fn step(instance: &Instance, plan: &Plan, op: &AtomicOp) -> (Instance, Plan, Certificate) {
        let (mut inst, mut cur) = (instance.clone(), plan.clone());
        let mut tally = certify_tally(instance, plan).1;
        let cert = IncrementalPlanner
            .try_apply_certified(&mut inst, &mut cur, &mut tally, op, SolveBudget::UNLIMITED)
            .unwrap_or_else(|e| panic!("{op:?}: {e}"));
        (inst, cur, cert)
    }

    #[test]
    fn all_ops_preserve_hard_feasibility() {
        let (instance, plan) = setup();
        for op in one_of_each_op() {
            let (inst, cur, _) = step(&instance, &plan, &op);
            let v = certify(&inst, &cur);
            assert!(v.hard_ok(), "op {op:?} broke the plan: {:?}", v.hard_violations);
        }
    }

    #[test]
    fn eta_decrease_dif_is_minimal() {
        let (instance, plan) = setup();
        let n0 = plan.attendance(EventId(0));
        assert!(n0 >= 2, "test premise: e0 has ≥ 2 attendees");
        let (_, _, cert) = step(
            &instance,
            &plan,
            &AtomicOp::EtaDecrease {
                event: EventId(0),
                new_upper: 1,
            },
        );
        assert_eq!(cert.dif, Some((n0 - 1) as usize));
    }

    #[test]
    fn xi_decrease_never_changes_plan() {
        let (instance, plan) = setup();
        let (_, cur, cert) = step(
            &instance,
            &plan,
            &AtomicOp::XiDecrease {
                event: EventId(1),
                new_lower: 0,
            },
        );
        assert_eq!(cert.dif, Some(0));
        assert_eq!(cur, plan);
    }

    #[test]
    fn eta_increase_only_adds() {
        let (instance, plan) = setup();
        let (_, _, cert) = step(
            &instance,
            &plan,
            &AtomicOp::EtaIncrease {
                event: EventId(2),
                new_upper: 4,
            },
        );
        assert_eq!(cert.dif, Some(0));
        assert!(cert.utility >= plan.total_utility(&instance) - 1e-9);
    }

    #[test]
    fn new_event_gets_filled() {
        let (instance, plan) = setup();
        let (inst, cur, cert) = step(
            &instance,
            &plan,
            &AtomicOp::NewEvent {
                event: Event::new(Point::new(0.5, 1.5), 2, 4, TimeInterval::new(300, 360)),
                utilities: vec![0.9, 0.9, 0.9, 0.9],
            },
        );
        let new_id = EventId(3);
        assert!(cur.attendance(new_id) >= 2, "lower bound met");
        assert!(cur.shortfall(&inst).is_empty());
        // Nothing needed to be taken away: the event is conflict-free.
        assert_eq!(cert.dif, Some(0));
    }

    #[test]
    fn utility_drop_to_zero_removes_assignment() {
        let (instance, plan) = setup();
        // Find a user attending e1.
        let victim = plan.attendees(EventId(1))[0];
        let (inst, cur, cert) = step(
            &instance,
            &plan,
            &AtomicOp::UtilityChange {
                user: victim,
                event: EventId(1),
                new_utility: 0.0,
            },
        );
        assert!(!cur.contains(victim, EventId(1)));
        assert!(cert.dif >= Some(1));
        assert!(certify(&inst, &cur).hard_ok());
    }

    #[test]
    fn budget_increase_only_adds() {
        let (mut instance, _) = setup();
        instance.set_budget(UserId(0), 2.0); // tight
        let plan = GreedySolver::seeded(11).solve(&instance).plan;
        let (_, _, cert) = step(
            &instance,
            &plan,
            &AtomicOp::BudgetChange {
                user: UserId(0),
                new_budget: 100.0,
            },
        );
        assert_eq!(cert.dif, Some(0));
        assert!(cert.utility >= plan.total_utility(&instance) - 1e-9);
    }

    #[test]
    fn budget_decrease_sheds_and_repairs() {
        let (instance, plan) = setup();
        let u = UserId(1);
        assert!(!plan.user_plan(u).is_empty());
        let (inst, cur, cert) = step(
            &instance,
            &plan,
            &AtomicOp::BudgetChange {
                user: u,
                new_budget: 0.0,
            },
        );
        assert!(cur.user_plan(u).is_empty());
        assert!(certify(&inst, &cur).hard_ok());
        assert_eq!(cert.dif, Some(plan.user_plan(u).len()));
    }

    #[test]
    fn batch_application_equals_sequential() {
        // A batch is a loop over the certified step; the copy form,
        // applied op by op, reaches the same state with the same difs.
        let (instance, plan) = setup();
        let ops = [
            AtomicOp::EtaDecrease { event: EventId(0), new_upper: 1 },
            AtomicOp::XiIncrease { event: EventId(2), new_lower: 2 },
            AtomicOp::BudgetChange { user: UserId(1), new_budget: 3.0 },
        ];
        let (mut inst, mut cur) = (instance.clone(), plan.clone());
        let mut tally = certify_tally(&instance, &plan).1;
        let (mut copy_inst, mut copy_plan) = (instance.clone(), plan.clone());
        let mut step_difs = 0;
        for op in &ops {
            let cert = IncrementalPlanner
                .try_apply_certified(&mut inst, &mut cur, &mut tally, op, SolveBudget::UNLIMITED)
                .unwrap();
            let out = IncrementalPlanner
                .try_apply_budgeted(&copy_inst, &copy_plan, op, SolveBudget::UNLIMITED)
                .unwrap();
            assert_eq!(cert.dif, Some(out.dif), "{op:?}");
            (copy_inst, copy_plan) = (out.instance, out.plan);
            step_difs += out.dif;
        }
        assert_eq!((&inst, &cur), (&copy_inst, &copy_plan));
        assert!(certify(&inst, &cur).hard_ok());
        // Net dif never exceeds the sum of step difs.
        assert!(dif(&plan, &cur) <= step_difs);
    }

    #[test]
    fn empty_batch_is_identity() {
        // An op that changes nothing leaves the state and the tally as
        // a fresh certify describes them.
        let (instance, plan) = setup();
        let (mut inst, mut cur) = (instance.clone(), plan.clone());
        let (_, mut tally) = certify_tally(&instance, &plan);
        let lower = instance.event(EventId(1)).lower;
        let op = AtomicOp::XiDecrease { event: EventId(1), new_lower: lower };
        let cert = IncrementalPlanner
            .try_apply_certified(&mut inst, &mut cur, &mut tally, &op, SolveBudget::UNLIMITED)
            .unwrap();
        assert_eq!((&inst, &cur, cert.dif), (&instance, &plan, Some(0)));
        assert_eq!(tally, certify_tally(&instance, &plan).1);
    }

    #[test]
    fn fee_hike_sheds_unaffordable_attendees() {
        let (mut instance, _) = setup();
        // Make budgets tight enough that a fee hike matters.
        for u in instance.user_ids() {
            instance.set_budget(u, 6.0);
        }
        let plan = GreedySolver::seeded(11).solve(&instance).plan;
        let e = EventId(0);
        let (inst, cur, _) = step(
            &instance,
            &plan,
            &AtomicOp::FeeChange {
                event: e,
                new_fee: 5.0,
            },
        );
        let v = certify(&inst, &cur);
        assert!(v.hard_ok(), "{:?}", v.hard_violations);
        // Every remaining attendee can still afford route + fee.
        for u in cur.attendees(e) {
            assert!(cur.travel_cost(&inst, u) <= inst.user(u).budget + 1e-9);
        }
    }

    #[test]
    fn fee_drop_only_adds() {
        let (mut instance, _) = setup();
        instance.set_event_fee(EventId(2), 150.0); // above every budget
        let plan = GreedySolver::seeded(11).solve(&instance).plan;
        assert_eq!(plan.attendance(EventId(2)), 0);
        let (inst, cur, cert) = step(
            &instance,
            &plan,
            &AtomicOp::FeeChange {
                event: EventId(2),
                new_fee: 0.0,
            },
        );
        assert_eq!(cert.dif, Some(0));
        assert!(cur.attendance(EventId(2)) > 0, "refilled once affordable");
        assert!(certify(&inst, &cur).hard_ok());
    }

    #[test]
    fn malformed_ops_are_rejected_with_bad_input() {
        let (instance, plan) = setup();
        let planner = IncrementalPlanner;
        let bad_ops = vec![
            AtomicOp::EtaDecrease {
                event: EventId(99),
                new_upper: 1,
            },
            AtomicOp::UtilityChange {
                user: UserId(50),
                event: EventId(0),
                new_utility: 0.5,
            },
            AtomicOp::UtilityChange {
                user: UserId(0),
                event: EventId(0),
                new_utility: f64::NAN,
            },
            AtomicOp::UtilityChange {
                user: UserId(0),
                event: EventId(0),
                new_utility: 1.5,
            },
            AtomicOp::BudgetChange {
                user: UserId(0),
                new_budget: -3.0,
            },
            AtomicOp::FeeChange {
                event: EventId(0),
                new_fee: f64::INFINITY,
            },
            AtomicOp::TimeChange {
                event: EventId(0),
                new_time: TimeInterval { start: 90, end: 30 },
            },
            AtomicOp::LocationChange {
                event: EventId(0),
                new_location: Point::new(f64::NAN, 0.0),
            },
            AtomicOp::NewEvent {
                event: Event::new(Point::new(0.0, 0.0), 0, 1, TimeInterval::new(0, 9)),
                utilities: vec![0.5], // wrong arity for 4 users
            },
        ];
        let (_, tally) = certify_tally(&instance, &plan);
        for op in bad_ops {
            let err = planner
                .try_apply_budgeted(&instance, &plan, &op, SolveBudget::UNLIMITED)
                .unwrap_err();
            assert_eq!(
                err.kind,
                epplan_solve::FailureKind::BadInput,
                "op {op:?} should be BadInput"
            );
            // The partial outcome is the unchanged plan.
            let partial = err.partial.expect("unchanged outcome travels as partial");
            assert_eq!(partial.plan, plan);
            assert_eq!(partial.dif, 0);
            // And the certified step rejects it without touching the
            // state.
            let (mut inst, mut cur, mut t) = (instance.clone(), plan.clone(), tally.clone());
            let step = planner.try_apply_certified(&mut inst, &mut cur, &mut t, &op, SolveBudget::UNLIMITED);
            let Err(RepairError::Failed(e)) = step else { panic!("{op:?}: {step:?}") };
            assert_eq!(e.kind, epplan_solve::FailureKind::BadInput, "{op:?}");
            assert_eq!((&inst, &cur, &t), (&instance, &plan, &tally));
        }
    }

    #[test]
    fn budget_tick_comes_before_op_validation() {
        let (instance, plan) = setup();
        let bad = AtomicOp::EtaDecrease {
            event: EventId(99),
            new_upper: 1,
        };
        let err = IncrementalPlanner
            .try_apply_budgeted(&instance, &plan, &bad, SolveBudget::from_iteration_cap(0))
            .unwrap_err();
        assert_eq!(err.kind, epplan_solve::FailureKind::BudgetExhausted);
        let partial = err.partial.expect("unchanged outcome travels as partial");
        assert_eq!(partial.plan, plan);
    }

    #[test]
    fn batch_stops_at_first_bad_op_keeping_prefix() {
        // A loop over the step that stops at its first rejected op
        // keeps every op applied before it.
        let (instance, plan) = setup();
        let ops = [
            AtomicOp::EtaDecrease { event: EventId(0), new_upper: 1 },
            AtomicOp::BudgetChange { user: UserId(9), new_budget: 1.0 },
            AtomicOp::XiDecrease { event: EventId(1), new_lower: 0 },
        ];
        let (mut inst, mut cur) = (instance.clone(), plan.clone());
        let mut tally = certify_tally(&instance, &plan).1;
        let failure = ops.iter().enumerate().find_map(|(k, op)| {
            IncrementalPlanner
                .try_apply_certified(&mut inst, &mut cur, &mut tally, op, SolveBudget::UNLIMITED)
                .err()
                .map(|e| (k, e))
        });
        let Some((1, RepairError::Failed(e))) = failure else {
            panic!("operation 1 must fail the step: {failure:?}");
        };
        assert_eq!(e.kind, epplan_solve::FailureKind::BadInput);
        // Only the first op was applied.
        let (prefix_inst, prefix_plan, _) = step(&instance, &plan, &ops[0]);
        assert_eq!((&inst, &cur), (&prefix_inst, &prefix_plan));
        assert_eq!(tally, certify_tally(&inst, &cur).1);
        assert!(certify(&inst, &cur).hard_ok());
    }

    #[test]
    fn an_uncertified_repair_rolls_back_state_and_tally() {
        // η cut below an event's attendance behind the tally's back:
        // the op changes no list, but its delta certificate re-checks
        // every event's bounds.
        let (mut instance, plan) = setup();
        let e = instance
            .event_ids()
            .find(|&e| plan.attendance(e) > 0)
            .expect("the greedy plan fills some event");
        let (_, mut tally) = certify_tally(&instance, &plan);
        instance.set_event_bounds(e, 0, plan.attendance(e) - 1);
        let bytes = |inst: &Instance, p: &Plan| {
            (serde_json::to_string(inst).unwrap(), serde_json::to_string(p).unwrap())
        };
        let before = (bytes(&instance, &plan), tally.clone());
        let (mut inst, mut cur) = (instance.clone(), plan.clone());
        let other = EventId((e.0 + 1) % instance.n_events() as u32);
        let op = AtomicOp::XiDecrease { event: other, new_lower: 0 };
        let err = IncrementalPlanner
            .try_apply_certified(&mut inst, &mut cur, &mut tally, &op, SolveBudget::UNLIMITED)
            .unwrap_err();
        let RepairError::Uncertified(cert) = &err else {
            panic!("the repair must be rejected by certification: {err}");
        };
        assert_eq!(cert.violated_constraints(), ["eta-upper-bound"]);
        assert!(err.to_string().starts_with("repair rejected by certification: REJECTED"));
        assert_eq!((bytes(&inst, &cur), tally), before, "state and tally roll back");
    }

    /// Every op kind, well-formed against the [`setup`] instance.
    fn one_of_each_op() -> Vec<AtomicOp> {
        vec![
            AtomicOp::EtaDecrease { event: EventId(0), new_upper: 1 },
            AtomicOp::EtaIncrease { event: EventId(2), new_upper: 4 },
            AtomicOp::XiIncrease { event: EventId(2), new_lower: 2 },
            AtomicOp::XiDecrease { event: EventId(0), new_lower: 0 },
            AtomicOp::TimeChange {
                event: EventId(0),
                new_time: TimeInterval::new(60, 119),
            },
            AtomicOp::LocationChange {
                event: EventId(1),
                new_location: Point::new(5.0, 5.0),
            },
            AtomicOp::NewEvent {
                event: Event::new(Point::new(2.0, 2.0), 1, 3, TimeInterval::new(200, 260)),
                utilities: vec![0.5, 0.6, 0.7, 0.8],
            },
            AtomicOp::UtilityChange {
                user: UserId(0),
                event: EventId(0),
                new_utility: 0.0,
            },
            AtomicOp::BudgetChange { user: UserId(1), new_budget: 2.5 },
            AtomicOp::FeeChange { event: EventId(0), new_fee: 5.0 },
        ]
    }

    #[test]
    fn apply_to_instance_agrees_with_full_apply() {
        // The pure instance transition and the repair entry point must
        // describe the same post-op world, for every op kind.
        let (instance, plan) = setup();
        for op in one_of_each_op() {
            let mut inst_only = instance.clone();
            let journal = IncrementalPlanner::apply_to_instance_in_place(&mut inst_only, &op);
            let (full, _, _) = step(&instance, &plan, &op);
            assert_eq!(inst_only, full, "divergence for {op:?}");
            journal.rollback(&mut inst_only);
            assert_eq!(inst_only, instance, "transition of {op:?} not undone");
        }
    }

    #[test]
    fn sequence_validation_rejects_duplicates_reorderings_and_zero() {
        let op = AtomicOp::XiDecrease { event: EventId(0), new_lower: 0 };
        let seq = |ids: &[u64]| -> Vec<SequencedOp> {
            ids.iter().map(|&id| SequencedOp::new(id, op.clone())).collect()
        };
        assert!(validate_sequence(&seq(&[1, 2, 3])).is_ok());
        assert!(validate_sequence(&seq(&[1, 5, 90])).is_ok(), "gaps are fine");
        assert!(validate_sequence(&[]).is_ok());
        for (ids, needle) in [
            (&[1u64, 2, 2][..], "duplicates"),
            (&[3, 1][..], "precedes"),
            (&[0, 1][..], "reserved"),
        ] {
            let err = validate_sequence(&seq(ids)).unwrap_err();
            assert_eq!(err.kind, epplan_solve::FailureKind::BadInput);
            assert!(err.message.contains(needle), "{ids:?}: {}", err.message);
        }
    }

    #[test]
    fn sequenced_op_round_trips_json() {
        let sop = SequencedOp::new(
            17,
            AtomicOp::EtaDecrease { event: EventId(3), new_upper: 1 },
        );
        let json = serde_json::to_string(&sop).unwrap();
        assert!(json.contains("\"id\""), "{json}");
        assert!(json.contains("eta_decrease"), "{json}");
        let back: SequencedOp = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sop);
    }

    #[test]
    fn budgeted_apply_enforces_and_reports_retryable_exhaustion() {
        let (instance, plan) = setup();
        let op = AtomicOp::EtaDecrease { event: EventId(0), new_upper: 1 };
        // A pre-expired allowance trips before any repair work, with
        // the unchanged state as the partial.
        let err = IncrementalPlanner
            .try_apply_budgeted(
                &instance,
                &plan,
                &op,
                epplan_solve::SolveBudget::from_time_limit(std::time::Duration::ZERO),
            )
            .unwrap_err();
        assert_eq!(err.kind, epplan_solve::FailureKind::BudgetExhausted);
        assert!(err.is_retryable());
        let partial = err.partial.expect("unchanged outcome travels as partial");
        assert_eq!(partial.plan, plan);
        // An ample budget matches the certified step exactly.
        let out = IncrementalPlanner
            .try_apply_budgeted(&instance, &plan, &op, epplan_solve::SolveBudget::UNLIMITED)
            .expect("unlimited budget cannot trip");
        let (inst, cur, cert) = step(&instance, &plan, &op);
        assert_eq!(out.plan, cur);
        assert_eq!(out.instance, inst);
        assert_eq!(Some(out.dif), cert.dif);
    }

    #[test]
    fn inputs_are_not_mutated() {
        let (instance, plan) = setup();
        let inst_before = instance.clone();
        let plan_before = plan.clone();
        let _ = IncrementalPlanner.try_apply_budgeted(
            &instance,
            &plan,
            &AtomicOp::EtaDecrease {
                event: EventId(0),
                new_upper: 0,
            },
            SolveBudget::UNLIMITED,
        );
        assert_eq!(instance, inst_before);
        assert_eq!(plan, plan_before);
    }
}
