//! Independent plan certification.
//!
//! A degraded solve (fallback tier, budget-exhausted partial, repaired
//! incremental plan) is exactly the artifact most likely to silently
//! violate the paper's feasibility constraints (§II): the code paths
//! that produced it are the least-travelled ones. This module is the
//! "verify-then-trust" half of the robustness story, and the one GEPC
//! constraint checker: it shares **no code** with the solvers and
//! recomputes everything (attendance, travel costs, the global utility
//! `U_P`, the IEP `dif(P, P′)`) from the raw assignment lists.
//!
//! `epplan-solve` sits below `epplan-core` in the crate graph, so the
//! checker cannot see `Instance`/`Plan` directly. Instead it consumes
//! the primitive [`PlanView`] trait; `epplan-core` implements it for
//! `(&Instance, &Plan)` (see `epplan_core::certify`). That split is
//! deliberate: the checker's logic depends only on numbers the trait
//! hands it, never on model-layer invariants that a corrupt plan may
//! have already broken.
//!
//! The checker validates all four GEPC constraints plus two structural
//! ones a deserialized plan can violate:
//!
//! | constraint name        | GEPC rule                                   |
//! |------------------------|---------------------------------------------|
//! | `time-conflict`        | no user attends two overlapping events      |
//! | `travel-budget`        | `D_i ≤ B_i` (+1e-9 tolerance)               |
//! | `eta-upper-bound`      | attendance ≤ η_j                            |
//! | `xi-lower-bound`       | attendance ≥ ξ_j (soft — reported, not hard)|
//! | `zero-utility`         | no assignment with `μ(u, e) ≤ 0`            |
//! | `duplicate-assignment` | a user is assigned to an event once at most |
//! | `invalid-assignment`   | assigned event/user ids are in range        |

use std::fmt;

/// Stable constraint names the checker reports. Tests assert on these
/// exact strings; treat them like the span-name registry.
pub mod constraint {
    /// A user attends two events with overlapping holding windows.
    pub const TIME_CONFLICT: &str = "time-conflict";
    /// A user's recomputed travel cost exceeds their budget `B_i`.
    pub const TRAVEL_BUDGET: &str = "travel-budget";
    /// An event's recomputed attendance exceeds its upper bound `η`.
    pub const ETA_UPPER_BOUND: &str = "eta-upper-bound";
    /// An event's recomputed attendance falls short of its lower bound
    /// `ξ` (soft: the paper permits under-filled events at a utility
    /// penalty, so this never fails hard certification).
    pub const XI_LOWER_BOUND: &str = "xi-lower-bound";
    /// An assignment with non-positive utility `μ(u, e) ≤ 0`.
    pub const ZERO_UTILITY: &str = "zero-utility";
    /// The same `(user, event)` pair appears more than once.
    pub const DUPLICATE_ASSIGNMENT: &str = "duplicate-assignment";
    /// An assignment references an out-of-range event id.
    pub const INVALID_ASSIGNMENT: &str = "invalid-assignment";
}

/// Read-only, primitive view of a plan against its instance — the
/// minimal surface the independent checker needs. Implementations must
/// not pre-validate: a corrupt plan (duplicate assignments,
/// out-of-range ids) must round-trip through [`PlanView::assignments`]
/// untouched so the checker can see the corruption.
pub trait PlanView {
    /// Number of users in the instance.
    fn n_users(&self) -> usize;
    /// Number of events in the instance.
    fn n_events(&self) -> usize;
    /// The raw assignment list of `user`: event indices, in plan
    /// order, including any duplicates or out-of-range ids present.
    fn assignments(&self, user: usize) -> Vec<usize>;
    /// `true` when events `a` and `b` have overlapping holding
    /// windows (both in range).
    fn conflicts(&self, a: usize, b: usize) -> bool;
    /// Total travel cost `D_i` of `user` attending exactly `events`
    /// (admission fees + optimal route distance).
    fn travel_cost(&self, user: usize, events: &[usize]) -> f64;
    /// Travel budget `B_i` of `user`.
    fn budget(&self, user: usize) -> f64;
    /// `(ξ, η)` participation bounds of `event`.
    fn bounds(&self, event: usize) -> (u32, u32);
    /// Utility `μ(user, event)` (both in range).
    fn utility(&self, user: usize, event: usize) -> f64;
}

/// One constraint violation found by the checker.
#[derive(Debug, Clone, PartialEq)]
pub struct CertViolation {
    /// Which constraint (a [`constraint`] name).
    pub constraint: &'static str,
    /// Human-readable specifics (which user/event, by how much).
    pub detail: String,
}

impl fmt::Display for CertViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.constraint, self.detail)
    }
}

/// The checker's verdict on one plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Certificate {
    /// `true` once the checker actually ran (a default report carries
    /// an unchecked certificate).
    pub checked: bool,
    /// Hard-constraint violations; any entry means the plan must not
    /// be returned as-is.
    pub hard_violations: Vec<CertViolation>,
    /// Soft-constraint findings (`xi-lower-bound` shortfalls).
    pub soft_violations: Vec<CertViolation>,
    /// Global utility `U_P`, recomputed from scratch (0 for invalid
    /// assignments, which are reported separately).
    pub utility: f64,
    /// `dif(P, P′)` against a baseline plan, when one was supplied.
    pub dif: Option<usize>,
    /// Accumulated `dif` since the last **full** solve, for long-lived
    /// incremental state (the `epplan serve` daemon sums each repair's
    /// `dif` here and resets it on every certified re-solve). `None`
    /// outside incremental serving contexts.
    pub drift: Option<u64>,
}

impl Certificate {
    /// Returns this certificate with the accumulated-drift line set
    /// (see [`Certificate::drift`]).
    pub fn with_drift(mut self, drift: u64) -> Self {
        self.drift = Some(drift);
        self
    }
}

impl Certificate {
    /// `true` when every hard constraint holds.
    pub fn hard_ok(&self) -> bool {
        self.checked && self.hard_violations.is_empty()
    }

    /// The distinct hard-constraint names violated, in report order.
    pub fn violated_constraints(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for v in &self.hard_violations {
            if !names.contains(&v.constraint) {
                names.push(v.constraint);
            }
        }
        names
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.checked {
            return f.write_str("unchecked");
        }
        if self.hard_violations.is_empty() {
            write!(f, "certified (U_P = {:.6}", self.utility)?;
        } else {
            write!(
                f,
                "REJECTED [{}] (U_P = {:.6}",
                self.violated_constraints().join(", "),
                self.utility
            )?;
        }
        if let Some(d) = self.dif {
            write!(f, ", dif = {d}")?;
        }
        if let Some(d) = self.drift {
            write!(f, ", drift = {d} since full solve")?;
        }
        if !self.soft_violations.is_empty() {
            write!(f, ", {} soft shortfall(s)", self.soft_violations.len())?;
        }
        f.write_str(")")
    }
}

/// Running totals of the last certified plan, as [`certify_delta`]
/// needs them: each user's utility, each event's attendance, and
/// `U_P`. Built from scratch by [`certify_plan_tally`]; patched only
/// by a delta that certifies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CertTally {
    user_utility: Vec<f64>,
    attendance: Vec<usize>,
    utility: f64,
}

impl CertTally {
    /// `U_P` of the last certified plan.
    pub fn utility(&self) -> f64 {
        self.utility
    }

    /// Attendance of every event, recounted from the assignment lists.
    pub fn attendance(&self) -> &[usize] {
        &self.attendance
    }
}

/// Runs the independent checker over `view`, recomputing attendance,
/// travel costs and `U_P` from the raw assignment lists. Pass the
/// previous plan's assignment lists as `baseline` to also recompute
/// the IEP `dif(P, P′)`.
pub fn certify_plan(view: &dyn PlanView, baseline: Option<&[Vec<usize>]>) -> Certificate {
    certify_plan_tally(view, baseline).0
}

/// [`certify_plan`], also returning the [`CertTally`] a later
/// [`certify_delta`] starts from.
pub fn certify_plan_tally(
    view: &dyn PlanView,
    baseline: Option<&[Vec<usize>]>,
) -> (Certificate, CertTally) {
    let n_users = view.n_users();
    let n_events = view.n_events();
    let mut cert = Certificate {
        checked: true,
        ..Certificate::default()
    };
    // Recomputed from the assignment lists, never read from the plan.
    let mut tally = CertTally {
        user_utility: Vec::with_capacity(n_users),
        attendance: vec![0usize; n_events],
        utility: 0.0,
    };
    let mut new_assignments: Vec<Vec<usize>> = Vec::with_capacity(n_users);

    for u in 0..n_users {
        let (valid, mu) = check_user(view, u, &mut cert.hard_violations, &mut cert.utility);
        for &e in &valid {
            tally.attendance[e] += 1;
        }
        tally.user_utility.push(mu);
        new_assignments.push(valid);
    }

    // GEPC (3)/(4): per-event participation bounds.
    for (e, &att) in tally.attendance.iter().enumerate() {
        check_event(view, e, att, &mut cert);
    }

    if let Some(old) = baseline {
        cert.dif = Some(recompute_dif(old, &new_assignments));
    }
    tally.utility = cert.utility;
    (cert, tally)
}

/// Certifies a plan that differs from the one `tally` was taken of
/// only in the users listed in `changed` — each with their previous
/// assignment list, the `dif` baseline — re-deriving just those users
/// from the raw [`PlanView`] accessors with the same per-user checks as
/// [`certify_plan`], and every event's bounds against the patched
/// attendance. Users outside `changed` are taken to be as `tally`
/// recorded them; listing every user whose list or constraints could
/// have changed is the caller's half of the contract. List `changed`
/// in ascending user order for violations in [`certify_plan`]'s report
/// order.
///
/// `tally` is patched only when the result certifies (`hard_ok`).
pub fn certify_delta(
    view: &dyn PlanView,
    tally: &mut CertTally,
    changed: &[(usize, Vec<usize>)],
) -> Certificate {
    let n_events = view.n_events();
    let mut cert = Certificate {
        checked: true,
        ..Certificate::default()
    };
    // Per-event attendance change; events the delta appended start at 0.
    let mut shift = vec![0i64; n_events];
    let mut patched: Vec<(usize, f64)> = Vec::with_capacity(changed.len());
    let mut utility = tally.utility;
    let mut lost = 0;
    for (u, before) in changed {
        let (valid, mu) = check_user(view, *u, &mut cert.hard_violations, &mut 0.0);
        for &e in before {
            if let Some(s) = shift.get_mut(e) {
                *s -= 1;
            }
        }
        for &e in &valid {
            shift[e] += 1;
        }
        lost += before.iter().filter(|e| !valid.contains(e)).count();
        utility += mu - tally.user_utility.get(*u).copied().unwrap_or(0.0);
        patched.push((*u, mu));
    }
    let attendance: Vec<usize> = (0..n_events)
        .map(|e| {
            let was = tally.attendance.get(e).copied().unwrap_or(0) as i64;
            (was + shift[e]).max(0) as usize
        })
        .collect();
    for (e, &att) in attendance.iter().enumerate() {
        check_event(view, e, att, &mut cert);
    }
    cert.utility = utility;
    cert.dif = Some(lost);
    if cert.hard_ok() {
        for (u, mu) in patched {
            if let Some(slot) = tally.user_utility.get_mut(u) {
                *slot = mu;
            }
        }
        tally.attendance = attendance;
        tally.utility = utility;
    }
    cert
}

/// The per-user checks shared by [`certify_plan`] and
/// [`certify_delta`]: structural checks on `user`'s raw list, pairwise
/// time conflicts, the travel budget and zero utilities. Returns the
/// valid (in-range, duplicate-free) events and the user's utility; each
/// positive `μ` is also added to `total`, assignment by assignment.
fn check_user(
    view: &dyn PlanView,
    u: usize,
    hard: &mut Vec<CertViolation>,
    total: &mut f64,
) -> (Vec<usize>, f64) {
    let n_events = view.n_events();
    let events = view.assignments(u);
    // Structural checks first: everything downstream assumes in-range,
    // duplicate-free lists.
    let mut valid: Vec<usize> = Vec::with_capacity(events.len());
    for &e in &events {
        if e >= n_events {
            hard.push(CertViolation {
                constraint: constraint::INVALID_ASSIGNMENT,
                detail: format!("user {u} assigned to event {e} of {n_events}"),
            });
            continue;
        }
        if valid.contains(&e) {
            hard.push(CertViolation {
                constraint: constraint::DUPLICATE_ASSIGNMENT,
                detail: format!("user {u} assigned to event {e} more than once"),
            });
            continue;
        }
        valid.push(e);
    }

    // GEPC (1): pairwise time conflicts.
    for i in 0..valid.len() {
        for j in (i + 1)..valid.len() {
            if view.conflicts(valid[i], valid[j]) {
                hard.push(CertViolation {
                    constraint: constraint::TIME_CONFLICT,
                    detail: format!(
                        "user {u} attends overlapping events {} and {}",
                        valid[i], valid[j]
                    ),
                });
            }
        }
    }

    // GEPC (2): travel budget D_i ≤ B_i (same 1e-9 tolerance as the
    // model layer).
    if !valid.is_empty() {
        let cost = view.travel_cost(u, &valid);
        let budget = view.budget(u);
        if !cost.is_finite() || cost > budget + 1e-9 {
            hard.push(CertViolation {
                constraint: constraint::TRAVEL_BUDGET,
                detail: format!("user {u} travel cost {cost} exceeds budget {budget}"),
            });
        }
    }

    // Zero-utility assignments are forbidden; positive ones sum into
    // the recomputed U_P.
    let mut utility = 0.0;
    for &e in &valid {
        let mu = view.utility(u, e);
        // NaN utilities are as forbidden as zero ones.
        if mu <= 0.0 || mu.is_nan() {
            hard.push(CertViolation {
                constraint: constraint::ZERO_UTILITY,
                detail: format!("user {u} assigned to event {e} with utility {mu}"),
            });
        } else {
            *total += mu;
            utility += mu;
        }
    }
    (valid, utility)
}

/// GEPC (3)/(4) for one event: attendance over `η` is a hard
/// violation, under `ξ` a soft one.
fn check_event(view: &dyn PlanView, e: usize, att: usize, cert: &mut Certificate) {
    let (lower, upper) = view.bounds(e);
    if att > upper as usize {
        cert.hard_violations.push(CertViolation {
            constraint: constraint::ETA_UPPER_BOUND,
            detail: format!("event {e} has {att} attendees over upper bound {upper}"),
        });
    }
    if att < lower as usize {
        cert.soft_violations.push(CertViolation {
            constraint: constraint::XI_LOWER_BOUND,
            detail: format!("event {e} has {att} attendees under lower bound {lower}"),
        });
    }
}

/// Recomputes the IEP negative impact `dif(P, P′)` from raw assignment
/// lists: the number of `(user, event)` pairs present in `old` but
/// missing from `new` (§IV). Users beyond `new`'s length count every
/// old assignment as lost.
pub fn recompute_dif(old: &[Vec<usize>], new: &[Vec<usize>]) -> usize {
    let mut lost = 0;
    for (u, events) in old.iter().enumerate() {
        for &e in events {
            let kept = new.get(u).is_some_and(|n| n.contains(&e));
            if !kept {
                lost += 1;
            }
        }
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic view: 3 users, 3 events; event 0 and 1
    /// conflict; every utility is `0.1 + 0.1 * (u + e)` except where
    /// zeroed; bounds and budgets as configured.
    struct TestView {
        assignments: Vec<Vec<usize>>,
        budgets: Vec<f64>,
        bounds: Vec<(u32, u32)>,
        zero_utility: Vec<(usize, usize)>,
        cost_per_event: f64,
    }

    impl TestView {
        fn feasible() -> Self {
            TestView {
                assignments: vec![vec![0, 2], vec![1], vec![2]],
                budgets: vec![10.0, 10.0, 10.0],
                bounds: vec![(0, 2), (0, 2), (0, 2)],
                zero_utility: vec![],
                cost_per_event: 1.0,
            }
        }
    }

    impl PlanView for TestView {
        fn n_users(&self) -> usize {
            self.assignments.len()
        }
        fn n_events(&self) -> usize {
            self.bounds.len()
        }
        fn assignments(&self, user: usize) -> Vec<usize> {
            self.assignments[user].clone()
        }
        fn conflicts(&self, a: usize, b: usize) -> bool {
            (a == 0 && b == 1) || (a == 1 && b == 0)
        }
        fn travel_cost(&self, _user: usize, events: &[usize]) -> f64 {
            self.cost_per_event * events.len() as f64
        }
        fn budget(&self, user: usize) -> f64 {
            self.budgets[user]
        }
        fn bounds(&self, event: usize) -> (u32, u32) {
            self.bounds[event]
        }
        fn utility(&self, user: usize, event: usize) -> f64 {
            if self.zero_utility.contains(&(user, event)) {
                0.0
            } else {
                0.1 + 0.1 * (user + event) as f64
            }
        }
    }

    #[test]
    fn feasible_plan_certifies_with_recomputed_utility() {
        let v = TestView::feasible();
        let cert = certify_plan(&v, None);
        assert!(cert.hard_ok(), "{cert}");
        assert!(cert.soft_violations.is_empty());
        // u0@e0 (0.1) + u0@e2 (0.3) + u1@e1 (0.3) + u2@e2 (0.5)
        assert!((cert.utility - 1.2).abs() < 1e-12, "{}", cert.utility);
        assert_eq!(cert.dif, None);
    }

    #[test]
    fn default_certificate_is_unchecked() {
        let cert = Certificate::default();
        assert!(!cert.hard_ok(), "unchecked must not count as certified");
        assert_eq!(cert.to_string(), "unchecked");
    }

    #[test]
    fn each_corruption_is_named_precisely() {
        // (mutator, expected constraint name)
        type Corruption = (Box<dyn Fn(&mut TestView)>, &'static str);
        let cases: Vec<Corruption> = vec![
            (
                Box::new(|v: &mut TestView| v.assignments[1] = vec![1, 1]),
                constraint::DUPLICATE_ASSIGNMENT,
            ),
            (
                Box::new(|v: &mut TestView| v.assignments[1] = vec![7]),
                constraint::INVALID_ASSIGNMENT,
            ),
            (
                Box::new(|v: &mut TestView| v.assignments[1] = vec![0, 1]),
                constraint::TIME_CONFLICT,
            ),
            (
                Box::new(|v: &mut TestView| v.budgets[0] = 1.5),
                constraint::TRAVEL_BUDGET,
            ),
            (
                Box::new(|v: &mut TestView| v.bounds[2] = (0, 1)),
                constraint::ETA_UPPER_BOUND,
            ),
            (
                Box::new(|v: &mut TestView| v.zero_utility.push((2, 2))),
                constraint::ZERO_UTILITY,
            ),
        ];
        for (mutate, expected) in cases {
            let mut v = TestView::feasible();
            mutate(&mut v);
            let cert = certify_plan(&v, None);
            assert!(!cert.hard_ok(), "expected {expected}");
            assert!(
                cert.violated_constraints().contains(&expected),
                "expected {expected}, got {:?}",
                cert.violated_constraints()
            );
            assert!(cert.to_string().contains(expected), "{cert}");
        }
    }

    #[test]
    fn xi_shortfall_is_soft() {
        let mut v = TestView::feasible();
        v.bounds[1] = (2, 2); // e1 has 1 attendee < ξ = 2
        let cert = certify_plan(&v, None);
        assert!(cert.hard_ok(), "ξ shortfalls must not fail hard: {cert}");
        assert_eq!(cert.soft_violations.len(), 1);
        assert_eq!(
            cert.soft_violations[0].constraint,
            constraint::XI_LOWER_BOUND
        );
    }

    #[test]
    fn nan_travel_cost_is_a_budget_violation() {
        let mut v = TestView::feasible();
        v.cost_per_event = f64::NAN;
        let cert = certify_plan(&v, None);
        assert!(cert
            .violated_constraints()
            .contains(&constraint::TRAVEL_BUDGET));
    }

    #[test]
    fn dif_counts_lost_assignments_only() {
        let old = vec![vec![0, 2], vec![1], vec![2]];
        let new = vec![vec![0], vec![1, 0], vec![]];
        // Lost: (0,2) and (2,2). Gained (1,0) does not count.
        assert_eq!(recompute_dif(&old, &new), 2);
        // A shrunken user list loses everything.
        assert_eq!(recompute_dif(&old, &new[..1]), 3);
        assert_eq!(recompute_dif(&old, &old), 0);
        let v = TestView::feasible();
        let cert = certify_plan(&v, Some(&old));
        assert_eq!(cert.dif, Some(0));
    }

    #[test]
    fn drift_renders_without_json_parsing() {
        // The daemon-facing drift line (ISSUE 6 satellite): visible in
        // `Display`, absent unless set.
        let cert = certify_plan(&TestView::feasible(), None);
        assert!(!cert.to_string().contains("drift"), "{cert}");
        let cert = cert.with_drift(42);
        assert_eq!(cert.drift, Some(42));
        assert!(
            cert.to_string().contains("drift = 42 since full solve"),
            "{cert}"
        );
        // Also present on rejected certificates — degraded serving
        // state must still report how far it has drifted.
        let mut bad = TestView::feasible();
        bad.assignments[1] = vec![1, 1];
        let cert = certify_plan(&bad, None).with_drift(7);
        assert!(cert.to_string().contains("REJECTED"), "{cert}");
        assert!(cert.to_string().contains("drift = 7"), "{cert}");
    }
}
