//! Bounded work per solve call: wall-clock deadlines and iteration
//! caps, plus the in-loop guard that enforces them cheaply.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::{FailureKind, SolveError};

/// How much work one solve call may spend. The default is unlimited;
/// serving layers tighten it per request.
///
/// A budget combines an optional wall-clock allowance with an optional
/// iteration cap; whichever trips first stops the solver. "Iteration"
/// is the solver's natural unit — a simplex pivot, a
/// multiplicative-weights round, a flow augmentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveBudget {
    /// Wall-clock allowance, measured from [`BudgetGuard::new`].
    pub time_limit: Option<Duration>,
    /// Iteration cap across the guarded loop.
    pub max_iterations: Option<u64>,
}

impl SolveBudget {
    /// No limits (the default).
    pub const UNLIMITED: SolveBudget = SolveBudget {
        time_limit: None,
        max_iterations: None,
    };

    /// Budget with only a wall-clock allowance.
    pub fn from_time_limit(limit: Duration) -> Self {
        SolveBudget {
            time_limit: Some(limit),
            max_iterations: None,
        }
    }

    /// Budget with only an iteration cap.
    pub fn from_iteration_cap(cap: u64) -> Self {
        SolveBudget {
            time_limit: None,
            max_iterations: Some(cap),
        }
    }

    /// Returns this budget with the wall-clock allowance set.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Returns this budget with the iteration cap set.
    pub fn with_iteration_cap(mut self, cap: u64) -> Self {
        self.max_iterations = Some(cap);
        self
    }

    /// `true` when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.time_limit.is_none() && self.max_iterations.is_none()
    }

    /// The tighter of two budgets, limit by limit.
    pub fn min(self, other: SolveBudget) -> SolveBudget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        SolveBudget {
            time_limit: tighter(self.time_limit, other.time_limit),
            max_iterations: tighter(self.max_iterations, other.max_iterations),
        }
    }
}

/// How often the guard consults the wall clock; iteration caps are
/// checked on every tick. Power of two so the modulo folds to a mask.
const CLOCK_CHECK_PERIOD: u64 = 64;

/// In-loop enforcement of a [`SolveBudget`]. Create one per guarded
/// loop (or per pipeline) and call [`BudgetGuard::tick`] once per
/// iteration; the first tick past a limit returns an error carrying
/// the iteration count and elapsed time.
#[derive(Debug, Clone)]
pub struct BudgetGuard {
    budget: SolveBudget,
    started: Instant,
    iterations: u64,
}

impl BudgetGuard {
    pub fn new(budget: SolveBudget) -> Self {
        BudgetGuard {
            budget,
            started: Instant::now(),
            iterations: 0,
        }
    }

    /// Counts one iteration of `stage` and checks the limits. The
    /// wall clock is consulted every `CLOCK_CHECK_PERIOD` ticks (and
    /// on the first), so the guard adds no measurable per-iteration
    /// cost to hot loops.
    #[inline]
    pub fn tick(&mut self, stage: &'static str) -> Result<(), SolveError<()>> {
        // Deterministic fault injection: one relaxed atomic load when
        // no fault plan is armed (DESIGN.md § Fault model).
        if let Some(action) = epplan_fault::point("solve.budget.tick") {
            return Err(SolveError::from_fault(stage, "solve.budget.tick", action));
        }
        self.iterations += 1;
        if let Some(cap) = self.budget.max_iterations {
            if self.iterations > cap {
                return Err(self.exhausted(stage, format!("iteration cap {cap} reached")));
            }
        }
        if let Some(limit) = self.budget.time_limit {
            if self.iterations % CLOCK_CHECK_PERIOD == 1 || CLOCK_CHECK_PERIOD == 1 {
                // A zero allowance is pre-expired by definition — no
                // clock reading needed. This keeps zero-budget tests
                // deterministic on coarse monotonic clocks.
                let elapsed = self.started.elapsed();
                if elapsed > limit || limit.is_zero() {
                    return Err(self.exhausted(
                        stage,
                        format!("deadline {limit:?} exceeded after {elapsed:?}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Point check against the wall-clock limit only, for use between
    /// pipeline stages (always consults the clock).
    pub fn check_deadline(&self, stage: &'static str) -> Result<(), SolveError<()>> {
        if let Some(limit) = self.budget.time_limit {
            let elapsed = self.started.elapsed();
            if elapsed > limit || limit.is_zero() {
                return Err(self.exhausted(
                    stage,
                    format!("deadline {limit:?} exceeded after {elapsed:?}"),
                ));
            }
        }
        Ok(())
    }

    /// A shareable snapshot of this guard's wall-clock deadline for
    /// use *inside* parallel regions: workers [`DeadlineFlag::poll`]
    /// it between chunks, and the owning stage turns a tripped flag
    /// into the usual `BudgetExhausted` error via
    /// [`BudgetGuard::check_deadline`] after the join. Iteration caps
    /// stay with the (single-threaded) guard; only the deadline is
    /// shared.
    pub fn deadline_flag(&self) -> DeadlineFlag {
        let deadline = match self.budget.time_limit {
            // A zero allowance is pre-expired; `checked_add` also
            // treats absurdly-far deadlines as unlimited rather than
            // panicking.
            Some(limit) if limit.is_zero() => DeadlineDeadline::Expired,
            Some(limit) => self
                .started
                .checked_add(limit)
                .map_or(DeadlineDeadline::None, DeadlineDeadline::At),
            None => DeadlineDeadline::None,
        };
        DeadlineFlag {
            deadline,
            tripped: AtomicBool::new(false),
        }
    }

    fn exhausted(&self, stage: &'static str, message: String) -> SolveError<()> {
        // Budget-consumption metrics: how often budgets trip and how
        // much work was spent when they did (no-ops unless enabled).
        epplan_obs::counter_add("budget.exhausted", 1);
        epplan_obs::gauge_set("budget.spent_iters", self.iterations as f64);
        epplan_obs::gauge_set(
            "budget.spent_ms",
            self.started.elapsed().as_secs_f64() * 1e3,
        );
        SolveError::new(FailureKind::BudgetExhausted, stage, message)
    }

    /// The portion of the budget still unspent: the wall-clock
    /// allowance minus elapsed time and the iteration cap minus the
    /// ticks so far, both saturating at zero. Hand this to a downstream
    /// pipeline stage so a whole chain shares one allowance.
    pub fn remaining_budget(&self) -> SolveBudget {
        SolveBudget {
            time_limit: self
                .budget
                .time_limit
                .map(|l| l.saturating_sub(self.started.elapsed())),
            max_iterations: self
                .budget
                .max_iterations
                .map(|c| c.saturating_sub(self.iterations)),
        }
    }

    /// Iterations ticked so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Wall-clock time since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &SolveBudget {
        &self.budget
    }
}

#[derive(Debug)]
enum DeadlineDeadline {
    /// No wall-clock limit: polls never trip.
    None,
    /// Trip once the monotonic clock passes this instant.
    At(Instant),
    /// Pre-expired (zero allowance): every poll trips.
    Expired,
    /// This many more polls pass; the one after trips.
    AfterPolls(AtomicU64),
}

/// The error a tripped [`DeadlineFlag`] poll returns: the deadline
/// passed and the parallel region should drain. Deliberately carries
/// no payload — the owning stage already knows which budget it was
/// enforcing and converts the trip into a typed `BudgetExhausted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("solve deadline exceeded")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// A wall-clock deadline shareable across worker threads (`Sync`, no
/// locks). Workers call [`DeadlineFlag::poll`] between work chunks;
/// once any worker observes the deadline passed, the flag latches and
/// every subsequent poll on every thread fails fast without touching
/// the clock, so a whole parallel region drains promptly.
///
/// The flag itself carries no error machinery — a tripped flag means
/// "stop producing work"; the owning stage converts that into a typed
/// `BudgetExhausted` via [`BudgetGuard::check_deadline`].
#[derive(Debug)]
pub struct DeadlineFlag {
    deadline: DeadlineDeadline,
    tripped: AtomicBool,
}

impl DeadlineFlag {
    /// A flag that never trips, for unlimited budgets.
    pub const fn unlimited() -> Self {
        DeadlineFlag {
            deadline: DeadlineDeadline::None,
            tripped: AtomicBool::new(false),
        }
    }

    /// A flag whose first `n` polls pass and whose next poll trips: a
    /// deadline independent of the clock, for tests that stop a
    /// budgeted loop at a known point.
    pub fn after_polls(n: u64) -> Self {
        DeadlineFlag {
            deadline: DeadlineDeadline::AfterPolls(AtomicU64::new(n)),
            tripped: AtomicBool::new(false),
        }
    }

    /// Checks the deadline (reading the clock only while untripped):
    /// `Ok(())` while inside the allowance, `Err(DeadlineExceeded)`
    /// once expired.
    #[inline]
    pub fn poll(&self) -> Result<(), DeadlineExceeded> {
        if self.tripped.load(Ordering::Relaxed) {
            return Err(DeadlineExceeded);
        }
        let expired = match self.deadline {
            DeadlineDeadline::None => false,
            DeadlineDeadline::At(t) => Instant::now() > t,
            DeadlineDeadline::Expired => true,
            DeadlineDeadline::AfterPolls(ref left) => left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_err(),
        };
        if expired {
            self.tripped.store(true, Ordering::Relaxed);
            return Err(DeadlineExceeded);
        }
        Ok(())
    }

    /// `true` once any poll (on any thread) observed expiry.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut g = BudgetGuard::new(SolveBudget::UNLIMITED);
        for _ in 0..100_000 {
            assert!(g.tick("test").is_ok());
        }
        assert_eq!(g.iterations(), 100_000);
    }

    #[test]
    fn iteration_cap_trips_exactly() {
        let mut g = BudgetGuard::new(SolveBudget::from_iteration_cap(10));
        for _ in 0..10 {
            assert!(g.tick("test").is_ok());
        }
        let err = g.tick("test").unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
        assert_eq!(err.stage, "test");
    }

    #[test]
    fn zero_time_budget_trips_on_first_tick() {
        // A zero allowance is pre-expired by definition: the very
        // first tick must trip without any sleeping, regardless of
        // clock granularity.
        let mut g = BudgetGuard::new(SolveBudget::from_time_limit(Duration::ZERO));
        let err = g.tick("test").unwrap_err();
        assert_eq!(err.kind, FailureKind::BudgetExhausted);
    }

    #[test]
    fn deadline_check_between_stages() {
        let g = BudgetGuard::new(SolveBudget::from_time_limit(Duration::ZERO));
        assert!(g.check_deadline("stage").is_err());
        let g = BudgetGuard::new(SolveBudget::UNLIMITED);
        assert!(g.check_deadline("stage").is_ok());
    }

    #[test]
    fn deadline_flag_latches_and_shares() {
        // Zero allowance: pre-expired, first poll trips.
        let g = BudgetGuard::new(SolveBudget::from_time_limit(Duration::ZERO));
        let flag = g.deadline_flag();
        assert!(!flag.is_tripped());
        assert!(flag.poll().is_err());
        assert!(flag.is_tripped());
        // Once tripped, it stays tripped (latching), including when
        // observed from other threads. Cross-thread observation goes
        // through epplan-par — the single owner of thread creation —
        // exactly as production parallel regions poll the flag.
        let polls = epplan_par::par_range_map(4, 1, |_chunk| {
            let tripped_here = flag.poll().is_err();
            tripped_here && flag.is_tripped()
        });
        assert_eq!(polls.len(), 4);
        assert!(polls.iter().all(|&tripped| tripped));

        // Unlimited: never trips.
        let g = BudgetGuard::new(SolveBudget::UNLIMITED);
        let flag = g.deadline_flag();
        for _ in 0..1_000 {
            assert!(flag.poll().is_ok());
        }
        assert!(!flag.is_tripped());
        assert!(DeadlineFlag::unlimited().poll().is_ok());

        // Generous allowance: polls pass while well inside it.
        let g = BudgetGuard::new(SolveBudget::from_time_limit(Duration::from_secs(3600)));
        assert!(g.deadline_flag().poll().is_ok());
    }

    #[test]
    fn after_polls_trips_on_the_next_poll() {
        let flag = DeadlineFlag::after_polls(3);
        for _ in 0..3 {
            assert_eq!(flag.poll(), Ok(()));
        }
        assert_eq!(flag.poll(), Err(DeadlineExceeded));
        assert!(flag.is_tripped());
        assert_eq!(flag.poll(), Err(DeadlineExceeded));
        assert_eq!(DeadlineFlag::after_polls(0).poll(), Err(DeadlineExceeded));
    }

    #[test]
    fn remaining_budget_subtracts_spent_work() {
        let mut g = BudgetGuard::new(
            SolveBudget::from_iteration_cap(10).with_time_limit(Duration::from_secs(60)),
        );
        for _ in 0..4 {
            g.tick("test").unwrap();
        }
        let rem = g.remaining_budget();
        assert_eq!(rem.max_iterations, Some(6));
        assert!(rem.time_limit.unwrap() <= Duration::from_secs(60));
        // Saturation: an over-spent guard leaves a zero budget, not a
        // panic or a wrap-around.
        let mut g = BudgetGuard::new(SolveBudget::from_iteration_cap(1));
        g.tick("test").unwrap();
        let _ = g.tick("test");
        assert_eq!(g.remaining_budget().max_iterations, Some(0));
        assert!(BudgetGuard::new(SolveBudget::UNLIMITED)
            .remaining_budget()
            .is_unlimited());
    }

    #[test]
    fn min_takes_the_tighter_limits() {
        let a = SolveBudget::from_iteration_cap(100)
            .with_time_limit(Duration::from_secs(5));
        let b = SolveBudget::from_iteration_cap(50);
        let m = a.min(b);
        assert_eq!(m.max_iterations, Some(50));
        assert_eq!(m.time_limit, Some(Duration::from_secs(5)));
        assert!(SolveBudget::UNLIMITED.min(SolveBudget::UNLIMITED).is_unlimited());
    }
}
