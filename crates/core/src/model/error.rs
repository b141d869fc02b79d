//! Typed construction-time rejection of malformed instances.
//!
//! Shape mismatches are typed errors everywhere: [`Instance::new`] and
//! `UtilityMatrix::from_rows` return [`InstanceError::ShapeMismatch`]
//! rather than panicking (the PR 1 no-panic contract). Data that
//! crosses a trust boundary — deserialized instance files, generated
//! workloads — additionally goes through [`Instance::try_new`] /
//! [`InstanceBuilder::try_build`], which reject every way an instance
//! can be silently broken: NaN or out-of-range utilities, non-positive
//! budgets, inverted time intervals, `η < ξ`, negative fees,
//! non-finite coordinates, and corrupt sparse utility storage.
//!
//! [`Instance::new`]: crate::model::Instance::new
//! [`Instance::try_new`]: crate::model::Instance::try_new
//! [`InstanceBuilder::build`]: crate::model::InstanceBuilder::build
//! [`InstanceBuilder::try_build`]: crate::model::InstanceBuilder::try_build

use crate::model::{EventId, UserId};

/// A reason an instance failed strict validation.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// Utility matrix shape disagrees with the user/event counts.
    ShapeMismatch {
        /// Rows × columns of the supplied matrix.
        matrix: (usize, usize),
        /// Users × events of the instance.
        expected: (usize, usize),
    },
    /// `μ(user, event)` is NaN or outside `[0, 1]`.
    InvalidUtility {
        /// Offending user.
        user: UserId,
        /// Offending event.
        event: EventId,
        /// The rejected value.
        value: f64,
    },
    /// A utility entry references a user or event that does not exist.
    UnknownId {
        /// Human-readable description of the dangling reference.
        what: String,
    },
    /// A user's travel budget is NaN, infinite, negative, or — under
    /// strict validation — zero (a zero budget makes every event
    /// unreachable; the paper assumes `B_i > 0`).
    InvalidBudget {
        /// Offending user.
        user: UserId,
        /// The rejected value.
        value: f64,
    },
    /// A location coordinate is NaN or infinite.
    NonFiniteLocation {
        /// `"user u3"` or `"event e7"`.
        owner: String,
    },
    /// An event's time window is empty or inverted (`start ≥ end`).
    InvertedInterval {
        /// Offending event.
        event: EventId,
        /// The rejected window as `(start, end)`.
        window: (u32, u32),
    },
    /// An event's participation bounds are inverted (`η < ξ`).
    InvertedBounds {
        /// Offending event.
        event: EventId,
        /// Lower bound `ξ`.
        lower: u32,
        /// Upper bound `η`.
        upper: u32,
    },
    /// An event's admission fee is NaN, infinite, or negative.
    InvalidFee {
        /// Offending event.
        event: EventId,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::ShapeMismatch { matrix, expected } => write!(
                f,
                "utility matrix is {}×{} but the instance has {} users × {} events",
                matrix.0, matrix.1, expected.0, expected.1
            ),
            InstanceError::InvalidUtility { user, event, value } => {
                write!(f, "utility μ({user}, {event}) = {value} is outside [0, 1]")
            }
            InstanceError::UnknownId { what } => write!(f, "{what}"),
            InstanceError::InvalidBudget { user, value } => write!(
                f,
                "budget {value} of {user} must be finite and strictly positive"
            ),
            InstanceError::NonFiniteLocation { owner } => {
                write!(f, "{owner} has a non-finite location coordinate")
            }
            InstanceError::InvertedInterval { event, window } => write!(
                f,
                "{event} has an empty or inverted time window [{}, {})",
                window.0, window.1
            ),
            InstanceError::InvertedBounds {
                event,
                lower,
                upper,
            } => write!(
                f,
                "{event} has lower bound ξ = {lower} above upper bound η = {upper}"
            ),
            InstanceError::InvalidFee { event, value } => {
                write!(f, "{event} has invalid admission fee {value}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = InstanceError::InvalidUtility {
            user: UserId(2),
            event: EventId(1),
            value: f64::NAN,
        };
        let s = e.to_string();
        assert!(s.contains("u2") && s.contains("e1") && s.contains("[0, 1]"));

        let e = InstanceError::InvertedBounds {
            event: EventId(0),
            lower: 5,
            upper: 2,
        };
        assert!(e.to_string().contains("ξ = 5"));
    }
}
