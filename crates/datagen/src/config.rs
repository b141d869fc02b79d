use serde::{Deserialize, Serialize};

/// How users and venues are placed on the plane.
///
/// Real Meetup cities are not uniform: population and venues concentrate
/// in neighborhoods. The clustered model places locations around a few
/// Gaussian centers, which (a) makes reachability heterogeneous — users
/// in a dense neighborhood have large `Uc_i`, suburban users small —
/// and (b) stresses the budget logic much harder than the uniform model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpatialModel {
    /// Locations uniform over the city square (the default; matches
    /// what \[4\]-style generators use).
    Uniform,
    /// Locations drawn around `clusters` Gaussian centers with the
    /// given standard deviation (as a fraction of the extent), clamped
    /// to the city square. Centers themselves are uniform.
    Clustered {
        /// Number of neighborhood centers (≥ 1).
        clusters: usize,
        /// Standard deviation around a center, as a fraction of the
        /// extent (e.g. 0.08 = tight neighborhoods).
        spread: f64,
    },
}

/// All knobs of the synthetic EBSN generator.
///
/// Defaults reproduce the paper's aggregate statistics: mean `ξ = 10`,
/// mean `η = 50`, conflict ratio `0.25` (Table IV). Deterministic for
/// a fixed `seed`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of users `|U|`.
    pub n_users: usize,
    /// Number of events `|E|`.
    pub n_events: usize,
    /// RNG seed; equal configs generate identical instances.
    pub seed: u64,
    /// Side length of the square "city" users and venues live in.
    pub extent: f64,
    /// Interest-tag vocabulary size.
    pub n_tags: usize,
    /// Tags drawn per user, inclusive range.
    pub tags_per_user: (usize, usize),
    /// Tags drawn per event group, inclusive range.
    pub tags_per_group: (usize, usize),
    /// Number of event groups (events inherit their group's tags).
    /// `0` means `max(4, n_events / 5)`.
    pub n_groups: usize,
    /// Travel budget range as multiples of the city extent. The lower
    /// end must let a user reach *some* event round trip.
    pub budget_frac: (f64, f64),
    /// Event duration range in minutes, inclusive.
    pub duration_range: (u32, u32),
    /// Fraction of events that time-conflict with at least one other
    /// event (Table IV's "conflict ratio").
    pub conflict_ratio: f64,
    /// Participation lower bounds are drawn uniformly from
    /// `0..=2·mean_lower` (mean `ξ` = `mean_lower`), clamped to `η`.
    pub mean_lower: u32,
    /// Participation upper bounds are drawn uniformly from
    /// `mean_upper·0.6 ..= mean_upper·1.4` (mean `η` = `mean_upper`).
    pub mean_upper: u32,
    /// Placement of users and venues on the plane.
    pub spatial: SpatialModel,
    /// Emit the utility matrix in CSR form, computing μ only for
    /// events inside each user's `B/2` travel window (the paper's
    /// `Uc_i` pruning). Solver-equivalent to the dense layout — the
    /// derived candidate lists are identical — but O(candidates) in
    /// memory, which the `|U| ≥ 10⁵` bench grids require.
    #[serde(default)]
    pub candidate_pruned: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            n_users: 500,
            n_events: 50,
            seed: 42,
            extent: 100.0,
            n_tags: 60,
            tags_per_user: (2, 6),
            tags_per_group: (2, 5),
            n_groups: 0,
            budget_frac: (0.5, 2.5),
            duration_range: (60, 180),
            conflict_ratio: 0.25,
            mean_lower: 10,
            mean_upper: 50,
            spatial: SpatialModel::Uniform,
            candidate_pruned: false,
        }
    }
}

impl GeneratorConfig {
    /// Effective number of groups (resolves the `0` sentinel).
    pub fn effective_groups(&self) -> usize {
        if self.n_groups > 0 {
            self.n_groups
        } else {
            (self.n_events / 5).max(4)
        }
    }

    /// Returns a copy resized for a "cut out" scalability sweep (Table
    /// V): same distributional parameters, different `|U|`/`|E|`.
    pub fn cutout(&self, n_users: usize, n_events: usize) -> Self {
        GeneratorConfig {
            n_users,
            n_events,
            ..self.clone()
        }
    }

    /// Returns a copy with a different seed (for repetition averaging).
    pub fn with_seed(&self, seed: u64) -> Self {
        GeneratorConfig {
            seed,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_aggregates() {
        let c = GeneratorConfig::default();
        assert_eq!(c.mean_lower, 10);
        assert_eq!(c.mean_upper, 50);
        assert!((c.conflict_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn effective_groups_sentinel() {
        let mut c = GeneratorConfig {
            n_events: 100,
            n_groups: 0,
            ..Default::default()
        };
        assert_eq!(c.effective_groups(), 20);
        c.n_groups = 7;
        assert_eq!(c.effective_groups(), 7);
        c.n_events = 5;
        c.n_groups = 0;
        assert_eq!(c.effective_groups(), 4);
    }

    #[test]
    fn cutout_preserves_distribution_params() {
        let base = GeneratorConfig::default();
        let cut = base.cutout(1000, 20);
        assert_eq!(cut.n_users, 1000);
        assert_eq!(cut.n_events, 20);
        assert_eq!(cut.seed, base.seed);
        assert_eq!(cut.mean_upper, base.mean_upper);
    }
}
