/// A Generalized Assignment Problem instance.
///
/// `n_machines` machines (users, in the GEPC reduction) and `n_jobs`
/// jobs (event copies). Assigning job `j` to machine `i` incurs cost
/// `cost(i, j)` and consumes `time(i, j)` of machine `i`'s capacity
/// `capacity(i)`. The objective is to assign **every** job to exactly
/// one machine, minimizing total cost, with every machine's consumed
/// time within its capacity.
///
/// Storage is a per-group candidate-list CSR arena. The ξ-GEPC
/// reduction creates `ξ_j` *identical* copies of every event, so one
/// machine-ascending candidate row per *group* (event) serves all its
/// copies, with `job_group` mapping each job (copy) to its row. Pairs
/// absent from a row are *forbidden* (the user cannot attend the event
/// at all, e.g. zero utility or unaffordable travel, or the job alone
/// exceeds the machine's capacity): they have infinite cost and are
/// excluded from every solver's search space, so every stored pair is
/// allowed. Memory and solver work are O(candidates), not O(machines ×
/// jobs), and the multiplicative-weights oracle scans the rows in
/// place. [`GapInstance::from_csr`] is the reduction's constructor;
/// [`GapInstance::from_matrices`] builds small instances from dense
/// matrices, one candidate row per job. Instances are immutable.
///
/// Malformed construction (wrong capacity count, negative or NaN
/// values, out-of-range indices) does not panic: the offending value is
/// neutralized and the first defect is recorded. Every solver entry
/// point checks [`GapInstance::defect`] and refuses a poisoned instance
/// with a `BadInput` error, so a bad instance fails loudly at solve
/// time instead of aborting the process at build time.
#[derive(Debug, Clone)]
pub struct GapInstance {
    n_machines: usize,
    capacity: Vec<f64>,
    /// Job → candidate row (group) index; copies share a row.
    job_group: Vec<u32>,
    /// Row offsets into the arenas, `n_groups + 1` entries.
    offsets: Vec<u32>,
    /// Candidate machine ids, strictly ascending within a row.
    machines: Vec<u32>,
    /// Parallel to `machines`: assignment costs (finite).
    costs: Vec<f64>,
    /// Parallel to `machines`: processing times (finite, ≥ 0, within
    /// the machine's capacity).
    times: Vec<f64>,
    /// First construction defect observed, if any.
    defect: Option<String>,
}

/// Returns `capacity` with one finite, non-negative entry per machine,
/// and the first defect found (a wrong length, or a negative or
/// non-finite entry, which is replaced by 0).
fn checked_capacity(n_machines: usize, mut capacity: Vec<f64>) -> (Vec<f64>, Option<String>) {
    let mut defect = None;
    if capacity.len() != n_machines {
        defect = Some(format!(
            "expected one capacity per machine ({n_machines}), got {}",
            capacity.len()
        ));
        capacity.resize(n_machines, 0.0);
    }
    for (i, c) in capacity.iter_mut().enumerate() {
        if !c.is_finite() || *c < 0.0 {
            defect.get_or_insert_with(|| format!("machine {i} has invalid capacity {c}"));
            *c = 0.0;
        }
    }
    (capacity, defect)
}

impl GapInstance {
    /// Builds an instance from a per-group candidate CSR.
    ///
    /// Row `r` is `offsets[r]..offsets[r + 1]` of the parallel
    /// `machines`/`costs`/`times` arrays and lists its candidates with
    /// strictly ascending machine ids; every pair *not* listed is
    /// forbidden. `job_group[j]` names the row job `j` draws candidates
    /// from; jobs sharing a group (the ξ copies of one event) share one
    /// row. The arrays are compacted in place: a pair whose time exceeds
    /// its machine's capacity (`p_{i,j} > T_i`, the standard GAP
    /// preprocessing step the Shmoys–Tardos analysis requires) is
    /// dropped, so every stored pair is allowed.
    ///
    /// Malformed input — a capacity vector of the wrong length or with
    /// negative/non-finite entries, arrays of different lengths,
    /// offsets that do not rise from 0 to the array length, an
    /// out-of-range group or machine, a non-ascending row, a
    /// NaN/infinite cost, a negative or non-finite time — poisons the
    /// instance (see [`GapInstance::defect`]); offending entries (all
    /// of them, for malformed offsets or lengths) are dropped so the
    /// stored arena stays structurally consistent.
    pub fn from_csr(
        n_machines: usize,
        capacity: Vec<f64>,
        job_group: Vec<u32>,
        offsets: Vec<u32>,
        machines: Vec<u32>,
        costs: Vec<f64>,
        times: Vec<f64>,
    ) -> Self {
        let (capacity, defect) = checked_capacity(n_machines, capacity);
        let mut inst = GapInstance {
            n_machines,
            capacity,
            job_group,
            offsets,
            machines,
            costs,
            times,
            defect,
        };
        let len = inst.machines.len();
        let shape_ok = inst.costs.len() == len
            && inst.times.len() == len
            && inst.offsets.first() == Some(&0)
            && inst.offsets.windows(2).all(|w| w[0] <= w[1])
            && inst.offsets.last().map(|&o| o as usize) == Some(len);
        if !shape_ok {
            inst.poison(format!(
                "malformed candidate CSR ({} offsets, {len} machines, {} costs, {} times)",
                inst.offsets.len(),
                inst.costs.len(),
                inst.times.len()
            ));
            // Keep the rows, drop every entry.
            inst.offsets = vec![0; inst.offsets.len().max(1)];
        }
        let n_rows = inst.offsets.len() - 1;
        for g in inst.job_group.iter_mut() {
            if *g as usize >= n_rows {
                inst.defect.get_or_insert(format!(
                    "job group {g} out of range ({n_rows} candidate rows)"
                ));
                *g = 0;
            }
        }
        if n_rows == 0 && !inst.job_group.is_empty() {
            // Every job's group was clamped to row 0 (and the instance
            // poisoned); give them an empty row to stay panic-free.
            inst.offsets.push(0);
        }
        // Compact each row in place: `w` never passes the read cursor.
        let (mut w, mut lo) = (0usize, 0usize);
        for r in 0..inst.offsets.len() - 1 {
            let hi = inst.offsets[r + 1] as usize;
            let mut prev: Option<u32> = None;
            for k in lo..hi {
                let (i, c, t) = (inst.machines[k], inst.costs[k], inst.times[k]);
                if i as usize >= n_machines {
                    inst.poison(format!("row {r}: machine {i} out of range ({n_machines})"));
                    continue;
                }
                if prev.is_some_and(|p| i <= p) {
                    inst.poison(format!("row {r}: machine ids not strictly ascending"));
                    continue;
                }
                if !c.is_finite() {
                    inst.poison(format!("row {r}: machine {i} has non-finite cost {c}"));
                    continue;
                }
                if !t.is_finite() || t < 0.0 {
                    inst.poison(format!("row {r}: machine {i} has invalid time {t}"));
                    continue;
                }
                prev = Some(i);
                if t > inst.capacity[i as usize] + 1e-12 {
                    continue;
                }
                inst.machines[w] = i;
                inst.costs[w] = c;
                inst.times[w] = t;
                w += 1;
            }
            inst.offsets[r + 1] = w as u32;
            lo = hi;
        }
        inst.machines.truncate(w);
        inst.costs.truncate(w);
        inst.times.truncate(w);
        inst
    }

    /// Builds a small instance from dense machine-major matrices, one
    /// candidate row per job. `f64::INFINITY` costs mark forbidden
    /// pairs, which are left out of the rows. Ragged matrices, NaN
    /// costs, invalid times and bad capacities poison the instance.
    pub fn from_matrices(costs: Vec<Vec<f64>>, times: Vec<Vec<f64>>, capacity: Vec<f64>) -> Self {
        let n_machines = costs.len();
        let n_jobs = costs.first().map_or(0, Vec::len);
        let mut offsets = vec![0u32];
        let (mut machines, mut row_costs, mut row_times) = (Vec::new(), Vec::new(), Vec::new());
        for j in 0..n_jobs {
            for (i, cost_row) in costs.iter().enumerate() {
                let c = cost_row.get(j).copied().unwrap_or(f64::INFINITY);
                if c != f64::INFINITY {
                    let t = times.get(i).and_then(|row| row.get(j)).copied();
                    machines.push(i as u32);
                    row_costs.push(c);
                    row_times.push(t.unwrap_or(0.0));
                }
            }
            offsets.push(machines.len() as u32);
        }
        let job_group = (0..n_jobs as u32).collect();
        let mut inst = GapInstance::from_csr(
            n_machines, capacity, job_group, offsets, machines, row_costs, row_times,
        );
        if times.len() != n_machines {
            inst.poison(format!(
                "time matrix has {} rows for {n_machines} machines",
                times.len()
            ));
        }
        for (i, cost_row) in costs.iter().enumerate() {
            if cost_row.len() != n_jobs {
                inst.poison(format!("ragged cost matrix at machine {i}"));
            }
            if times.get(i).is_some_and(|row| row.len() != n_jobs) {
                inst.poison(format!("ragged time matrix at machine {i}"));
            }
        }
        inst
    }

    /// Records the first construction defect; later ones are dropped.
    fn poison(&mut self, message: String) {
        self.defect.get_or_insert(message);
    }

    /// The first construction defect, if the instance is malformed.
    /// Solvers reject poisoned instances with a `BadInput` error.
    pub fn defect(&self) -> Option<&str> {
        self.defect.as_deref()
    }

    /// Arena slice of candidate row `r` as `(machines, costs, times)`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> (&[u32], &[f64], &[f64]) {
        let lo = self.offsets[r] as usize;
        let hi = self.offsets[r + 1] as usize;
        (
            &self.machines[lo..hi],
            &self.costs[lo..hi],
            &self.times[lo..hi],
        )
    }

    /// Arena index of `(machine, job)` if the pair is a candidate.
    #[inline]
    fn find(&self, machine: usize, job: usize) -> Option<usize> {
        let r = self.job_group[job] as usize;
        let lo = self.offsets[r] as usize;
        let hi = self.offsets[r + 1] as usize;
        self.machines[lo..hi]
            .binary_search(&(machine as u32))
            .ok()
            .map(|k| lo + k)
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.job_group.len()
    }

    /// Cost of assigning `job` to `machine` (infinite if the pair is
    /// forbidden, capacity-gated pairs included).
    #[inline]
    pub fn cost(&self, machine: usize, job: usize) -> f64 {
        self.find(machine, job)
            .map_or(f64::INFINITY, |k| self.costs[k])
    }

    /// Processing time of `job` on `machine` (0 for forbidden pairs,
    /// capacity-gated ones included, which no solver path consumes).
    #[inline]
    pub fn time(&self, machine: usize, job: usize) -> f64 {
        self.find(machine, job).map_or(0.0, |k| self.times[k])
    }

    /// Capacity of `machine`.
    #[inline]
    pub fn capacity(&self, machine: usize) -> f64 {
        self.capacity[machine]
    }

    /// Whether the pair may be used: present in the job's candidate
    /// row. Construction already dropped every pair whose job alone
    /// exceeds the machine's capacity.
    #[inline]
    pub fn allowed(&self, machine: usize, job: usize) -> bool {
        self.find(machine, job).is_some()
    }

    /// Number of distinct candidate rows (copies share a row).
    pub fn n_candidate_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The candidate row `job` draws its machines from.
    #[inline]
    pub fn candidate_row_of(&self, job: usize) -> usize {
        self.job_group[job] as usize
    }

    /// Allowed `(machine, cost, time)` triples of candidate row `row`,
    /// machine-ascending, in O(row candidates). The workhorse of every
    /// solver's inner loop.
    pub fn row_allowed_triples(
        &self,
        row: usize,
    ) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        let (machines, costs, times) = self.row(row);
        machines
            .iter()
            .zip(costs.iter())
            .zip(times.iter())
            .map(|((&i, &c), &t)| (i as usize, c, t))
    }

    /// Allowed `(machine, cost, time)` triples for `job`,
    /// machine-ascending.
    pub fn allowed_triples(&self, job: usize) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        self.row_allowed_triples(self.candidate_row_of(job))
    }

    /// Machines allowed for `job`.
    pub fn allowed_machines(&self, job: usize) -> impl Iterator<Item = usize> + '_ {
        self.allowed_triples(job).map(|(i, _, _)| i)
    }

    /// Number of allowed machine–job pairs (the LP variable count), in
    /// O(jobs): each job's row length.
    pub fn allowed_pairs_count(&self) -> usize {
        self.job_group.iter().map(|&g| self.row(g as usize).0.len()).sum()
    }

    /// Row offsets of the candidate arena, `n_candidate_rows() + 1`
    /// entries.
    pub(crate) fn row_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Jobs with no allowed machine (unassignable under any policy).
    pub fn unassignable_jobs(&self) -> Vec<usize> {
        (0..self.n_jobs())
            .filter(|&j| self.row(self.job_group[j] as usize).0.is_empty())
            .collect()
    }

    /// Total cost of an assignment (ignoring `None` entries).
    pub fn assignment_cost(&self, assignment: &[Option<usize>]) -> f64 {
        assignment
            .iter()
            .enumerate()
            .filter_map(|(j, &m)| m.map(|i| self.cost(i, j)))
            .sum()
    }

    /// Per-machine loads of an assignment.
    pub fn loads(&self, assignment: &[Option<usize>]) -> Vec<f64> {
        let mut loads = vec![0.0; self.n_machines];
        for (j, &m) in assignment.iter().enumerate() {
            if let Some(i) = m {
                loads[i] += self.time(i, j);
            }
        }
        loads
    }
}

/// An (integral) GAP solution.
#[derive(Debug, Clone)]
pub struct GapSolution {
    /// `assignment[j]` is the machine of job `j`, or `None` if the
    /// solver could not place the job (infeasible instance).
    pub assignment: Vec<Option<usize>>,
    /// Total cost over assigned jobs.
    pub cost: f64,
    /// Per-machine consumed time.
    pub loads: Vec<f64>,
    /// Objective of the fractional relaxation, when one was solved —
    /// a lower bound on the optimal integral cost (complete solutions).
    pub fractional_cost: Option<f64>,
}

impl GapSolution {
    pub(crate) fn from_assignment(inst: &GapInstance, assignment: Vec<Option<usize>>) -> Self {
        let cost = inst.assignment_cost(&assignment);
        let loads = inst.loads(&assignment);
        GapSolution {
            assignment,
            cost,
            loads,
            fractional_cost: None,
        }
    }

    /// `true` when every job was assigned.
    pub fn is_complete(&self) -> bool {
        self.assignment.iter().all(Option::is_some)
    }

    /// Jobs the solver failed to place.
    pub fn unassigned_jobs(&self) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_none())
            .map(|(j, _)| j)
            .collect()
    }

    /// Whether every machine's load is within `factor ×` its capacity.
    pub fn within_capacity(&self, inst: &GapInstance, factor: f64) -> bool {
        self.loads
            .iter()
            .enumerate()
            .all(|(i, &l)| l <= factor * inst.capacity(i) + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GapInstance {
        GapInstance::from_matrices(
            vec![vec![1.0, 2.0], vec![3.0, 0.5]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![2.0, 1.0],
        )
    }

    #[test]
    fn accessors() {
        let g = tiny();
        assert_eq!(g.n_machines(), 2);
        assert_eq!(g.n_jobs(), 2);
        assert_eq!(g.cost(0, 1), 2.0);
        assert_eq!(g.time(1, 0), 1.0);
        assert_eq!(g.capacity(1), 1.0);
    }

    #[test]
    fn infinite_cost_excludes_pair() {
        assert!(tiny().allowed(0, 0));
        let g = GapInstance::from_matrices(
            vec![vec![f64::INFINITY, 2.0], vec![3.0, 0.5]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![2.0, 1.0],
        );
        assert!(!g.allowed(0, 0));
        assert_eq!(g.cost(0, 0), f64::INFINITY);
        assert_eq!(g.allowed_machines(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(g.n_candidate_rows(), 2);
        assert_eq!(g.allowed_pairs_count(), 3);
    }

    #[test]
    fn oversized_job_not_allowed() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 2.0], vec![1.0, 0.5]],
            vec![vec![1.0, 1.0], vec![5.0, 1.0]], // (1, 0) exceeds capacity 1.0
            vec![2.0, 1.0],
        );
        assert!(!g.allowed(1, 0));
    }

    #[test]
    fn unassignable_detection() {
        let inf = f64::INFINITY;
        let g = GapInstance::from_matrices(
            vec![vec![1.0, inf], vec![3.0, inf]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![2.0, 1.0],
        );
        assert_eq!(g.unassignable_jobs(), vec![1]);
    }

    #[test]
    fn cost_and_loads() {
        let g = tiny();
        let a = vec![Some(0), Some(1)];
        assert_eq!(g.assignment_cost(&a), 1.5);
        assert_eq!(g.loads(&a), vec![1.0, 1.0]);
        let s = GapSolution::from_assignment(&g, a);
        assert!(s.is_complete());
        assert!(s.within_capacity(&g, 1.0));
    }

    #[test]
    fn partial_assignment() {
        let g = tiny();
        let s = GapSolution::from_assignment(&g, vec![Some(0), None]);
        assert!(!s.is_complete());
        assert_eq!(s.unassigned_jobs(), vec![1]);
        assert_eq!(s.cost, 1.0);
    }

    #[test]
    fn wrong_capacity_count_poisons() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![1.0],
        );
        assert!(g.defect().is_some_and(|d| d.contains("capacity")));
        // The instance is still usable without panicking.
        assert_eq!(g.capacity(1), 0.0);
    }

    #[test]
    fn invalid_values_poison() {
        let matrices = |c: f64, t: f64| {
            GapInstance::from_matrices(
                vec![vec![c, 2.0], vec![3.0, 0.5]],
                vec![vec![t, 1.0], vec![1.0, 1.0]],
                vec![2.0, 1.0],
            )
        };
        assert!(tiny().defect().is_none());
        let g = matrices(f64::NAN, 1.0);
        assert!(g.defect().is_some_and(|d| d.contains("NaN")));
        let g = matrices(1.0, -2.0);
        assert!(g.defect().is_some_and(|d| d.contains("invalid time")));
        // Only `+∞` marks a forbidden pair; `-∞` is a malformed cost.
        let g = matrices(f64::NEG_INFINITY, 1.0);
        assert!(g.defect().is_some_and(|d| d.contains("non-finite cost")));
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 2.0], vec![3.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![2.0, 1.0],
        );
        assert!(g.defect().is_some_and(|d| d.contains("ragged")));
        let g = GapInstance::from_matrices(vec![vec![1.0]], vec![vec![1.0]], vec![-3.0]);
        assert!(g.defect().is_some_and(|d| d.contains("invalid capacity")));
        assert_eq!(g.capacity(0), 0.0);
    }

    /// Flattens per-row `(machine, cost, time)` lists into the CSR
    /// arrays [`GapInstance::from_csr`] takes.
    fn csr(
        n_machines: usize,
        capacity: Vec<f64>,
        job_group: Vec<u32>,
        rows: &[&[(u32, f64, f64)]],
    ) -> GapInstance {
        let mut offsets = vec![0u32];
        let (mut machines, mut costs, mut times) = (Vec::new(), Vec::new(), Vec::new());
        for row in rows {
            for &(i, c, t) in *row {
                machines.push(i);
                costs.push(c);
                times.push(t);
            }
            offsets.push(machines.len() as u32);
        }
        GapInstance::from_csr(n_machines, capacity, job_group, offsets, machines, costs, times)
    }

    /// Two jobs sharing one candidate row plus a third job with its own
    /// row.
    fn sparse_tiny() -> GapInstance {
        csr(
            3,
            vec![2.0, 1.0, 4.0],
            vec![0, 0, 1],
            &[&[(0, 1.0, 1.0), (2, 0.5, 3.0)], &[(1, 2.0, 1.0)]],
        )
    }

    #[test]
    fn sparse_accessors_match_candidate_rows() {
        let g = sparse_tiny();
        assert!(g.defect().is_none());
        assert_eq!(g.n_machines(), 3);
        assert_eq!(g.n_jobs(), 3);
        assert_eq!(g.n_candidate_rows(), 2);
        assert_eq!(g.candidate_row_of(1), 0);
        assert_eq!(g.candidate_row_of(2), 1);
        // Copies share the row.
        assert_eq!(g.cost(0, 0), 1.0);
        assert_eq!(g.cost(0, 1), 1.0);
        assert_eq!(g.time(2, 0), 3.0);
        // Absent pair is forbidden.
        assert_eq!(g.cost(1, 0), f64::INFINITY);
        assert_eq!(g.time(1, 0), 0.0);
        assert!(!g.allowed(1, 0));
        // Present pair within capacity: machine 2 has cap 4.
        assert!(g.allowed(2, 0));
        assert_eq!(g.allowed_machines(0).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(
            g.allowed_triples(2).collect::<Vec<_>>(),
            vec![(1, 2.0, 1.0)]
        );
    }

    #[test]
    fn sparse_capacity_gates_oversized_candidates() {
        // Machine 1 (cap 1.0) listed with time 5.0: dropped at build —
        // the p ≤ T preprocessing applies to sparse rows too — and the
        // pair reads like any forbidden one.
        let g = csr(
            2,
            vec![2.0, 1.0],
            vec![0, 1],
            &[&[(0, 1.0, 1.0), (1, 0.1, 5.0)], &[(1, 0.4, 0.5)]],
        );
        assert!(g.defect().is_none());
        assert!(!g.allowed(1, 0));
        assert_eq!(g.cost(1, 0), f64::INFINITY);
        assert_eq!(g.time(1, 0), 0.0);
        assert_eq!(g.allowed_machines(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.allowed_pairs_count(), 2);
        // The offsets close over the compacted arena, so the next row
        // still reads its own entry.
        assert_eq!(g.row_offsets(), &[0, 1, 2]);
        assert_eq!(g.allowed_triples(1).collect::<Vec<_>>(), vec![(1, 0.4, 0.5)]);
    }

    #[test]
    fn group_rows_match_matrix_rows() {
        // The same instance built both ways answers identically.
        let sparse = sparse_tiny();
        let inf = f64::INFINITY;
        let dense = GapInstance::from_matrices(
            vec![
                vec![1.0, 1.0, inf],
                vec![inf, inf, 2.0],
                vec![0.5, 0.5, inf],
            ],
            vec![
                vec![1.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0],
                vec![3.0, 3.0, 0.0],
            ],
            vec![2.0, 1.0, 4.0],
        );
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(sparse.allowed(i, j), dense.allowed(i, j), "({i},{j})");
                assert_eq!(sparse.cost(i, j), dense.cost(i, j));
                assert_eq!(sparse.time(i, j), dense.time(i, j));
            }
        }
        assert_eq!(sparse.allowed_pairs_count(), dense.allowed_pairs_count());
        assert_eq!(sparse.unassignable_jobs(), dense.unassignable_jobs());
    }

    #[test]
    fn sparse_unassignable_jobs_via_group_rows() {
        let g = csr(2, vec![1.0, 1.0], vec![0, 1, 0], &[&[(0, 0.3, 1.0)], &[]]);
        assert_eq!(g.unassignable_jobs(), vec![1]);
    }

    #[test]
    fn sparse_malformed_rows_poison() {
        // Out-of-range machine.
        let g = csr(1, vec![1.0], vec![0], &[&[(5, 1.0, 1.0)]]);
        assert!(g.defect().is_some_and(|d| d.contains("out of range")));
        // Non-ascending machines.
        let g = csr(
            2,
            vec![1.0, 1.0],
            vec![0],
            &[&[(1, 1.0, 1.0), (0, 1.0, 1.0)]],
        );
        assert!(g.defect().is_some_and(|d| d.contains("ascending")));
        // NaN cost and negative time.
        let g = csr(1, vec![1.0], vec![0], &[&[(0, f64::NAN, 1.0)]]);
        assert!(g.defect().is_some_and(|d| d.contains("cost")));
        let g = csr(1, vec![1.0], vec![0], &[&[(0, 1.0, -1.0)]]);
        assert!(g.defect().is_some_and(|d| d.contains("time")));
        // Dangling group reference, including the no-rows corner.
        let g = csr(1, vec![1.0], vec![3], &[]);
        assert!(g.defect().is_some_and(|d| d.contains("group")));
        assert!(!g.allowed(0, 0)); // structurally consistent, no panic
    }

    #[test]
    fn malformed_flat_arrays_poison() {
        let flat = |offsets: Vec<u32>, machines: Vec<u32>, costs: Vec<f64>, times: Vec<f64>| {
            GapInstance::from_csr(2, vec![1.0, 1.0], vec![0, 1], offsets, machines, costs, times)
        };
        let ok = flat(vec![0, 1, 2], vec![0, 1], vec![0.5, 0.5], vec![1.0, 1.0]);
        assert!(ok.defect().is_none());
        assert_eq!(ok.allowed_pairs_count(), 2);
        for g in [
            // Offsets that decrease.
            flat(vec![0, 2, 1], vec![0, 1], vec![0.5, 0.5], vec![1.0, 1.0]),
            // A last offset short of the arrays, and one past them.
            flat(vec![0, 1, 1], vec![0, 1], vec![0.5, 0.5], vec![1.0, 1.0]),
            flat(vec![0, 1, 5], vec![0, 1], vec![0.5, 0.5], vec![1.0, 1.0]),
            // A first offset past 0.
            flat(vec![1, 1, 2], vec![0, 1], vec![0.5, 0.5], vec![1.0, 1.0]),
            // Parallel arrays of different lengths.
            flat(vec![0, 1, 2], vec![0, 1], vec![0.5], vec![1.0, 1.0]),
            flat(vec![0, 1, 2], vec![0, 1], vec![0.5, 0.5], vec![1.0, 1.0, 1.0]),
        ] {
            assert!(g.defect().is_some_and(|d| d.contains("malformed candidate CSR")));
            // Every entry is dropped; the rows stay, empty.
            assert_eq!(g.n_candidate_rows(), 2);
            assert_eq!(g.row_offsets(), &[0, 0, 0]);
            assert_eq!(g.unassignable_jobs(), vec![0, 1]);
        }
        // No offsets at all: one empty row for the clamped jobs.
        let g = flat(vec![], vec![], vec![], vec![]);
        assert!(g.defect().is_some_and(|d| d.contains("malformed candidate CSR")));
        assert_eq!(g.unassignable_jobs(), vec![0, 1]);
    }
}
