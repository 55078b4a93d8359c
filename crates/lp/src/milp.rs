//! Mixed-integer linear programming by depth-first branch & bound.
//!
//! Suited to the *small* exact instances the paper solves with its MILP
//! formulation (§3.2). One persistent [`SimplexSolver`] is shared by every
//! node: the matrix, slack/artificial columns, and scratch buffers are
//! assembled once, and each child node warm-starts from its parent's
//! [`BasisSnapshot`] — since parent and child differ in a single variable
//! bound, the parent's optimal basis stays dual feasible in the child and a
//! few dual simplex pivots reach the child's optimum (or prove it
//! infeasible), eliminating per-node matrix rebuilds and cold phase-1
//! solves. Branching is pseudocost-driven (observed per-unit objective
//! degradation per variable and direction, falling back to most-fractional
//! until statistics exist), diving first into the child with the smaller
//! estimated degradation; subtrees are pruned against the incumbent both
//! before (parent bound) and after their LP solve. A node budget keeps
//! worst-case instances from running away.

use crate::problem::LinearProgram;
use crate::simplex::{BasisSnapshot, FactorStats, LpStatus, SimplexOptions, SimplexSolver};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Options for the branch & bound search.
#[derive(Clone, Debug)]
pub struct MilpOptions {
    /// Maximum number of explored nodes before giving up.
    pub max_nodes: usize,
    /// Wall-clock budget for the whole tree (node loop **and** the simplex
    /// iteration loops inside each node solve); `None` means unbounded.
    /// When it expires the search stops at the next check point and the
    /// best feasible incumbent found so far is returned with
    /// [`MilpStatus::TimedOut`].
    pub time_budget: Option<Duration>,
    /// Integrality tolerance: `|x − round(x)| ≤ int_tol` counts as integral.
    pub int_tol: f64,
    /// Absolute optimality gap at which a node is pruned.
    pub gap_tol: f64,
    /// Options for the node LP solves.
    pub simplex: SimplexOptions,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            max_nodes: 100_000,
            time_budget: None,
            int_tol: 1e-6,
            gap_tol: 1e-9,
            simplex: SimplexOptions::default(),
        }
    }
}

/// Status of a branch & bound run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal integer solution.
    Optimal,
    /// No integer-feasible solution exists.
    Infeasible,
    /// Node budget exhausted; `best` (if any) is a feasible incumbent
    /// without optimality proof.
    NodeLimit,
    /// Wall-clock budget exhausted; `best` (if any) is a feasible incumbent
    /// without optimality proof.
    TimedOut,
    /// The LP relaxation failed numerically or was unbounded.
    Error,
}

impl MilpStatus {
    /// Whether an incumbent reported under this status is a *feasible*
    /// integer solution (possibly without an optimality proof).
    pub fn incumbent_is_feasible(&self) -> bool {
        matches!(
            self,
            MilpStatus::Optimal | MilpStatus::NodeLimit | MilpStatus::TimedOut
        )
    }
}

/// Result of a branch & bound run.
#[derive(Clone, Debug)]
pub struct MilpResult {
    /// Run status.
    pub status: MilpStatus,
    /// Best integer-feasible objective (user orientation), if found.
    pub objective: Option<f64>,
    /// Variable values of the incumbent, if found.
    pub values: Option<Vec<f64>>,
    /// Explored node count.
    pub nodes: usize,
    /// Total simplex iterations across every node LP solve (solver-effort
    /// telemetry: warm starts should keep this far below `nodes × cold`).
    pub simplex_iterations: usize,
    /// Factorisation and pricing telemetry accumulated across every node LP
    /// solve: refactorisation counts, warm-column reuse, eta folds,
    /// FTRAN/BTRAN sparsity, and snapshot eta-clone counts.
    pub factor: FactorStats,
}

/// A pending node: its bound box, the basis of the parent that spawned it
/// (shared between siblings), and the parent's LP objective — a valid bound
/// on every descendant, checked against the incumbent *before* paying for
/// the node's own LP solve.
struct Node {
    lo: Vec<f64>,
    hi: Vec<f64>,
    warm: Option<Rc<BasisSnapshot>>,
    parent_bound: Option<f64>,
    /// `(variable, went up, fractional distance moved)` of the branching
    /// that created this node — feeds the pseudocost statistics.
    branched: Option<(usize, bool, f64)>,
}

/// Observed per-unit objective degradation of branching a variable in each
/// direction; the running averages drive pseudocost branching.
#[derive(Clone, Copy, Default)]
struct PseudoCost {
    down_sum: f64,
    down_cnt: u32,
    up_sum: f64,
    up_cnt: u32,
}

/// Solves `lp` requiring every variable in `int_vars` to be integral.
///
/// One-shot convenience over [`MilpSolver`]; repeated solves of the same
/// model (e.g. a service re-solving an unchanged instance under a new
/// budget) should construct the solver once and call
/// [`MilpSolver::solve`].
pub fn solve_milp(lp: &LinearProgram, int_vars: &[usize], opts: &MilpOptions) -> MilpResult {
    MilpSolver::new(lp, int_vars, opts.clone()).solve()
}

/// A persistent branch & bound solver for one [`LinearProgram`].
///
/// Construction assembles the underlying [`SimplexSolver`] (matrix, slack
/// and artificial columns, pricing state, scratch) once; every
/// [`MilpSolver::solve`] call reuses it, so re-solving the same model —
/// the allocation service's "re-solve with tightened budget" requests —
/// pays no assembly cost and keeps the solver's candidate lists and
/// factorisation allocations warm.
pub struct MilpSolver {
    solver: SimplexSolver,
    /// The model's own variable bounds (the root node's box).
    lower: Vec<f64>,
    upper: Vec<f64>,
    int_vars: Vec<usize>,
    maximize: bool,
    n: usize,
    opts: MilpOptions,
}

impl MilpSolver {
    /// Builds a persistent solver for `lp` with the given integer set.
    pub fn new(lp: &LinearProgram, int_vars: &[usize], opts: MilpOptions) -> MilpSolver {
        MilpSolver {
            solver: SimplexSolver::new(lp, opts.simplex.clone()),
            lower: lp.lower.clone(),
            upper: lp.upper.clone(),
            int_vars: int_vars.to_vec(),
            maximize: lp.is_maximize(),
            n: lp.num_vars(),
            opts,
        }
    }

    /// The branch & bound options (adjust `max_nodes` / `time_budget`
    /// between solves via [`MilpSolver::options_mut`]).
    pub fn options(&self) -> &MilpOptions {
        &self.opts
    }

    /// Mutable access to the branch & bound options.
    pub fn options_mut(&mut self) -> &mut MilpOptions {
        &mut self.opts
    }

    /// Runs the branch & bound search from the root. Each call is an
    /// independent solve: the simplex is reset to its canonical state and
    /// no pseudocost statistics carry over, so a re-solve returns
    /// **bit-identical** results (tree, nodes, values) to a fresh solver
    /// — only the assembly cost is amortised.
    pub fn solve(&mut self) -> MilpResult {
        self.solver.reset_state();
        let deadline = self.opts.time_budget.map(|b| Instant::now() + b);
        self.solver.set_deadline(deadline);
        let mut result = self.search(deadline);
        result.factor = self.solver.stats().clone();
        self.solver.set_deadline(None);
        result
    }

    fn search(&mut self, deadline: Option<Instant>) -> MilpResult {
        let n = self.n;
        let opts = self.opts.clone();
        let maximize = self.maximize;
        let solver = &mut self.solver;
        let mut best_obj: Option<f64> = None;
        let mut best_values: Option<Vec<f64>> = None;
        let mut nodes = 0usize;
        let mut simplex_iterations = 0usize;

        // DFS stack of bound overrides + parent bases.
        let mut stack: Vec<Node> = vec![Node {
            lo: self.lower.clone(),
            hi: self.upper.clone(),
            warm: None,
            parent_bound: None,
            branched: None,
        }];
        let mut pc: Vec<PseudoCost> = vec![PseudoCost::default(); n];
        // Global averages back uninitialised variables. With nothing observed
        // yet the estimates collapse to plain fractionality scoring.
        let mut global_down = (0.0f64, 0u32);
        let mut global_up = (0.0f64, 0u32);

        let better = |candidate: f64, incumbent: Option<f64>| -> bool {
            match incumbent {
                None => true,
                Some(b) => {
                    if maximize {
                        candidate > b + opts.gap_tol
                    } else {
                        candidate < b - opts.gap_tol
                    }
                }
            }
        };

        let int_vars = &self.int_vars;
        while let Some(node) = stack.pop() {
            // The parent's relaxation objective bounds every solution in this
            // subtree; if the incumbent already matches it, skip the LP solve.
            if let (Some(pb), Some(b)) = (node.parent_bound, best_obj) {
                let prune = if maximize {
                    pb <= b + opts.gap_tol
                } else {
                    pb >= b - opts.gap_tol
                };
                if prune {
                    continue;
                }
            }
            if nodes >= opts.max_nodes {
                return MilpResult {
                    status: MilpStatus::NodeLimit,
                    objective: best_obj,
                    values: best_values,
                    nodes,
                    simplex_iterations,
                    factor: FactorStats::default(),
                };
            }
            // Wall-clock cutoff, checked once per node; the node's own simplex
            // iteration loop checks the same deadline at a finer grain.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return MilpResult {
                    status: MilpStatus::TimedOut,
                    objective: best_obj,
                    values: best_values,
                    nodes,
                    simplex_iterations,
                    factor: FactorStats::default(),
                };
            }
            nodes += 1;

            let sol = solver.solve_from(node.warm.as_deref(), &node.lo, &node.hi);
            simplex_iterations += sol.iterations;
            match sol.status {
                LpStatus::Infeasible => continue,
                LpStatus::Optimal => {}
                // A node whose LP timed out ends the search with the incumbent
                // found so far — the deadline never surfaces as an error.
                LpStatus::TimedOut => {
                    return MilpResult {
                        status: MilpStatus::TimedOut,
                        objective: best_obj,
                        values: best_values,
                        nodes,
                        simplex_iterations,
                        factor: FactorStats::default(),
                    };
                }
                LpStatus::Unbounded | LpStatus::IterationLimit | LpStatus::Numerical => {
                    return MilpResult {
                        status: MilpStatus::Error,
                        objective: best_obj,
                        values: best_values,
                        nodes,
                        simplex_iterations,
                        factor: FactorStats::default(),
                    };
                }
            }

            // Record the observed degradation of the branching that produced
            // this node (per unit of fractional distance moved).
            if let (Some((v, up, dist)), Some(pb)) = (node.branched, node.parent_bound) {
                if dist > opts.int_tol {
                    let deg = if maximize {
                        (pb - sol.objective).max(0.0)
                    } else {
                        (sol.objective - pb).max(0.0)
                    } / dist;
                    if up {
                        pc[v].up_sum += deg;
                        pc[v].up_cnt += 1;
                        global_up.0 += deg;
                        global_up.1 += 1;
                    } else {
                        pc[v].down_sum += deg;
                        pc[v].down_cnt += 1;
                        global_down.0 += deg;
                        global_down.1 += 1;
                    }
                }
            }

            // Bound-based pruning.
            if let Some(b) = best_obj {
                let prune = if maximize {
                    sol.objective <= b + opts.gap_tol
                } else {
                    sol.objective >= b - opts.gap_tol
                };
                if prune {
                    continue;
                }
            }

            // Pseudocost branching: pick the fractional variable with the
            // largest guaranteed (min of both directions) estimated bound
            // degradation; with no statistics yet this reduces to plain
            // most-fractional scoring.
            let gd = if global_down.1 > 0 {
                global_down.0 / global_down.1 as f64
            } else {
                1.0
            };
            let gu = if global_up.1 > 0 {
                global_up.0 / global_up.1 as f64
            } else {
                1.0
            };
            let mut branch: Option<(usize, f64, f64, f64)> = None; // (var, value, score, dn_est−up_est)
            for &v in int_vars {
                debug_assert!(v < n);
                let x = sol.values[v];
                let dist = (x - x.round()).abs();
                if dist > opts.int_tol {
                    let f = x - x.floor();
                    let pcd = if pc[v].down_cnt > 0 {
                        pc[v].down_sum / pc[v].down_cnt as f64
                    } else {
                        gd
                    };
                    let pcu = if pc[v].up_cnt > 0 {
                        pc[v].up_sum / pc[v].up_cnt as f64
                    } else {
                        gu
                    };
                    let dn_est = pcd * f;
                    let up_est = pcu * (1.0 - f);
                    let score = dn_est.min(up_est);
                    if branch.map(|(_, _, s, _)| score > s).unwrap_or(true) {
                        branch = Some((v, x, score, dn_est - up_est));
                    }
                }
            }

            match branch {
                None => {
                    // Integer feasible.
                    if better(sol.objective, best_obj) {
                        best_obj = Some(sol.objective);
                        best_values = Some(sol.values);
                    }
                }
                Some((v, x, _, est_diff)) => {
                    // Both children warm-start from this node's optimal basis.
                    let warm = Rc::new(solver.snapshot());
                    let Node { lo, hi, .. } = node;
                    let mut lo_up = lo.clone();
                    let mut hi_dn = hi.clone();
                    lo_up[v] = x.ceil();
                    hi_dn[v] = x.floor();
                    let up_ok = lo_up[v] <= hi[v] + opts.int_tol;
                    let dn_ok = hi_dn[v] >= lo[v] - opts.int_tol;
                    let f = x - x.floor();
                    let up_node = up_ok.then(|| Node {
                        lo: lo_up,
                        hi: hi.clone(),
                        warm: Some(warm.clone()),
                        parent_bound: Some(sol.objective),
                        branched: Some((v, true, 1.0 - f)),
                    });
                    let dn_node = dn_ok.then_some(Node {
                        lo,
                        hi: hi_dn,
                        warm: Some(warm),
                        parent_bound: Some(sol.objective),
                        branched: Some((v, false, f)),
                    });
                    // Dive into the child with the smaller estimated
                    // degradation first (LIFO: it is pushed last) — it keeps
                    // the better bound and reaches good incumbents sooner.
                    let dive_up = est_diff >= 0.0;
                    let (first, second) = if dive_up {
                        (dn_node, up_node)
                    } else {
                        (up_node, dn_node)
                    };
                    stack.extend(first);
                    stack.extend(second);
                }
            }
        }

        MilpResult {
            status: if best_obj.is_some() {
                MilpStatus::Optimal
            } else {
                MilpStatus::Infeasible
            },
            objective: best_obj,
            values: best_values,
            nodes,
            simplex_iterations,
            factor: FactorStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, RowSense};

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 5, binary → b+c best? check:
        // a+c: 10+7=17 weight 5 ✓; b+c: 20 weight 6 ✗; a alone 10; b alone 13 w4 ✓
        // b + nothing = 13; a+c = 17 → optimum 17.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let a = lp.add_var(0.0, 1.0, 10.0);
        let b = lp.add_var(0.0, 1.0, 13.0);
        let c = lp.add_var(0.0, 1.0, 7.0);
        lp.add_row(RowSense::Le, 5.0, &[(a, 3.0), (b, 4.0), (c, 2.0)]);
        let r = solve_milp(&lp, &[a, b, c], &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective.unwrap() - 17.0).abs() < 1e-6);
        let v = r.values.unwrap();
        assert!((v[a] - 1.0).abs() < 1e-6);
        assert!(v[b].abs() < 1e-6);
        assert!((v[c] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x ≤ 7, x integer in [0, 10] → x = 3 (LP gives 3.5).
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Le, 7.0, &[(x, 2.0)]);
        let r = solve_milp(&lp, &[x], &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective.unwrap() - 3.0).abs() < 1e-6);
    }

    /// A binary knapsack family large enough that the tree has real work.
    fn hard_knapsack(nv: usize) -> (LinearProgram, Vec<usize>) {
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let mut vars = Vec::new();
        for k in 0..nv {
            vars.push(lp.add_var(0.0, 1.0, 1.0 + 0.13 * k as f64));
        }
        let row_a: Vec<(usize, f64)> = vars
            .iter()
            .map(|&v| (v, 2.0 + (v as f64 * 0.71).sin().abs()))
            .collect();
        let row_b: Vec<(usize, f64)> = vars
            .iter()
            .map(|&v| (v, 1.0 + (v as f64 * 1.37).cos().abs() * 2.0))
            .collect();
        let cap_a = row_a.iter().map(|&(_, w)| w).sum::<f64>() * 0.5;
        let cap_b = row_b.iter().map(|&(_, w)| w).sum::<f64>() * 0.5;
        lp.add_row(RowSense::Le, cap_a, &row_a);
        lp.add_row(RowSense::Le, cap_b, &row_b);
        (lp, vars)
    }

    #[test]
    fn expired_budget_returns_incumbent_not_error() {
        let (lp, vars) = hard_knapsack(18);
        let opts = MilpOptions {
            time_budget: Some(std::time::Duration::ZERO),
            ..MilpOptions::default()
        };
        let r = solve_milp(&lp, &vars, &opts);
        // A zero budget expires before (or just after) the root: the search
        // stops cleanly; any reported incumbent is integer feasible.
        assert!(
            matches!(r.status, MilpStatus::TimedOut),
            "status {:?}",
            r.status
        );
        assert!(r.status.incumbent_is_feasible() || r.objective.is_none());
    }

    #[test]
    fn persistent_solver_resolves_identically() {
        let (lp, vars) = hard_knapsack(12);
        let reference = solve_milp(&lp, &vars, &MilpOptions::default());
        assert_eq!(reference.status, MilpStatus::Optimal);

        let mut solver = MilpSolver::new(&lp, &vars, MilpOptions::default());
        for round in 0..3 {
            let r = solver.solve();
            assert_eq!(r.status, MilpStatus::Optimal, "round {round}");
            assert_eq!(r.objective, reference.objective, "round {round}");
            assert_eq!(r.values, reference.values, "round {round}");
            assert_eq!(r.nodes, reference.nodes, "round {round}");
        }
    }

    #[test]
    fn budget_toggles_between_solves_on_one_solver() {
        let (lp, vars) = hard_knapsack(18);
        let mut solver = MilpSolver::new(&lp, &vars, MilpOptions::default());
        solver.options_mut().time_budget = Some(std::time::Duration::ZERO);
        let cut = solver.solve();
        assert_eq!(cut.status, MilpStatus::TimedOut);
        // Clearing the budget restores the full, proven-optimal search.
        solver.options_mut().time_budget = None;
        let full = solver.solve();
        assert_eq!(full.status, MilpStatus::Optimal);
        if let (Some(inc), Some(opt)) = (cut.objective, full.objective) {
            assert!(inc <= opt + 1e-9, "incumbent {inc} above optimum {opt}");
        }
    }

    #[test]
    fn snapshot_inverses_stay_within_the_byte_budget() {
        use crate::simplex::{DENSE_MAX_ROWS, SNAPSHOT_INVERSE_BUDGET};
        // A deep knapsack tree on the widest dense basis whose inverse fits
        // the budget once but not twice: the live snapshots must never
        // hold more than the budget, so some restores re-invert.
        let (mut lp, vars) = hard_knapsack(24);
        let rows = (((SNAPSHOT_INVERSE_BUDGET / 8) as f64).sqrt() as usize).min(DENSE_MAX_ROWS);
        let mut k = 0;
        while lp.num_rows() < rows {
            // Never binding for binaries; only widens the basis.
            lp.add_row(RowSense::Le, 2.0, &[(vars[k % vars.len()], 1.0)]);
            k += 1;
        }
        let opts = MilpOptions {
            max_nodes: 4000,
            ..MilpOptions::default()
        };
        let r = solve_milp(&lp, &vars, &opts);
        let f = &r.factor;
        let one = (lp.num_rows() * lp.num_rows() * 8) as u64;
        assert!(r.nodes > 100, "tree too shallow: {} nodes", r.nodes);
        assert!(
            f.snapshot_inverse_bytes >= one,
            "no inverse was ever shared ({} bytes)",
            f.snapshot_inverse_bytes
        );
        assert!(
            f.snapshot_inverse_bytes <= SNAPSHOT_INVERSE_BUDGET as u64,
            "live snapshots held {} bytes, budget {SNAPSHOT_INVERSE_BUDGET}",
            f.snapshot_inverse_bytes
        );
        assert!(f.snapshot_reinversions > 0, "the budget never bound");
        // Same optimum as the unpadded model.
        let (plain, plain_vars) = hard_knapsack(24);
        let reference = solve_milp(&plain, &plain_vars, &opts);
        if r.status == MilpStatus::Optimal && reference.status == MilpStatus::Optimal {
            assert!((r.objective.unwrap() - reference.objective.unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn infeasible_integer_problem() {
        // 0.4 ≤ x ≤ 0.6 with x integer (a row-free model: exercises the
        // boxed fast path through the persistent solver).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.4, 0.6, 1.0);
        let r = solve_milp(&lp, &[x], &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // max 2i + y s.t. i + y ≤ 3.5, y ≤ 0.8, i integer ≤ 5 → i=2? check:
        // i=3 → y ≤ 0.5 → obj 6.5; i=2 → y ≤ 0.8 → 4.8. So i=3, y=0.5.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let i = lp.add_var(0.0, 5.0, 2.0);
        let y = lp.add_var(0.0, 0.8, 1.0);
        lp.add_row(RowSense::Le, 3.5, &[(i, 1.0), (y, 1.0)]);
        let r = solve_milp(&lp, &[i], &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective.unwrap() - 6.5).abs() < 1e-6);
    }

    #[test]
    fn node_limit_respected() {
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let mut vars = Vec::new();
        for k in 0..12 {
            vars.push(lp.add_var(0.0, 1.0, 1.0 + 0.1 * k as f64));
        }
        let coeffs: Vec<(usize, f64)> = vars.iter().map(|&v| (v, 2.0 + v as f64 * 0.37)).collect();
        lp.add_row(RowSense::Le, 11.3, &coeffs);
        let opts = MilpOptions {
            max_nodes: 3,
            ..MilpOptions::default()
        };
        let r = solve_milp(&lp, &vars, &opts);
        assert!(r.nodes <= 3);
    }

    #[test]
    fn warm_started_tree_matches_brute_force() {
        // Randomised binary programs small enough to enumerate: the
        // warm-started search must find the exact optimum every time.
        let mut state = 0x5eed_cafe_u64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..25 {
            let nv = 6;
            let mut lp = LinearProgram::new();
            lp.set_maximize(true);
            let mut profits = Vec::new();
            let mut vars = Vec::new();
            for _ in 0..nv {
                let p = 1.0 + 9.0 * rnd();
                profits.push(p);
                vars.push(lp.add_var(0.0, 1.0, p));
            }
            let mut weights_a = Vec::new();
            let mut weights_b = Vec::new();
            for _ in 0..nv {
                weights_a.push(1.0 + 4.0 * rnd());
                weights_b.push(1.0 + 4.0 * rnd());
            }
            let cap_a = weights_a.iter().sum::<f64>() * (0.3 + 0.4 * rnd());
            let cap_b = weights_b.iter().sum::<f64>() * (0.3 + 0.4 * rnd());
            let row_a: Vec<(usize, f64)> = vars.iter().map(|&v| (v, weights_a[v])).collect();
            let row_b: Vec<(usize, f64)> = vars.iter().map(|&v| (v, weights_b[v])).collect();
            lp.add_row(RowSense::Le, cap_a, &row_a);
            lp.add_row(RowSense::Le, cap_b, &row_b);

            let r = solve_milp(&lp, &vars, &MilpOptions::default());
            assert_eq!(r.status, MilpStatus::Optimal, "trial {trial}");

            // Exhaustive enumeration.
            let mut best = f64::NEG_INFINITY;
            for mask in 0u32..(1 << nv) {
                let mut wa = 0.0;
                let mut wb = 0.0;
                let mut p = 0.0;
                for v in 0..nv {
                    if mask & (1 << v) != 0 {
                        wa += weights_a[v];
                        wb += weights_b[v];
                        p += profits[v];
                    }
                }
                if wa <= cap_a + 1e-9 && wb <= cap_b + 1e-9 {
                    best = best.max(p);
                }
            }
            assert!(
                (r.objective.unwrap() - best).abs() < 1e-6,
                "trial {trial}: milp {} vs brute force {best}",
                r.objective.unwrap()
            );
        }
    }
}
