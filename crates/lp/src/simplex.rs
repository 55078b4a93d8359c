//! Bounded-variable two-phase revised simplex with a persistent,
//! warm-startable solver.
//!
//! Implementation notes:
//!
//! * [`SimplexSolver`] assembles the CSC matrix (structural + slack +
//!   artificial columns), bounds, scratch buffers, and basis state **once**
//!   and is re-entered via [`SimplexSolver::solve_from`] with fresh bound
//!   overrides — branch & bound calls it thousands of times without
//!   rebuilding anything.
//! * Rows are converted to equalities with slack columns whose bounds encode
//!   the sense (`≤ → s ∈ [0, ∞)`, `≥ → s ∈ (−∞, 0]`, `= → s ∈ [0, 0]`).
//!   One artificial column per row is part of the permanent matrix; it is
//!   pinned to `[0, 0]` except during a cold phase 1, where rows whose slack
//!   start value violates its bounds activate it on the violated side.
//! * The basis inverse has two kernels, chosen once from the row count:
//!   bases of at most [`DENSE_MAX_ROWS`] rows keep `B⁻¹` as a dense
//!   row-major matrix updated in place at each pivot
//!   (`dense::DenseInverse`); larger bases keep a sparse LU
//!   factorisation ([`crate::lu::SparseLu`]) of a reference basis plus a
//!   product-form eta file. Either is rebuilt every `refactor_interval`
//!   pivots, which also recomputes the basic values to wash out drift.
//!   Sparse refactorisation is *partial*: the longest common prefix of the
//!   reference LU's basis and the current basis is reused verbatim through
//!   [`crate::lu::SparseLu::refactorize_from`] (left-looking columns depend
//!   only on earlier columns, so the reuse is bit-for-bit identical to a
//!   from-scratch rebuild; disable with [`SimplexOptions::partial_refactor`]
//!   to ablate).
//! * Warm starts restore a [`BasisSnapshot`] (basis + variable statuses +
//!   the shared factorisation of that basis, when one was kept) and run a
//!   bounded **dual simplex**: the snapshot of an optimal parent stays dual
//!   feasible when only bounds tighten, the leaving row is the largest
//!   bound violation, the entering column comes from a Harris ratio test on
//!   the pivot row, and a row with no eligible column proves the bound
//!   system infeasible. A primal phase 2 then confirms optimality.
//! * Pricing is candidate-list partial pricing with static steepest-edge
//!   scoring (`|d_j| / √(1 + ‖a_j‖²)`): a short list of attractive columns
//!   is re-priced against fresh duals each iteration and refilled by a
//!   rotating section scan once it goes stale; a full rotation with no
//!   candidate proves optimality. A long degenerate stall switches to
//!   Bland's rule (full lowest-index scan), restoring the termination
//!   guarantee.
//! * On the sparse kernel FTRAN tracks the nonzero pattern symbolically
//!   through [`crate::lu::SparseLu::solve_sparse`] and the eta file, so the
//!   ratio test and basic-value updates touch only actual nonzeros. BTRAN
//!   does the same through [`crate::lu::SparseLu::solve_transpose_sparse`]
//!   whenever `c_B` is sparse (in phase 2 of the yield LP it has a single
//!   nonzero), falling back to the dense transpose solve otherwise.
//! * The ratio test performs bound flips for the entering variable when the
//!   opposite bound is reached first, and breaks near-ties by pivot
//!   magnitude for numerical stability.

use crate::dense::{DenseInverse, InverseSlot};
use crate::lu::{SolveScratch, SparseLu};
use crate::problem::{LinearProgram, RowSense};
use crate::sparse::CscMatrix;
use std::rc::Rc;

use std::time::Instant;

/// Bases with at most this many rows use the dense explicit-inverse kernel;
/// larger ones use the sparse LU + eta file.
pub const DENSE_MAX_ROWS: usize = 128;

/// Bytes of dense inverse that the live snapshots of one solver may share.
/// Beyond it the oldest snapshots give up their inverse and restoring one
/// re-inverts; the cap keeps a deep branch & bound stack from holding one
/// `m²` matrix per pending node.
pub const SNAPSHOT_INVERSE_BUDGET: usize = 128 * 1024;

/// Options controlling the simplex method.
#[derive(Clone, Debug)]
pub struct SimplexOptions {
    /// Hard iteration cap; 0 means automatic (`1000 + 40·(m+n)`).
    pub max_iterations: usize,
    /// Pivots between basis refactorisations.
    pub refactor_interval: usize,
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual (reduced-cost) tolerance.
    pub opt_tol: f64,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub stall_threshold: usize,
    /// Reuse the unchanged leading columns of the previous reference LU on
    /// refactorisation (see [`crate::lu::SparseLu::refactorize_from`]).
    /// The produced factorisation is bit-identical either way; turning this
    /// off exists for differential testing and benchmarking only. The
    /// dense kernel ignores it.
    pub partial_refactor: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 0,
            refactor_interval: 96,
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            stall_threshold: 800,
            partial_refactor: true,
        }
    }
}

/// Termination status of an LP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// Optimal solution found.
    Optimal,
    /// No feasible point exists (phase 1 could not reach zero, or the dual
    /// simplex found a row no nonbasic column can repair).
    Infeasible,
    /// Objective unbounded along a feasible ray.
    Unbounded,
    /// Iteration limit hit before convergence.
    IterationLimit,
    /// The solver's wall-clock deadline (see
    /// [`SimplexSolver::set_deadline`]) expired mid-solve.
    TimedOut,
    /// Numerical failure (singular basis after recovery attempts).
    Numerical,
}

/// Result of an LP solve.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Termination status; `objective`/`values` are meaningful for
    /// [`LpStatus::Optimal`] only.
    pub status: LpStatus,
    /// Objective value in the *user's* orientation (max or min).
    pub objective: f64,
    /// Values of the structural variables.
    pub values: Vec<f64>,
    /// Simplex iterations performed (all phases of this solve).
    pub iterations: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum VarStatus {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Nonbasic at value zero — the only consistent resting point for a
    /// variable with two infinite bounds.
    Free,
}

/// An opaque snapshot of a basis (basis columns + every variable's status),
/// taken with [`SimplexSolver::snapshot`] and replayed through
/// [`SimplexSolver::solve_from`] to warm-start a related solve.
#[derive(Clone, Debug)]
pub struct BasisSnapshot {
    status: Vec<VarStatus>,
    basis: Vec<usize>,
    factor: SnapFactor,
}

/// The factorisation a snapshot shares with the solver that took it.
#[derive(Clone, Debug)]
enum SnapFactor {
    /// Basis only: restoring it refactorises.
    None,
    /// The dense inverse (unless its solver evicted it) and its pivot
    /// count since inversion.
    Dense { slot: InverseSlot, updates: usize },
    /// Reference LU plus the eta file on top of it, and the basis the
    /// reference LU factorised (`basis` minus the eta-file pivots) — the
    /// anchor for partial refactorisation after restore.
    Sparse {
        lu: Rc<SparseLu>,
        etas: Rc<Vec<Eta>>,
        lu_basis: Rc<Vec<usize>>,
    },
}

/// Factorisation and triangular-solve telemetry accumulated by a
/// [`SimplexSolver`] since its last [`SimplexSolver::reset_state`] (for a
/// [`crate::MilpSolver`], one branch & bound tree).
///
/// Every counter is observational: reading or resetting it never affects
/// the solve path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FactorStats {
    /// Basis inverse rebuilds (interval refactorisations, snapshot eta
    /// fold-ins, and warm-start restores without a shared factorisation).
    pub refactorisations: u64,
    /// Basis columns factored from scratch across all refactorisations
    /// (on the dense kernel: the structural columns of each inversion).
    pub cols_factored: u64,
    /// Basis columns reused verbatim from the previous reference LU
    /// (sparse partial refactorisation warm reuse).
    pub cols_reused: u64,
    /// Snapshot-triggered eta-file fold-ins (a refactorisation taken
    /// because the eta file grew past the snapshot fold threshold).
    pub eta_folds: u64,
    /// Stored entries of the most recent factorisation (`m²` on the dense
    /// kernel).
    pub fill_nnz: usize,
    /// FTRAN solves (one per simplex pivot attempt).
    pub ftran_solves: u64,
    /// Total nonzeros across all FTRAN results.
    pub ftran_nnz: u64,
    /// Total FTRAN result length (`m` per solve) — denominator for
    /// [`FactorStats::ftran_sparsity`].
    pub ftran_dim: u64,
    /// Dual (BTRAN) solves performed.
    pub btran_solves: u64,
    /// BTRAN solves that took the sparse reachability path.
    pub btran_sparse: u64,
    /// Total nonzeros across sparse-path BTRAN results (the pattern length
    /// the reachability walk reports; the dense path does not count its
    /// output — scanning it would cost more than the telemetry is worth).
    pub btran_nnz: u64,
    /// Total sparse-path BTRAN result length (`m` per sparse solve) —
    /// denominator for [`FactorStats::btran_sparsity`].
    pub btran_dim: u64,
    /// Basis snapshots taken.
    pub snapshots: u64,
    /// Snapshots that had to deep-clone the eta file (the rest reused the
    /// cached `Rc` because no pivot had touched the file in between).
    pub snapshot_eta_clones: u64,
    /// Peak bytes of dense inverse held by this solver's live snapshots;
    /// never above [`SNAPSHOT_INVERSE_BUDGET`] (older snapshots give up
    /// their inverse first).
    pub snapshot_inverse_bytes: u64,
    /// Warm starts that re-inverted because their snapshot carried no
    /// inverse (evicted under the byte budget).
    pub snapshot_reinversions: u64,
    /// Dual simplex pivots of warm starts.
    pub dual_iterations: u64,
    /// Warm starts the dual simplex proved infeasible.
    pub dual_infeasible: u64,
}

impl FactorStats {
    /// Fraction of refactorised basis columns reused from the previous
    /// reference LU (0 when no refactorisation happened).
    pub fn warm_reuse_ratio(&self) -> f64 {
        let total = self.cols_factored + self.cols_reused;
        if total == 0 {
            0.0
        } else {
            self.cols_reused as f64 / total as f64
        }
    }

    /// Mean FTRAN result density `nnz / m` (1.0 = dense).
    pub fn ftran_sparsity(&self) -> f64 {
        if self.ftran_dim == 0 {
            0.0
        } else {
            self.ftran_nnz as f64 / self.ftran_dim as f64
        }
    }

    /// Mean sparse-path BTRAN result density `nnz / m` (1.0 = dense);
    /// 0.0 when no BTRAN took the sparse path.
    pub fn btran_sparsity(&self) -> f64 {
        if self.btran_dim == 0 {
            0.0
        } else {
            self.btran_nnz as f64 / self.btran_dim as f64
        }
    }

    /// Merges another solver's counters into this one (used when a result
    /// aggregates several solver lifetimes).
    pub fn absorb(&mut self, other: &FactorStats) {
        self.refactorisations += other.refactorisations;
        self.cols_factored += other.cols_factored;
        self.cols_reused += other.cols_reused;
        self.eta_folds += other.eta_folds;
        self.fill_nnz = other.fill_nnz.max(self.fill_nnz);
        self.ftran_solves += other.ftran_solves;
        self.ftran_nnz += other.ftran_nnz;
        self.ftran_dim += other.ftran_dim;
        self.btran_solves += other.btran_solves;
        self.btran_sparse += other.btran_sparse;
        self.btran_nnz += other.btran_nnz;
        self.btran_dim += other.btran_dim;
        self.snapshots += other.snapshots;
        self.snapshot_eta_clones += other.snapshot_eta_clones;
        self.snapshot_inverse_bytes = other
            .snapshot_inverse_bytes
            .max(self.snapshot_inverse_bytes);
        self.snapshot_reinversions += other.snapshot_reinversions;
        self.dual_iterations += other.dual_iterations;
        self.dual_infeasible += other.dual_infeasible;
    }
}

#[derive(Clone, Debug)]
struct Eta {
    pos: usize,
    pivot: f64,
    // Entries of the FTRAN column t, excluding the pivot position.
    entries: Vec<(usize, f64)>,
}

/// The basis-inverse kernel of one solver.
enum Factor {
    Dense(DenseInverse),
    Sparse(SparseFactor),
}

/// Sparse LU of a reference basis plus the product-form eta file of the
/// pivots taken since.
struct SparseFactor {
    lu: Option<Rc<SparseLu>>,
    /// The basis the reference LU factorised; shared with snapshots so a
    /// restore re-anchors partial refactorisation without copying.
    lu_basis: Rc<Vec<usize>>,
    scratch: SolveScratch,
    etas: Vec<Eta>,
    /// Cached `Rc` of the eta file handed to the last snapshot; reused by
    /// later snapshots until a pivot or refactorisation touches the file.
    snap_etas: Option<Rc<Vec<Eta>>>,
}

impl SparseFactor {
    fn new() -> SparseFactor {
        SparseFactor {
            lu: None,
            lu_basis: Rc::new(Vec::new()),
            scratch: SolveScratch::default(),
            etas: Vec::new(),
            snap_etas: None,
        }
    }

    fn lu(&self) -> &SparseLu {
        self.lu.as_deref().expect("factorized")
    }

    /// Drops the eta file (a new reference basis or a restore follows).
    fn clear_etas(&mut self) {
        self.etas.clear();
        self.snap_etas = None;
    }
}

impl Factor {
    fn is_valid(&self) -> bool {
        match self {
            Factor::Dense(d) => d.is_valid(),
            Factor::Sparse(s) => s.lu.is_some(),
        }
    }

    /// Pivots applied on top of the last (re)factorisation.
    fn updates(&self) -> usize {
        match self {
            Factor::Dense(d) => d.updates(),
            Factor::Sparse(s) => s.etas.len(),
        }
    }
}

const PIVOT_TOL: f64 = 1e-9;
/// Maximum size of the pricing candidate list.
const CAND_CAP: usize = 16;
/// Minimum columns per pricing section scan.
const SECTION_MIN: usize = 64;
/// A cached candidate list is considered stale once its best score drops
/// below this fraction of the best score at the last refill.
const REFILL_DECAY: f64 = 0.5;
/// Snapshots fold eta files at least this long into a fresh LU; shorter
/// files are cheaper to clone than to refactorise away.
const SNAPSHOT_FOLD_ETAS: usize = 16;
/// The dual solve takes the sparse BTRAN path when `c_B` (after the eta
/// transpose application) touches at most this fraction of the basis.
/// The reachability walk only beats the dense triangular sweeps when the
/// right-hand side is *very* sparse — at these basis sizes (m ≈ 70) the
/// transpose reach closure of even a handful of entries covers most of the
/// matrix, so the threshold is deliberately strict.
const BTRAN_SPARSE_FRACTION: usize = 32;
/// FTRAN entries at or below this magnitude are dropped as roundoff.
const DROP_TOL: f64 = 1e-12;
/// The iteration loop polls the wall-clock deadline whenever
/// `iterations & DEADLINE_CHECK_MASK == 0` — every 64th iteration, keeping
/// the `Instant::now` syscall off the per-pivot hot path.
pub const DEADLINE_CHECK_MASK: usize = 63;

/// Outcome of a warm start's dual simplex.
enum Warm {
    /// Primal feasible (and dual feasible up to tolerances): finish with
    /// primal phase 2.
    Feasible,
    /// The dual simplex *proved* the bound system infeasible.
    Infeasible,
    /// The snapshot could not be used (shape mismatch, singular restore,
    /// numerical trouble, or a stalled dual); solve cold.
    Fallback,
    /// The deadline expired.
    TimedOut,
}

/// A persistent bounded-variable simplex solver for one [`LinearProgram`].
///
/// Construction assembles the constraint matrix (structural, slack, and
/// artificial columns), cost vectors, and all scratch buffers. Each call to
/// [`SimplexSolver::solve_from`] then solves the model under fresh
/// per-variable bound overrides, optionally warm-starting from a
/// [`BasisSnapshot`] of an earlier, related solve — the access pattern of
/// branch & bound, where successive node LPs differ in a single bound.
pub struct SimplexSolver {
    m: usize,
    n_struct: usize,
    /// +1 for minimisation, −1 for maximisation (costs are pre-multiplied).
    sign: f64,
    a: CscMatrix, // structural + slack + artificial columns
    slack_lower: Vec<f64>,
    slack_upper: Vec<f64>,
    lower: Vec<f64>, // working bounds
    upper: Vec<f64>,
    cost: Vec<f64>, // phase-dependent
    real_cost: Vec<f64>,
    status: Vec<VarStatus>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    rhs: Vec<f64>,
    factor: Factor,
    opts: SimplexOptions,
    // scratch
    dense_a: Vec<f64>,
    dense_b: Vec<f64>,
    y: Vec<f64>,
    /// Positions of `y` written by the last sparse BTRAN (`y_dense` false).
    y_pattern: Vec<usize>,
    /// Whether the last BTRAN overwrote all of `y` via the dense path.
    y_dense: bool,
    /// BTRAN right-hand side c_B; all-zero between calls.
    du: Vec<f64>,
    du_pattern: Vec<usize>,
    du_mark: Vec<bool>,
    fb: Vec<f64>, // FTRAN right-hand side; all-zero between calls
    t: Vec<f64>,  // FTRAN result; zero outside t_pattern between pivots
    t_pattern: Vec<usize>,
    t_mark: Vec<bool>,
    /// Dual simplex pivot row of `B⁻¹`.
    rho: Vec<f64>,
    /// Dual ratio-test candidates: (column, pivot-row entry, |d_j|).
    dual_cand: Vec<(usize, f64, f64)>,
    // pricing
    cand: Vec<usize>,
    scan_cursor: usize,
    /// Static steepest-edge weights: `√(1 + ‖a_j‖²)` per column.
    col_norm: Vec<f64>,
    /// Best candidate score at the last refill, decayed: when the cached
    /// list's best falls below this, the list is stale and is refilled.
    refill_floor: f64,
    // per-solve state
    iterations: usize,
    degenerate_streak: usize,
    bland: bool,
    /// Wall-clock cutoff checked periodically in the iteration loop.
    deadline: Option<Instant>,
    stats: FactorStats,
}

/// Solves `lp` with the given structural-variable bounds (callers may
/// override the model's own bounds, which branch & bound relies on).
///
/// One-shot convenience over [`SimplexSolver`]; repeated related solves
/// should construct the solver once and call
/// [`SimplexSolver::solve_from`].
pub fn solve_simplex(
    lp: &LinearProgram,
    lower: &[f64],
    upper: &[f64],
    opts: &SimplexOptions,
) -> LpSolution {
    SimplexSolver::new(lp, opts.clone()).solve_from(None, lower, upper)
}

impl SimplexSolver {
    /// Assembles the solver state for `lp`: CSC matrix with slack and
    /// artificial columns, cost vectors, and scratch buffers. The basis
    /// kernel is dense for at most [`DENSE_MAX_ROWS`] rows, sparse above.
    pub fn new(lp: &LinearProgram, opts: SimplexOptions) -> SimplexSolver {
        Self::with_kernel(lp, opts, lp.num_rows() <= DENSE_MAX_ROWS)
    }

    /// [`SimplexSolver::new`] with the kernel chosen explicitly, for
    /// differential tests of one kernel against the other.
    pub(crate) fn with_kernel(lp: &LinearProgram, opts: SimplexOptions, dense: bool) -> Self {
        let m = lp.num_rows();
        let n = lp.num_vars();
        let sign = if lp.is_maximize() { -1.0 } else { 1.0 };
        let n_total = n + 2 * m;

        let mut a = CscMatrix::new(m);
        let mut real_cost = Vec::with_capacity(n_total);
        for j in 0..n {
            a.push_column(&lp.cols[j]);
            real_cost.push(sign * lp.obj[j]);
        }
        let mut slack_lower = Vec::with_capacity(m);
        let mut slack_upper = Vec::with_capacity(m);
        for i in 0..m {
            a.push_column(&[(i, 1.0)]);
            let (lo, hi) = match lp.sense[i] {
                RowSense::Le => (0.0, f64::INFINITY),
                RowSense::Ge => (f64::NEG_INFINITY, 0.0),
                RowSense::Eq => (0.0, 0.0),
            };
            slack_lower.push(lo);
            slack_upper.push(hi);
            real_cost.push(0.0);
        }
        // Artificial columns are permanent; solve_from pins them to [0, 0]
        // and cold starts open the violated side for phase 1.
        for i in 0..m {
            a.push_column(&[(i, 1.0)]);
            real_cost.push(0.0);
        }
        debug_assert_eq!(a.ncols(), n_total);
        let col_norm = (0..n_total)
            .map(|j| {
                let (_, vals) = a.col(j);
                (1.0 + vals.iter().map(|v| v * v).sum::<f64>()).sqrt()
            })
            .collect();

        SimplexSolver {
            m,
            n_struct: n,
            sign,
            a,
            slack_lower,
            slack_upper,
            lower: vec![0.0; n_total],
            upper: vec![0.0; n_total],
            cost: vec![0.0; n_total],
            real_cost,
            status: vec![VarStatus::AtLower; n_total],
            basis: vec![0; m],
            xb: vec![0.0; m],
            rhs: lp.rhs.clone(),
            factor: if dense {
                Factor::Dense(DenseInverse::new(m))
            } else {
                Factor::Sparse(SparseFactor::new())
            },
            opts,
            dense_a: vec![0.0; m],
            dense_b: vec![0.0; m],
            y: vec![0.0; m],
            y_pattern: Vec::new(),
            y_dense: false,
            du: vec![0.0; m],
            du_pattern: Vec::new(),
            du_mark: vec![false; m],
            fb: vec![0.0; m],
            t: vec![0.0; m],
            t_pattern: Vec::new(),
            t_mark: vec![false; m],
            rho: vec![0.0; m],
            dual_cand: Vec::new(),
            cand: Vec::new(),
            scan_cursor: 0,
            col_norm,
            refill_floor: 0.0,
            iterations: 0,
            degenerate_streak: 0,
            bland: false,
            deadline: None,
            stats: FactorStats::default(),
        }
    }

    /// Factorisation and triangular-solve telemetry accumulated since the
    /// last [`SimplexSolver::reset_state`].
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Pivot rows of the current reference LU, or `None` before the first
    /// factorisation and on the dense kernel. Differential suites compare
    /// this across solvers to certify that partial and full
    /// refactorisation produce the same pivot sequence.
    pub fn lu_pivot_rows(&self) -> Option<&[usize]> {
        match &self.factor {
            Factor::Sparse(s) => s.lu.as_deref().map(SparseLu::pivot_rows),
            Factor::Dense(_) => None,
        }
    }

    /// Whether this solver runs the dense explicit-inverse kernel.
    pub fn is_dense(&self) -> bool {
        matches!(self.factor, Factor::Dense(_))
    }

    /// The options this solver was built with.
    pub fn options(&self) -> &SimplexOptions {
        &self.opts
    }

    /// Sets (or clears) a wall-clock deadline. The iteration loop checks it
    /// every [`DEADLINE_CHECK_MASK`]+1 iterations and aborts the solve with
    /// [`LpStatus::TimedOut`] once it has passed; the deadline persists
    /// across [`SimplexSolver::solve_from`] calls until cleared, which lets
    /// branch & bound install one deadline for a whole tree.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Returns the solver to its just-constructed state: basis, variable
    /// statuses, factorisation, pricing caches and FTRAN scratch are all
    /// reset, while the assembled matrix, column norms and buffer
    /// allocations are retained.
    ///
    /// Two jobs: (1) a persistent solver that is reset before each root
    /// solve replays **bit-identically** to a freshly built one — the
    /// surviving pricing state could otherwise steer degenerate pivots
    /// down a different (equally optimal) path; (2) a solve aborted
    /// mid-pivot by the deadline can leave the FTRAN scratch violating
    /// its between-solve invariants, which the reset re-establishes.
    pub fn reset_state(&mut self) {
        self.status.fill(VarStatus::AtLower);
        self.basis.fill(0);
        self.xb.fill(0.0);
        match &mut self.factor {
            Factor::Dense(d) => d.clear(),
            Factor::Sparse(s) => {
                s.lu = None;
                s.lu_basis = Rc::new(Vec::new());
                s.clear_etas();
            }
        }
        self.dense_a.fill(0.0);
        self.dense_b.fill(0.0);
        self.y.fill(0.0);
        self.y_pattern.clear();
        self.y_dense = false;
        self.du.fill(0.0);
        self.du_pattern.clear();
        self.du_mark.fill(false);
        self.fb.fill(0.0);
        self.t.fill(0.0);
        self.t_pattern.clear();
        self.t_mark.fill(false);
        self.cand.clear();
        self.scan_cursor = 0;
        self.refill_floor = 0.0;
        self.iterations = 0;
        self.degenerate_streak = 0;
        self.bland = false;
        self.stats = FactorStats::default();
    }

    /// Captures the current basis and variable statuses for warm-starting a
    /// later, related solve. Meaningful after a [`LpStatus::Optimal`] solve.
    ///
    /// The snapshot carries the current factorisation so warm starts from
    /// it need not refactorise. On the sparse kernel that is the reference
    /// LU plus the eta file (a long eta file is folded into a fresh LU
    /// first — cloning it would cost more than the factorisation it
    /// saves). On the dense kernel the inverse is shared copy-on-write,
    /// and the solver's live snapshots hold at most
    /// [`SNAPSHOT_INVERSE_BUDGET`] bytes of inverse: a new snapshot takes
    /// the inverse from the oldest ones, which keep their basis alone.
    pub fn snapshot(&mut self) -> BasisSnapshot {
        if self.factor.is_valid()
            && matches!(self.factor, Factor::Sparse(_))
            && self.factor.updates() >= SNAPSHOT_FOLD_ETAS
        {
            self.stats.eta_folds += 1;
            if self.refactorize().is_err() {
                // Defensive: the snapshot degrades to basis-only.
                if let Factor::Sparse(s) = &mut self.factor {
                    s.lu = None;
                }
            }
        }
        self.stats.snapshots += 1;
        let factor = match &mut self.factor {
            Factor::Dense(d) => {
                let (inv, held) = d.share(SNAPSHOT_INVERSE_BUDGET);
                self.stats.snapshot_inverse_bytes =
                    self.stats.snapshot_inverse_bytes.max(held as u64);
                match inv {
                    Some(slot) => SnapFactor::Dense {
                        slot,
                        updates: d.updates(),
                    },
                    None => SnapFactor::None,
                }
            }
            Factor::Sparse(s) => match &s.lu {
                None => SnapFactor::None,
                Some(lu) => {
                    // Branch & bound snapshots the same state once per
                    // branched node (both children share it) and often
                    // re-snapshots an unchanged solver; clone the eta file
                    // only when it actually changed.
                    let etas = match &s.snap_etas {
                        Some(rc) => rc.clone(),
                        None => {
                            self.stats.snapshot_eta_clones += 1;
                            let rc = Rc::new(s.etas.clone());
                            s.snap_etas = Some(rc.clone());
                            rc
                        }
                    };
                    SnapFactor::Sparse {
                        lu: lu.clone(),
                        etas,
                        lu_basis: s.lu_basis.clone(),
                    }
                }
            },
        };
        BasisSnapshot {
            status: self.status.clone(),
            basis: self.basis.clone(),
            factor,
        }
    }

    /// Solves the model under the given structural-variable bounds,
    /// warm-starting from `warm` when provided. Falls back to a cold
    /// two-phase solve whenever the snapshot cannot be used, so the result
    /// is identical (status and objective) to a cold solve either way.
    pub fn solve_from(
        &mut self,
        warm: Option<&BasisSnapshot>,
        lower: &[f64],
        upper: &[f64],
    ) -> LpSolution {
        assert_eq!(lower.len(), self.n_struct);
        assert_eq!(upper.len(), self.n_struct);
        self.iterations = 0;
        self.bland = false;
        self.degenerate_streak = 0;
        // The candidate list deliberately survives across solves: its
        // entries are just column indices, re-priced before use, and the
        // same columns tend to stay attractive across branch & bound nodes.
        self.refill_floor = 0.0;

        for j in 0..self.n_struct {
            if lower[j] > upper[j] {
                return LpSolution {
                    status: LpStatus::Infeasible,
                    objective: 0.0,
                    values: Vec::new(),
                    iterations: 0,
                };
            }
        }
        if self.m == 0 {
            return self.solve_boxed(lower, upper);
        }

        // Install the working bounds: caller's structural box, sense-derived
        // slack bounds, artificials pinned to zero. Note whether a nonbasic
        // variable's bounds moved: if none did, the basic values the solver
        // holds still solve the current basis exactly.
        let mut nonbasic_moved = false;
        for j in 0..self.n_total() {
            let (lo, hi) = if j < self.n_struct {
                (lower[j], upper[j])
            } else if j < self.n_struct + self.m {
                let i = j - self.n_struct;
                (self.slack_lower[i], self.slack_upper[i])
            } else {
                (0.0, 0.0)
            };
            if !matches!(self.status[j], VarStatus::Basic(_))
                && (lo != self.lower[j] || hi != self.upper[j])
            {
                nonbasic_moved = true;
            }
            self.lower[j] = lo;
            self.upper[j] = hi;
        }

        let status = match warm {
            Some(snap) => match self.try_warm(snap, nonbasic_moved) {
                Warm::Feasible => self.phase2(),
                Warm::Infeasible => LpStatus::Infeasible,
                Warm::TimedOut => LpStatus::TimedOut,
                Warm::Fallback => self.cold_solve(),
            },
            None => self.cold_solve(),
        };

        let mut objective = 0.0;
        let mut values = vec![0.0; self.n_struct];
        if status == LpStatus::Optimal {
            for j in 0..self.n_struct {
                let v = self.value_of(j);
                values[j] = v;
                objective += self.real_cost[j] * v;
            }
            objective *= self.sign;
        }
        LpSolution {
            status,
            objective,
            values,
            iterations: self.iterations,
        }
    }

    /// Row-free model: each variable rests at its best finite bound.
    fn solve_boxed(&self, lower: &[f64], upper: &[f64]) -> LpSolution {
        let n = self.n_struct;
        let mut values = vec![0.0; n];
        let mut obj = 0.0;
        for j in 0..n {
            let c = self.real_cost[j];
            let v = if c > 0.0 {
                lower[j]
            } else if c < 0.0 {
                upper[j]
            } else {
                lower[j].max(upper[j].min(0.0))
            };
            if !v.is_finite() {
                return LpSolution {
                    status: LpStatus::Unbounded,
                    objective: 0.0,
                    values: Vec::new(),
                    iterations: 0,
                };
            }
            values[j] = v;
            obj += c * v;
        }
        LpSolution {
            status: LpStatus::Optimal,
            objective: self.sign * obj,
            values,
            iterations: 0,
        }
    }

    /// Normalises a snapshot status against the current working bounds:
    /// nonbasic variables must rest on a finite bound (or at zero when both
    /// bounds are infinite).
    fn normalize_status(&self, j: usize, s: VarStatus) -> VarStatus {
        match s {
            s @ VarStatus::Basic(_) => s,
            VarStatus::AtLower if !self.lower[j].is_finite() => {
                if self.upper[j].is_finite() {
                    VarStatus::AtUpper
                } else {
                    VarStatus::Free
                }
            }
            VarStatus::AtUpper if !self.upper[j].is_finite() => {
                if self.lower[j].is_finite() {
                    VarStatus::AtLower
                } else {
                    VarStatus::Free
                }
            }
            VarStatus::Free if self.lower[j].is_finite() || self.upper[j].is_finite() => {
                initial_bound_status(self.lower[j], self.upper[j])
            }
            s => s,
        }
    }

    /// Restores a snapshot under the current working bounds and runs the
    /// dual simplex from it. `nonbasic_moved` says whether installing the
    /// current bounds moved a nonbasic variable of the basis the solver
    /// held.
    fn try_warm(&mut self, snap: &BasisSnapshot, nonbasic_moved: bool) -> Warm {
        let n_total = self.n_total();
        if snap.status.len() != n_total || snap.basis.len() != self.m {
            return Warm::Fallback;
        }
        // Depth-first search usually solves a child immediately after its
        // parent, so the solver often still *holds* the snapshot's basis —
        // with a valid factorisation. Detect that and skip the restore:
        // only the basic values may need recomputing under the new bounds,
        // and not even those when the branching variable is basic.
        let same_basis = self.factor.is_valid()
            && self.basis == snap.basis
            && (0..n_total).all(|j| self.status[j] == self.normalize_status(j, snap.status[j]));
        if same_basis {
            if nonbasic_moved {
                self.recompute_xb();
            }
        } else {
            self.basis.copy_from_slice(&snap.basis);
            for j in 0..n_total {
                self.status[j] = self.normalize_status(j, snap.status[j]);
            }
            match (&mut self.factor, &snap.factor) {
                (Factor::Dense(d), SnapFactor::Dense { slot, updates })
                    if slot.borrow().is_some() =>
                {
                    d.restore(slot.borrow().as_ref().expect("kept"), *updates);
                    self.recompute_xb();
                }
                (Factor::Sparse(s), SnapFactor::Sparse { lu, etas, lu_basis }) => {
                    // The snapshot carries the factorisation of exactly
                    // this basis: reference LU plus the eta file on top.
                    s.lu = Some(lu.clone());
                    s.lu_basis = lu_basis.clone();
                    s.etas.clone_from(etas);
                    // The eta file now equals the snapshot's Rc verbatim; a
                    // snapshot taken before the next pivot can reuse it.
                    s.snap_etas = Some(etas.clone());
                    self.recompute_xb();
                }
                (factor, _) => {
                    if let Factor::Sparse(s) = factor {
                        s.clear_etas();
                    } else {
                        self.stats.snapshot_reinversions += 1;
                    }
                    if self.refactorize().is_err() {
                        return Warm::Fallback;
                    }
                }
            }
        }
        self.dual_simplex()
    }

    /// Bounded dual simplex from the restored basis under the current
    /// bounds.
    ///
    /// Each iteration picks the basic variable with the largest bound
    /// violation as the leaving row `r` and computes its pivot row
    /// `α_j = (e_rᵀB⁻¹)·a_j`. Moving a nonbasic `x_j` by `Δ` moves `x_B[r]`
    /// by `−α_j·Δ`, so the eligible columns are those whose free direction
    /// pushes `x_B[r]` toward its violated bound; among them a Harris
    /// two-pass ratio test on `|d_j| / |α_j|` keeps every reduced cost
    /// within tolerance of its sign while preferring large pivots. The
    /// leaving variable lands exactly on its violated bound.
    ///
    /// A row with no eligible column proves infeasibility: every nonbasic
    /// variable already sits at the bound that moves `x_B[r]` furthest
    /// toward feasibility, and it still falls short. That argument is
    /// primal and holds whether or not the start was dual feasible;
    /// dual feasibility only guarantees progress, and a dual that stalls
    /// past its iteration cap falls back to a cold solve.
    fn dual_simplex(&mut self) -> Warm {
        let m = self.m;
        let tol = self.opts.feas_tol;
        let opt_tol = self.opts.opt_tol;
        let cap = self.iterations + 50 + m + self.n_struct;
        self.cost.copy_from_slice(&self.real_cost);
        loop {
            // Leaving row: the largest bound violation.
            let mut leave: Option<(usize, bool)> = None;
            let mut worst = tol;
            for p in 0..m {
                let j = self.basis[p];
                let x = self.xb[p];
                let (viol, to_upper) = if x < self.lower[j] {
                    (self.lower[j] - x, false)
                } else if x > self.upper[j] {
                    (x - self.upper[j], true)
                } else {
                    continue;
                };
                if viol > worst {
                    worst = viol;
                    leave = Some((p, to_upper));
                }
            }
            let Some((r, to_upper)) = leave else {
                return Warm::Feasible;
            };
            if self.iterations >= cap {
                return Warm::Fallback;
            }
            if self.iterations & DEADLINE_CHECK_MASK == 0 {
                if let Some(d) = self.deadline {
                    if Instant::now() >= d {
                        return Warm::TimedOut;
                    }
                }
            }
            self.iterations += 1;
            self.stats.dual_iterations += 1;

            self.compute_duals();
            self.load_dual_row(r);
            // x_B[r] above its upper bound must decrease: a column helps
            // when its free direction has sign(Δ)·α_j > 0 (for sgn = +1),
            // and the mirror image below the lower bound.
            let sgn = if to_upper { 1.0 } else { -1.0 };
            self.dual_cand.clear();
            // Largest possible x_B[r] movement through columns whose pivot
            // entry is too small to pivot on.
            let mut tiny_reach = 0.0;
            // Structural columns take a dot product; a slack column's entry
            // is the matching entry of ρ. Artificial columns stay pinned at
            // zero outside a cold phase 1 and never enter.
            for j in 0..self.n_struct + m {
                let st = self.status[j];
                let range = self.upper[j] - self.lower[j];
                let helps_up = match st {
                    VarStatus::Basic(_) => continue,
                    VarStatus::AtLower | VarStatus::AtUpper if range <= 0.0 => continue,
                    VarStatus::AtLower => Some(true),
                    VarStatus::AtUpper => Some(false),
                    VarStatus::Free => None,
                };
                let alpha = if j < self.n_struct {
                    self.a.col_dot(j, &self.rho)
                } else {
                    self.rho[j - self.n_struct]
                };
                if alpha.abs() <= DROP_TOL {
                    continue; // roundoff, not a pivot-row entry
                }
                let eligible = match helps_up {
                    Some(true) => sgn * alpha > 0.0,
                    Some(false) => sgn * alpha < 0.0,
                    None => true,
                };
                if !eligible {
                    continue;
                }
                if alpha.abs() < PIVOT_TOL {
                    tiny_reach += alpha.abs() * range;
                    continue;
                }
                let d = self.reduced_cost(j);
                let dabs = match helps_up {
                    Some(true) => d.max(0.0),
                    Some(false) => (-d).max(0.0),
                    None => d.abs(),
                };
                self.dual_cand.push((j, alpha, dabs));
            }
            if self.dual_cand.is_empty() {
                if tiny_reach >= worst - tol {
                    return Warm::Fallback; // too close to call
                }
                self.stats.dual_infeasible += 1;
                return Warm::Infeasible;
            }
            // Harris pass 1: the largest step that keeps every reduced cost
            // within tolerance; pass 2: the largest pivot within it.
            let mut bound = f64::INFINITY;
            for &(_, alpha, dabs) in &self.dual_cand {
                bound = bound.min((dabs + opt_tol) / alpha.abs());
            }
            let mut q = usize::MAX;
            let mut best_abs = 0.0;
            for &(j, alpha, dabs) in &self.dual_cand {
                if dabs / alpha.abs() <= bound && alpha.abs() > best_abs {
                    best_abs = alpha.abs();
                    q = j;
                }
            }

            self.ftran(q);
            let tr = self.t[r];
            if tr.abs() < PIVOT_TOL {
                return Warm::Fallback;
            }
            let leaving = self.basis[r];
            let target = if to_upper {
                self.upper[leaving]
            } else {
                self.lower[leaving]
            };
            let delta = (self.xb[r] - target) / tr;
            let xq_new = nonbasic_value(self.lower[q], self.upper[q], self.status[q]) + delta;
            for &p in &self.t_pattern {
                self.xb[p] -= delta * self.t[p];
            }
            self.status[leaving] = if to_upper {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            self.basis[r] = q;
            self.status[q] = VarStatus::Basic(r);
            self.xb[r] = xq_new;
            if self.record_pivot(r).is_err() {
                return Warm::Fallback;
            }
        }
    }

    /// Cold start: crash basis from slacks, artificials on violated rows,
    /// phase 1 if needed, then phase 2.
    fn cold_solve(&mut self) -> LpStatus {
        let n = self.n_struct;
        let m = self.m;
        for j in 0..n {
            self.status[j] = initial_bound_status(self.lower[j], self.upper[j]);
        }
        // Row activity with nonbasic structural values.
        for i in 0..m {
            self.dense_b[i] = 0.0;
        }
        for j in 0..n {
            let v = nonbasic_value(self.lower[j], self.upper[j], self.status[j]);
            if v != 0.0 {
                self.a.col_axpy(j, v, &mut self.dense_b);
            }
        }
        let mut any_artificial = false;
        for i in 0..m {
            let sj = n + i;
            let aj = n + m + i;
            self.lower[aj] = 0.0;
            self.upper[aj] = 0.0;
            self.status[aj] = VarStatus::AtLower;
            let want = self.rhs[i] - self.dense_b[i];
            if want >= self.lower[sj] - self.opts.feas_tol
                && want <= self.upper[sj] + self.opts.feas_tol
            {
                self.status[sj] = VarStatus::Basic(i);
                self.basis[i] = sj;
                self.xb[i] = want;
            } else {
                // Slack pinned to its nearest bound; the artificial opens on
                // the violated side and covers the rest.
                let pinned = want.clamp(self.lower[sj], self.upper[sj]);
                self.status[sj] = if self.lower[sj].is_finite() && pinned == self.lower[sj] {
                    VarStatus::AtLower
                } else {
                    VarStatus::AtUpper
                };
                let residual = want - pinned;
                if residual >= 0.0 {
                    self.upper[aj] = f64::INFINITY;
                } else {
                    self.lower[aj] = f64::NEG_INFINITY;
                }
                self.status[aj] = VarStatus::Basic(i);
                self.basis[i] = aj;
                self.xb[i] = residual;
                any_artificial = true;
            }
        }
        if let Factor::Sparse(s) = &mut self.factor {
            s.clear_etas();
        }
        if self.refactorize().is_err() {
            return LpStatus::Numerical;
        }

        // Phase 1: minimise Σ |artificials| (signs folded into unit costs).
        if any_artificial {
            for j in 0..self.n_total() {
                self.cost[j] = 0.0;
            }
            for i in 0..m {
                let aj = n + m + i;
                if self.upper[aj] == f64::INFINITY {
                    self.cost[aj] = 1.0;
                } else if self.lower[aj] == f64::NEG_INFINITY {
                    self.cost[aj] = -1.0;
                }
            }
            self.bland = false;
            self.degenerate_streak = 0;
            self.refill_floor = 0.0;
            if let Err(st) = self.optimize() {
                return st;
            }
            let infeas: f64 = (n + m..self.n_total())
                .map(|j| self.value_of(j).abs())
                .sum();
            if infeas > self.opts.feas_tol * 10.0 * (1.0 + m as f64).sqrt() {
                return LpStatus::Infeasible;
            }
            // Pin artificials at zero for phase 2.
            for i in 0..m {
                let aj = n + m + i;
                self.lower[aj] = 0.0;
                self.upper[aj] = 0.0;
                if !matches!(self.status[aj], VarStatus::Basic(_)) {
                    self.status[aj] = VarStatus::AtLower;
                }
            }
        }
        self.phase2()
    }

    /// Phase 2: the real objective from the current (feasible) basis.
    fn phase2(&mut self) -> LpStatus {
        self.cost.copy_from_slice(&self.real_cost);
        self.bland = false;
        self.degenerate_streak = 0;
        self.refill_floor = 0.0;
        match self.optimize() {
            Ok(()) => LpStatus::Optimal,
            Err(st) => st,
        }
    }

    #[inline]
    fn n_total(&self) -> usize {
        self.a.ncols()
    }

    fn value_of(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::Basic(p) => self.xb[p],
            s => nonbasic_value(self.lower[j], self.upper[j], s),
        }
    }

    fn max_iterations(&self) -> usize {
        if self.opts.max_iterations > 0 {
            self.opts.max_iterations
        } else {
            1000 + 40 * (self.m + self.n_total())
        }
    }

    /// Runs primal iterations until optimality for the current cost vector.
    fn optimize(&mut self) -> Result<(), LpStatus> {
        let max_iters = self.max_iterations();
        loop {
            if self.iterations >= max_iters {
                return Err(LpStatus::IterationLimit);
            }
            if self.iterations & DEADLINE_CHECK_MASK == 0 {
                if let Some(d) = self.deadline {
                    if Instant::now() >= d {
                        return Err(LpStatus::TimedOut);
                    }
                }
            }
            self.iterations += 1;

            self.compute_duals();
            let entering = self.price();
            let Some((q, dir)) = entering else {
                return Ok(()); // optimal for current costs
            };
            self.ftran(q);

            match self.ratio_test(q, dir) {
                RatioOutcome::Unbounded => return Err(LpStatus::Unbounded),
                RatioOutcome::BoundFlip(step) => {
                    // Entering variable jumps to its opposite bound.
                    let delta = dir * step;
                    for &p in &self.t_pattern {
                        self.xb[p] -= delta * self.t[p];
                    }
                    self.status[q] = match self.status[q] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        b => b,
                    };
                    self.note_degenerate(step <= self.opts.feas_tol);
                }
                RatioOutcome::Pivot {
                    pos,
                    step,
                    to_upper,
                } => {
                    let delta = dir * step;
                    let xq_new =
                        nonbasic_value(self.lower[q], self.upper[q], self.status[q]) + delta;
                    for &p in &self.t_pattern {
                        self.xb[p] -= delta * self.t[p];
                    }
                    let leaving = self.basis[pos];
                    self.status[leaving] = if to_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.basis[pos] = q;
                    self.status[q] = VarStatus::Basic(pos);
                    self.xb[pos] = xq_new;
                    self.note_degenerate(step <= self.opts.feas_tol);
                    self.record_pivot(pos).map_err(|_| LpStatus::Numerical)?;
                }
            }
        }
    }

    /// Folds the pivot at basis position `pos` (entering column in `t`)
    /// into the basis inverse, refactorising once `refactor_interval`
    /// pivots have accumulated.
    fn record_pivot(&mut self, pos: usize) -> Result<(), ()> {
        match &mut self.factor {
            Factor::Dense(d) => d.update(pos, &self.t, &self.t_pattern),
            Factor::Sparse(s) => {
                let mut entries = Vec::with_capacity(self.t_pattern.len());
                for &p in &self.t_pattern {
                    if p != pos && self.t[p] != 0.0 {
                        entries.push((p, self.t[p]));
                    }
                }
                s.etas.push(Eta {
                    pos,
                    pivot: self.t[pos],
                    entries,
                });
                s.snap_etas = None;
            }
        }
        if self.factor.updates() >= self.opts.refactor_interval {
            self.refactorize()?;
        }
        Ok(())
    }

    fn note_degenerate(&mut self, degenerate: bool) {
        if degenerate {
            self.degenerate_streak += 1;
            if self.degenerate_streak > self.opts.stall_threshold {
                self.bland = true;
            }
        } else {
            self.degenerate_streak = 0;
            self.bland = false;
        }
    }

    /// y = Bᵀ⁻¹ c_B.
    ///
    /// `c_B` is assembled sparsely (in phase 2 of the yield LP the
    /// objective has a single nonzero). The dense kernel combines the rows
    /// of `B⁻¹` it selects. The sparse kernel pattern-tracks the eta
    /// transpose application — each eta changes only its own position, so
    /// the pattern grows by at most one per eta — and takes the
    /// reachability-walk transpose path when the resulting right-hand side
    /// stays sparse; either way `y` holds the dense-valued duals afterwards
    /// (zeros everywhere the solution is zero).
    fn compute_duals(&mut self) {
        let m = self.m;
        self.stats.btran_solves += 1;
        self.du_pattern.clear();
        for p in 0..m {
            let c = self.cost[self.basis[p]];
            if c != 0.0 {
                self.du[p] = c;
                self.du_pattern.push(p);
            }
        }
        let s = match &mut self.factor {
            Factor::Dense(d) => {
                d.btran(&self.du, &self.du_pattern, &mut self.y);
                self.y_dense = true;
                for &p in &self.du_pattern {
                    self.du[p] = 0.0;
                }
                return;
            }
            Factor::Sparse(s) => s,
        };
        let du = &mut self.du;
        let du_mark = &mut self.du_mark;
        let du_pattern = &mut self.du_pattern;
        for &p in du_pattern.iter() {
            du_mark[p] = true;
        }
        for eta in s.etas.iter().rev() {
            // uᵀ ← uᵀ E⁻¹: only component `pos` changes.
            let mut dot = 0.0;
            for &(p, v) in &eta.entries {
                dot += v * du[p];
            }
            du[eta.pos] = (du[eta.pos] - dot) / eta.pivot;
            if !du_mark[eta.pos] {
                du_mark[eta.pos] = true;
                du_pattern.push(eta.pos);
            }
        }

        // Clear the previous duals down to the zero invariant.
        if self.y_dense {
            self.y.fill(0.0);
        } else {
            for &r in &self.y_pattern {
                self.y[r] = 0.0;
            }
        }
        self.y_pattern.clear();
        let lu = s.lu.as_deref().expect("factorized");
        if self.du_pattern.len() * BTRAN_SPARSE_FRACTION <= m {
            lu.solve_transpose_sparse(
                &mut self.du,
                &self.du_pattern,
                &mut self.y,
                &mut self.y_pattern,
                &mut s.scratch,
            );
            self.y_dense = false;
            self.stats.btran_sparse += 1;
            self.stats.btran_nnz += self.y_pattern.len() as u64;
            self.stats.btran_dim += m as u64;
        } else {
            lu.solve_transpose(&mut self.du, &mut self.y);
            self.y_dense = true;
            // The dense solve consumed `du` as scratch: restore it.
            self.du.fill(0.0);
        }
        for &p in &self.du_pattern {
            self.du_mark[p] = false;
        }
    }

    /// `rho = e_rᵀ B⁻¹`, the dual simplex pivot row of basis position `r`.
    fn load_dual_row(&mut self, r: usize) {
        match &self.factor {
            Factor::Dense(d) => self.rho.copy_from_slice(d.row(r)),
            Factor::Sparse(s) => {
                let du = &mut self.du;
                du[r] = 1.0;
                for eta in s.etas.iter().rev() {
                    let mut dot = 0.0;
                    for &(p, v) in &eta.entries {
                        dot += v * du[p];
                    }
                    du[eta.pos] = (du[eta.pos] - dot) / eta.pivot;
                }
                s.lu().solve_transpose(du, &mut self.rho);
                du.fill(0.0);
            }
        }
    }

    /// Entering eligibility of column `j` against the current duals:
    /// `(direction, |d_j|)` where direction +1 increases from the resting
    /// point and −1 decreases. Callers normalise the reduced-cost magnitude
    /// by the static steepest-edge weight, which picks markedly better
    /// pivots than raw Dantzig scoring.
    fn eligibility(&self, j: usize) -> Option<(f64, f64)> {
        let tol = self.opts.opt_tol;
        match self.status[j] {
            VarStatus::Basic(_) => None,
            VarStatus::AtLower | VarStatus::AtUpper if self.upper[j] - self.lower[j] <= 0.0 => {
                None // fixed
            }
            VarStatus::AtLower => {
                let d = self.reduced_cost(j);
                (d < -tol).then_some((1.0, -d))
            }
            VarStatus::AtUpper => {
                let d = self.reduced_cost(j);
                (d > tol).then_some((-1.0, d))
            }
            VarStatus::Free => {
                let d = self.reduced_cost(j);
                if d < -tol {
                    Some((1.0, -d))
                } else if d > tol {
                    Some((-1.0, d))
                } else {
                    None
                }
            }
        }
    }

    /// Prices the contiguous column run `lo..hi`, appending eligible
    /// entries as `(column, direction, score)`. This loop sees every column
    /// of the problem once per refill and most are rejected.
    fn scan_run(&self, lo: usize, hi: usize, found: &mut Vec<(usize, f64, f64)>) {
        for j in lo..hi {
            if let Some((dir, absd)) = self.eligibility(j) {
                found.push((j, dir, absd / self.col_norm[j]));
            }
        }
    }

    /// Chooses the entering variable by candidate-list partial pricing;
    /// returns `(column, direction)`.
    fn price(&mut self) -> Option<(usize, f64)> {
        if self.bland {
            return self.price_bland();
        }
        // Re-price the cached candidates against the fresh duals; drop the
        // ones no longer attractive.
        let mut cand = std::mem::take(&mut self.cand);
        let mut best: Option<(usize, f64, f64)> = None;
        cand.retain(|&j| {
            let Some((dir, absd)) = self.eligibility(j) else {
                return false;
            };
            let score = absd / self.col_norm[j];
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((j, dir, score));
            }
            true
        });
        self.cand = cand;
        // Serve from the cache only while its best stays competitive with
        // the scores seen at the last refill; grinding a stale list down to
        // its dregs costs far more iterations than a rescan costs columns.
        if let Some((j, dir, score)) = best {
            if score >= self.refill_floor {
                return Some((j, dir));
            }
        }
        // Refill: rotating section scan, continuing until enough candidates
        // accumulate for decent pivot diversity; a full rotation finding
        // nothing proves optimality for the current costs.
        self.cand.clear();
        let n_total = self.n_total();
        let section = (n_total / 4).clamp(SECTION_MIN.min(n_total), n_total);
        let mut scanned = 0usize;
        let mut found: Vec<(usize, f64, f64)> = Vec::new();
        while scanned < n_total {
            let start = self.scan_cursor;
            let len = section.min(n_total - scanned);
            // The rotating window wraps at most once; scanning it as two
            // contiguous runs keeps the hot loop free of index arithmetic.
            let first_end = (start + len).min(n_total);
            self.scan_run(start, first_end, &mut found);
            self.scan_run(0, (start + len).saturating_sub(n_total), &mut found);
            self.scan_cursor = (start + len) % n_total;
            scanned += len;
            if found.len() >= CAND_CAP {
                break;
            }
        }
        if found.is_empty() {
            // A full rotation saw nothing eligible — even a previously
            // cached best would have been rediscovered — so: optimal.
            return None;
        }
        found.sort_unstable_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
        found.truncate(CAND_CAP);
        self.cand.extend(found.iter().map(|&(j, _, _)| j));
        let (j, dir, top) = found[0];
        self.refill_floor = top * REFILL_DECAY;
        Some((j, dir))
    }

    /// Bland's rule: the eligible column with the lowest index.
    fn price_bland(&self) -> Option<(usize, f64)> {
        (0..self.n_total()).find_map(|j| self.eligibility(j).map(|(dir, _)| (j, dir)))
    }

    #[inline]
    fn reduced_cost(&self, j: usize) -> f64 {
        self.cost[j] - self.a.col_dot(j, &self.y)
    }

    /// t = B⁻¹ a_q with its nonzero pattern: computed densely on the dense
    /// kernel, tracked symbolically through the LU solve and the eta file
    /// on the sparse one.
    fn ftran(&mut self, q: usize) {
        let m = self.m;
        // Clear the previous tableau column.
        for &p in &self.t_pattern {
            self.t[p] = 0.0;
        }
        self.t_pattern.clear();
        let (rows, vals) = self.a.col(q);
        match &mut self.factor {
            Factor::Dense(d) => {
                d.ftran(rows, vals, &mut self.t);
                for p in 0..m {
                    if self.t[p].abs() > DROP_TOL {
                        self.t_pattern.push(p);
                    } else {
                        self.t[p] = 0.0;
                    }
                }
            }
            Factor::Sparse(s) => {
                for (&r, &v) in rows.iter().zip(vals) {
                    self.fb[r] = v;
                }
                s.lu.as_deref().expect("factorized").solve_sparse(
                    &mut self.fb,
                    rows,
                    &mut self.t,
                    &mut self.t_pattern,
                    &mut s.scratch,
                );
                if !s.etas.is_empty() {
                    for &p in &self.t_pattern {
                        self.t_mark[p] = true;
                    }
                    for eta in &s.etas {
                        let tp = self.t[eta.pos];
                        if tp == 0.0 {
                            continue;
                        }
                        let tr = tp / eta.pivot;
                        self.t[eta.pos] = tr;
                        for &(p, v) in &eta.entries {
                            if !self.t_mark[p] {
                                self.t_mark[p] = true;
                                self.t_pattern.push(p);
                            }
                            self.t[p] -= v * tr;
                        }
                    }
                    for &p in &self.t_pattern {
                        self.t_mark[p] = false;
                    }
                }
                let t = &mut self.t;
                self.t_pattern.retain(|&p| {
                    if t[p].abs() > DROP_TOL {
                        true
                    } else {
                        t[p] = 0.0;
                        false
                    }
                });
            }
        }
        self.stats.ftran_solves += 1;
        self.stats.ftran_nnz += self.t_pattern.len() as u64;
        self.stats.ftran_dim += m as u64;
    }

    fn ratio_test(&self, q: usize, dir: f64) -> RatioOutcome {
        let feas_tol = self.opts.feas_tol;
        // Bound-flip distance of the entering variable itself.
        let range = self.upper[q] - self.lower[q];
        let mut best_step = range; // may be +inf
        let mut best: Option<(usize, bool, f64)> = None; // (pos, to_upper, |pivot|)

        for &p in &self.t_pattern {
            let tp = self.t[p];
            if tp.abs() < PIVOT_TOL {
                continue;
            }
            let b = self.basis[p];
            // xb[p] changes at rate -dir*tp per unit of entering step.
            let rate = -dir * tp;
            let (limit, to_upper) = if rate < 0.0 {
                if self.lower[b] == f64::NEG_INFINITY {
                    continue;
                }
                (((self.xb[p] - self.lower[b]).max(0.0)) / -rate, false)
            } else {
                if self.upper[b] == f64::INFINITY {
                    continue;
                }
                (((self.upper[b] - self.xb[p]).max(0.0)) / rate, true)
            };
            if limit < best_step - feas_tol {
                best_step = limit;
                best = Some((p, to_upper, tp.abs()));
            } else if limit <= best_step + feas_tol {
                // Near-tie: prefer larger pivot magnitude (stability), or
                // smallest variable index under Bland's rule.
                if let Some((bp, _, babs)) = best {
                    let replace = if self.bland {
                        self.basis[p] < self.basis[bp]
                    } else {
                        tp.abs() > babs
                    };
                    if replace {
                        best_step = best_step.min(limit);
                        best = Some((p, to_upper, tp.abs()));
                    }
                } else if limit < best_step {
                    best_step = limit;
                    best = Some((p, to_upper, tp.abs()));
                }
            }
        }

        match best {
            None => {
                if best_step.is_finite() {
                    RatioOutcome::BoundFlip(best_step)
                } else {
                    RatioOutcome::Unbounded
                }
            }
            Some((pos, to_upper, _)) => {
                if range.is_finite() && range < best_step {
                    RatioOutcome::BoundFlip(range)
                } else {
                    RatioOutcome::Pivot {
                        pos,
                        step: best_step.max(0.0),
                        to_upper,
                    }
                }
            }
        }
    }

    /// Rebuilds the basis inverse of the current basis and recomputes the
    /// basic values (washing out accumulated drift).
    ///
    /// The dense kernel inverts from scratch. On the sparse kernel, when
    /// [`SimplexOptions::partial_refactor`] is on and a reference LU
    /// exists, the factorisation is *warm*: the longest common prefix of
    /// the previous and current basis column lists keeps its
    /// already-factored L/U columns verbatim
    /// ([`SparseLu::refactorize_from`]) and only the suffix is
    /// re-eliminated. Left-looking construction makes the result
    /// bit-for-bit identical to a from-scratch factorisation.
    fn refactorize(&mut self) -> Result<(), ()> {
        let a = &self.a;
        let basis = &self.basis;
        match &mut self.factor {
            Factor::Dense(d) => {
                let k = d.invert(a, basis, self.n_struct)?;
                self.stats.cols_factored += k as u64;
                self.stats.fill_nnz = self.m * self.m;
            }
            Factor::Sparse(s) => {
                let keep = if self.opts.partial_refactor {
                    lcp(&s.lu_basis, basis)
                } else {
                    0
                };
                let column = |p: usize, buf: &mut Vec<(usize, f64)>| {
                    let (rows, vals) = a.col(basis[p]);
                    buf.extend(rows.iter().copied().zip(vals.iter().copied()));
                };
                let lu = match (keep > 0).then_some(s.lu.as_deref()).flatten() {
                    Some(prev) => SparseLu::refactorize_from(prev, keep, column),
                    None => SparseLu::factorize(self.m, column),
                }
                .map_err(|_| ())?;
                self.stats.cols_factored += (self.m - keep) as u64;
                self.stats.cols_reused += keep as u64;
                self.stats.fill_nnz = lu.fill_nnz();
                s.lu = Some(Rc::new(lu));
                Rc::make_mut(&mut s.lu_basis).clone_from(basis);
                s.clear_etas();
            }
        }
        self.stats.refactorisations += 1;
        self.recompute_xb();
        Ok(())
    }

    /// Recomputes the basic values under the *current* basis inverse
    /// without refactorising — used when only bounds changed while the
    /// basis and its factorisation are still valid.
    fn recompute_xb(&mut self) {
        let m = self.m;
        self.dense_b[..m].copy_from_slice(&self.rhs);
        for j in 0..self.n_total() {
            match self.status[j] {
                VarStatus::Basic(_) => {}
                s => {
                    let v = nonbasic_value(self.lower[j], self.upper[j], s);
                    if v != 0.0 {
                        self.a.col_axpy(j, -v, &mut self.dense_b);
                    }
                }
            }
        }
        match &self.factor {
            Factor::Dense(d) => d.solve(&self.dense_b, &mut self.xb),
            Factor::Sparse(s) => {
                s.lu().solve(&mut self.dense_b, &mut self.dense_a);
                // Push through the eta file, exactly as FTRAN does.
                for eta in &s.etas {
                    let tr = self.dense_a[eta.pos] / eta.pivot;
                    self.dense_a[eta.pos] = tr;
                    if tr != 0.0 {
                        for &(p, v) in &eta.entries {
                            self.dense_a[p] -= v * tr;
                        }
                    }
                }
                self.xb.copy_from_slice(&self.dense_a[..m]);
            }
        }
    }
}

enum RatioOutcome {
    Unbounded,
    BoundFlip(f64),
    Pivot {
        pos: usize,
        step: f64,
        to_upper: bool,
    },
}

/// Length of the longest common prefix of two basis column lists — the
/// number of leading LU columns a warm partial refactorisation can reuse.
fn lcp(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[inline]
fn initial_bound_status(lower: f64, upper: f64) -> VarStatus {
    if lower.is_finite() && (lower.abs() <= upper.abs() || !upper.is_finite()) {
        VarStatus::AtLower
    } else if upper.is_finite() {
        VarStatus::AtUpper
    } else {
        VarStatus::Free
    }
}

#[inline]
fn nonbasic_value(lower: f64, upper: f64, status: VarStatus) -> f64 {
    match status {
        VarStatus::AtLower => lower,
        VarStatus::AtUpper => upper,
        VarStatus::Free => 0.0,
        VarStatus::Basic(_) => unreachable!("nonbasic_value on basic variable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, RowSense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn tiny_maximization() {
        // max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, 0 ≤ x,y ≤ 10 → x=4, y=0.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 3.0);
        let y = lp.add_var(0.0, 10.0, 2.0);
        lp.add_row(RowSense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(RowSense::Le, 6.0, &[(x, 1.0), (y, 3.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 12.0);
        assert_close(s.values[x], 4.0);
        assert_close(s.values[y], 0.0);
    }

    #[test]
    fn classic_lp_with_interior_optimum_vertex() {
        // max 5x + 4y s.t. 6x + 4y ≤ 24, x + 2y ≤ 6 → x=3, y=1.5, obj=21.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 100.0, 5.0);
        let y = lp.add_var(0.0, 100.0, 4.0);
        lp.add_row(RowSense::Le, 24.0, &[(x, 6.0), (y, 4.0)]);
        lp.add_row(RowSense::Le, 6.0, &[(x, 1.0), (y, 2.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 21.0);
        assert_close(s.values[x], 3.0);
        assert_close(s.values[y], 1.5);
    }

    #[test]
    fn equality_rows_need_phase_one() {
        // min x + y s.t. x + y = 2, x − y = 0 → x=y=1, obj=2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Eq, 2.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(RowSense::Eq, 0.0, &[(x, 1.0), (y, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
        assert_close(s.values[x], 1.0);
        assert_close(s.values[y], 1.0);
    }

    #[test]
    fn ge_rows() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≤ 4 → x=4, y=6, obj=26.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 4.0, 2.0);
        let y = lp.add_var(0.0, 100.0, 3.0);
        lp.add_row(RowSense::Ge, 10.0, &[(x, 1.0), (y, 1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 26.0);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 3 with 0 ≤ x ≤ 10.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Le, 1.0, &[(x, 1.0)]);
        lp.add_row(RowSense::Ge, 3.0, &[(x, 1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x with x ≥ 0 unbounded above, one irrelevant row.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let _x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, 1.0, 0.0);
        lp.add_row(RowSense::Le, 1.0, &[(y, 1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn bound_flip_path() {
        // max x + y s.t. x − y ≤ 0, x,y ∈ [0,1] → x=y=1: requires y to move
        // to its upper bound (bound flip or pivot).
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 1.0, 1.0);
        let y = lp.add_var(0.0, 1.0, 1.0);
        lp.add_row(RowSense::Le, 0.0, &[(x, 1.0), (y, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn negative_rhs_equality() {
        // min x s.t. −x = −5 → x = 5.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Eq, -5.0, &[(x, -1.0)]);
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.values[x], 5.0);
    }

    #[test]
    fn degenerate_instance_terminates() {
        // Many redundant rows through the same vertex.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        for k in 1..8 {
            lp.add_row(RowSense::Le, k as f64, &[(x, k as f64), (y, k as f64)]);
        }
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn solve_with_bounds_overrides() {
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Le, 8.0, &[(x, 1.0)]);
        let s = lp.solve_with_bounds(&[0.0], &[3.0], &SimplexOptions::default());
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn free_variable_override_rests_at_zero() {
        // Regression: a variable freed through bound overrides used to get
        // nonbasic status AtUpper and value +∞, poisoning the crash basis
        // activity. It must rest at zero and solve correctly.
        // min x s.t. x ≥ −3, x free → x = −3.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(RowSense::Ge, -3.0, &[(x, 1.0)]);
        let s = lp.solve_with_bounds(
            &[f64::NEG_INFINITY],
            &[f64::INFINITY],
            &SimplexOptions::default(),
        );
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -3.0);
        assert_close(s.values[x], -3.0);
    }

    #[test]
    fn free_variable_maximization_hits_row_limit() {
        // max x s.t. x ≤ 5 with x free → 5 (the row, not a bound, binds).
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_row(RowSense::Le, 5.0, &[(x, 1.0)]);
        let s = lp.solve_with_bounds(
            &[f64::NEG_INFINITY],
            &[f64::INFINITY],
            &SimplexOptions::default(),
        );
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn warm_start_matches_cold_after_tightening() {
        // Solve, snapshot, tighten a bound (the B&B access pattern), and
        // verify the warm solve agrees with a cold one.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 3.0);
        let y = lp.add_var(0.0, 10.0, 2.0);
        lp.add_row(RowSense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(RowSense::Le, 6.0, &[(x, 1.0), (y, 3.0)]);

        let mut solver = SimplexSolver::new(&lp, SimplexOptions::default());
        let parent = solver.solve_from(None, &[0.0, 0.0], &[10.0, 10.0]);
        assert_eq!(parent.status, LpStatus::Optimal);
        let snap = solver.snapshot();

        for (lo, hi) in [
            ([0.0, 0.0], [2.5, 10.0]), // cut off the old optimum
            ([0.0, 1.0], [10.0, 10.0]),
            ([3.0, 0.0], [10.0, 0.5]),
            ([0.0, 0.0], [0.0, 0.0]), // everything fixed
        ] {
            let warm = solver.solve_from(Some(&snap), &lo, &hi);
            let cold = lp.solve_with_bounds(&lo, &hi, &SimplexOptions::default());
            assert_eq!(warm.status, cold.status, "bounds {lo:?}..{hi:?}");
            if warm.status == LpStatus::Optimal {
                assert!(
                    (warm.objective - cold.objective).abs() < 1e-7,
                    "bounds {lo:?}..{hi:?}: warm {} vs cold {}",
                    warm.objective,
                    cold.objective
                );
            }
        }
    }

    /// The eta file a snapshot carries (sparse kernel only).
    fn snap_etas(snap: &BasisSnapshot) -> &Rc<Vec<Eta>> {
        match &snap.factor {
            SnapFactor::Sparse { etas, .. } => etas,
            f => panic!("expected a sparse snapshot, got {f:?}"),
        }
    }

    #[test]
    fn snapshot_reuses_eta_rc_until_pivots_dirty_it() {
        // Branch & bound snapshots the same solved state once per branched
        // node; the eta file must be cloned once, not per snapshot.
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let x = lp.add_var(0.0, 10.0, 3.0);
        let y = lp.add_var(0.0, 10.0, 2.0);
        lp.add_row(RowSense::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
        lp.add_row(RowSense::Le, 6.0, &[(x, 1.0), (y, 3.0)]);
        let mut solver = SimplexSolver::with_kernel(&lp, SimplexOptions::default(), false);
        assert_eq!(
            solver.solve_from(None, &[0.0, 0.0], &[10.0, 10.0]).status,
            LpStatus::Optimal
        );
        let a = solver.snapshot();
        let b = solver.snapshot();
        assert!(
            Rc::ptr_eq(snap_etas(&a), snap_etas(&b)),
            "unchanged eta file recloned"
        );
        assert_eq!(solver.stats().snapshot_eta_clones, 1);
        // A solve that pivots (bound change forces re-optimisation) must
        // invalidate the cache: the next snapshot sees a different eta file.
        let warm = solver.solve_from(Some(&a), &[0.0, 0.0], &[2.5, 10.0]);
        assert_eq!(warm.status, LpStatus::Optimal);
        let c = solver.snapshot();
        assert!(
            !Rc::ptr_eq(snap_etas(&a), snap_etas(&c)),
            "stale eta Rc served after pivoting"
        );
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        // min x + y s.t. x + y ≥ 4, x,y ≤ 3: feasible. Tightening both to
        // ≤ 1 makes the system infeasible; the warm dual must report it.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 3.0, 1.0);
        let y = lp.add_var(0.0, 3.0, 1.0);
        lp.add_row(RowSense::Ge, 4.0, &[(x, 1.0), (y, 1.0)]);
        let mut solver = SimplexSolver::new(&lp, SimplexOptions::default());
        let parent = solver.solve_from(None, &[0.0, 0.0], &[3.0, 3.0]);
        assert_eq!(parent.status, LpStatus::Optimal);
        let snap = solver.snapshot();
        let child = solver.solve_from(Some(&snap), &[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(child.status, LpStatus::Infeasible);
        assert_eq!(solver.stats().dual_infeasible, 1, "proved by the dual");
    }

    #[test]
    fn larger_randomised_vs_bruteforce_2d() {
        // Random 2-variable LPs cross-checked against a dense vertex
        // enumeration. Catches sign errors in pricing / ratio logic.
        let mut state = 0xdeadbeefu64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) * 2.0 - 1.0
        };
        for trial in 0..200 {
            let mut lp = LinearProgram::new();
            lp.set_maximize(true);
            let cx = rnd();
            let cy = rnd();
            let x = lp.add_var(0.0, 1.0, cx);
            let y = lp.add_var(0.0, 1.0, cy);
            let mut rows = Vec::new();
            for _ in 0..4 {
                let a = rnd();
                let b = rnd();
                let c = rnd() + 1.2; // keep origin feasible
                lp.add_row(RowSense::Le, c, &[(x, a), (y, b)]);
                rows.push((a, b, c));
            }
            let s = lp.solve();
            assert_eq!(s.status, LpStatus::Optimal, "trial {trial}");
            // brute force on a fine grid (origin is feasible so optimum ≥ 0 grid pt)
            let mut best = f64::NEG_INFINITY;
            let n = 200;
            for i in 0..=n {
                for jj in 0..=n {
                    let px = i as f64 / n as f64;
                    let py = jj as f64 / n as f64;
                    if rows.iter().all(|&(a, b, c)| a * px + b * py <= c + 1e-9) {
                        best = best.max(cx * px + cy * py);
                    }
                }
            }
            assert!(
                s.objective >= best - 1e-6,
                "trial {trial}: simplex {} < grid {}",
                s.objective,
                best
            );
            // and the simplex solution must itself be feasible
            for &(a, b, c) in &rows {
                assert!(
                    a * s.values[x] + b * s.values[y] <= c + 1e-6,
                    "trial {trial}"
                );
            }
        }
    }

    /// Splitmix-style stream so every case is reproducible from its seed.
    fn stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random bounded LP with mixed row senses and integral variable
    /// boxes, plus its root box.
    fn random_lp(rnd: &mut impl FnMut() -> f64) -> (LinearProgram, Vec<f64>, Vec<f64>) {
        let mut lp = LinearProgram::new();
        lp.set_maximize(rnd() < 0.5);
        let nv = 3 + (rnd() * 6.0) as usize;
        let vars: Vec<_> = (0..nv)
            .map(|_| lp.add_var(0.0, (1.0 + rnd() * 4.0).floor(), rnd() * 4.0 - 2.0))
            .collect();
        let rows = 2 + (rnd() * 6.0) as usize;
        for _ in 0..rows {
            let mut coeffs = Vec::new();
            for &v in &vars {
                if rnd() < 0.7 {
                    coeffs.push((v, rnd() * 2.0 - 0.6));
                }
            }
            let (sense, rhs) = match (rnd() * 4.0) as usize {
                0 => (RowSense::Ge, -3.0 * rnd()),
                1 => (RowSense::Eq, rnd()),
                _ => (RowSense::Le, 1.0 + 3.0 * rnd()),
            };
            lp.add_row(sense, rhs, &coeffs);
        }
        let (lo, hi) = (lp.lower.clone(), lp.upper.clone());
        (lp, lo, hi)
    }

    /// Tightens one random variable's box to an integer split, the way a
    /// branch & bound child differs from its parent.
    fn branch(rnd: &mut impl FnMut() -> f64, lo: &mut [f64], hi: &mut [f64]) {
        let v = (rnd() * lo.len() as f64) as usize % lo.len();
        let split = lo[v] + (hi[v] - lo[v]) * rnd();
        if rnd() < 0.5 {
            hi[v] = split.floor().max(lo[v]);
        } else {
            lo[v] = split.ceil().min(hi[v]);
        }
    }

    /// Replays a random branching sequence through one dense-kernel and
    /// one sparse-kernel solver, cold at the root and then warm from each
    /// kernel's own snapshot of the last optimal parent: statuses must
    /// match and objectives agree within 1e-9.
    fn check_kernels_agree(seed: u64) {
        let mut rnd = stream(seed);
        let (lp, mut lo, mut hi) = random_lp(&mut rnd);
        let opts = SimplexOptions::default();
        let mut dense = SimplexSolver::with_kernel(&lp, opts.clone(), true);
        let mut sparse = SimplexSolver::with_kernel(&lp, opts, false);
        assert!(dense.is_dense() && !sparse.is_dense());
        let mut parents: Option<(BasisSnapshot, Vec<f64>, Vec<f64>)> = None;
        let mut sparse_snap: Option<BasisSnapshot> = None;
        for step in 0..12 {
            let d = dense.solve_from(parents.as_ref().map(|p| &p.0), &lo, &hi);
            let s = sparse.solve_from(sparse_snap.as_ref(), &lo, &hi);
            assert_eq!(d.status, s.status, "seed {seed} step {step}");
            if d.status == LpStatus::Optimal {
                assert!(
                    (d.objective - s.objective).abs() <= 1e-9,
                    "seed {seed} step {step}: dense {} vs sparse {}",
                    d.objective,
                    s.objective
                );
                parents = Some((dense.snapshot(), lo.clone(), hi.clone()));
                sparse_snap = Some(sparse.snapshot());
            } else if let Some((_, plo, phi)) = &parents {
                // Backtrack to the last optimal parent's box.
                lo.clone_from(plo);
                hi.clone_from(phi);
            }
            branch(&mut rnd, &mut lo, &mut hi);
        }
    }

    /// Solves random children of an optimal parent warm, on both kernels;
    /// every child the dual simplex declares infeasible must be infeasible
    /// under a cold two-phase solve too. Returns the number of proofs.
    fn check_dual_proofs(seed: u64) -> u64 {
        let mut rnd = stream(seed);
        let (lp, lo, hi) = random_lp(&mut rnd);
        let mut proofs = 0;
        for dense in [true, false] {
            let opts = SimplexOptions::default();
            let mut solver = SimplexSolver::with_kernel(&lp, opts.clone(), dense);
            if solver.solve_from(None, &lo, &hi).status != LpStatus::Optimal {
                continue;
            }
            let parent = solver.snapshot();
            for child in 0..8 {
                let (mut clo, mut chi) = (lo.clone(), hi.clone());
                for _ in 0..1 + child % 3 {
                    branch(&mut rnd, &mut clo, &mut chi);
                }
                let before = solver.stats().dual_infeasible;
                let warm = solver.solve_from(Some(&parent), &clo, &chi);
                if solver.stats().dual_infeasible > before {
                    assert_eq!(warm.status, LpStatus::Infeasible);
                    let cold = SimplexSolver::with_kernel(&lp, opts.clone(), dense)
                        .solve_from(None, &clo, &chi);
                    assert_eq!(
                        cold.status,
                        LpStatus::Infeasible,
                        "seed {seed} dense {dense} child {child}: dual proof refuted"
                    );
                    proofs += 1;
                }
            }
        }
        proofs
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        #[test]
        fn dense_and_sparse_kernels_agree_cold_and_warm(seed in 0u64..1 << 60) {
            check_kernels_agree(seed);
        }

        #[test]
        fn dual_infeasibility_proofs_survive_cold_solves(seed in 0u64..1 << 60) {
            check_dual_proofs(seed);
        }
    }

    #[test]
    fn dual_infeasibility_proofs_are_exercised() {
        let proofs: u64 = (0..200).map(check_dual_proofs).sum();
        assert!(proofs >= 100, "only {proofs} dual infeasibility proofs");
    }
}
