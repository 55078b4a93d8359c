//! Dense explicit basis inverse for small simplex bases.
//!
//! At the basis sizes of the paper's exact MILP (a few dozen rows) a dense
//! `B⁻¹` updated in place beats a sparse LU plus eta file: FTRAN is one
//! gather per entering-column nonzero per row, the duals are a combination
//! of the rows selected by the nonzeros of `c_B`, a dual-simplex pivot row
//! is a plain row of the matrix, and a pivot rewrites only the rows where
//! the entering column is nonzero. Inversion eliminates the unit
//! slack/artificial columns symbolically and runs Gauss–Jordan only on the
//! square block of structural columns against the rows no unit column
//! covers.

use crate::sparse::CscMatrix;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

/// A snapshot's share of a dense inverse. The solver that issued it may
/// empty it to stay within its byte budget; the snapshot then restores
/// by re-inverting.
pub(crate) type InverseSlot = Rc<SlotCell>;
type SlotCell = RefCell<Option<Rc<Vec<f64>>>>;

/// Absolute pivot threshold for the block inversion (matches the sparse
/// LU's singularity threshold).
const PIVOT_TOL: f64 = 1e-11;
const NONE: usize = usize::MAX;

/// `B⁻¹` of an `m`-row basis as a dense row-major matrix, shared
/// copy-on-write with basis snapshots.
#[derive(Debug)]
pub(crate) struct DenseInverse {
    m: usize,
    /// Row-major `B⁻¹`: row `p` belongs to basis position `p`, column `i`
    /// to constraint row `i`. Empty until the first inversion.
    inv: Rc<Vec<f64>>,
    /// Pivots applied since the last inversion.
    updates: usize,
    /// Slots handed to snapshots, oldest first; the live, non-empty ones
    /// count against the snapshot byte budget.
    issued: VecDeque<Weak<SlotCell>>,
    // Inversion scratch.
    block: Vec<f64>,
    swaps: Vec<usize>,
    struct_pos: Vec<usize>,
    free_rows: Vec<usize>,
    row_unit: Vec<usize>,
    row_block: Vec<usize>,
}

impl DenseInverse {
    pub(crate) fn new(m: usize) -> DenseInverse {
        DenseInverse {
            m,
            inv: Rc::new(Vec::new()),
            updates: 0,
            issued: VecDeque::new(),
            block: Vec::new(),
            swaps: Vec::new(),
            struct_pos: Vec::new(),
            free_rows: Vec::new(),
            row_unit: vec![NONE; m],
            row_block: vec![NONE; m],
        }
    }

    /// Whether an inverse is held.
    #[inline]
    pub(crate) fn is_valid(&self) -> bool {
        !self.inv.is_empty()
    }

    /// Pivots applied since the last inversion.
    #[inline]
    pub(crate) fn updates(&self) -> usize {
        self.updates
    }

    /// Drops the inverse (the solver's basis no longer matches it).
    pub(crate) fn clear(&mut self) {
        self.inv = Rc::new(Vec::new());
        self.updates = 0;
    }

    /// Bytes of one inverse.
    #[inline]
    pub(crate) fn bytes(&self) -> usize {
        self.m * self.m * std::mem::size_of::<f64>()
    }

    /// Row `p` of `B⁻¹`.
    #[inline]
    pub(crate) fn row(&self, p: usize) -> &[f64] {
        &self.inv[p * self.m..(p + 1) * self.m]
    }

    /// Inverts the basis whose position `p` holds column `basis[p]` of `a`.
    /// Columns `n_struct..` are unit columns (slack `n_struct + i`,
    /// artificial `n_struct + m + i`, both `e_i`). Returns the number of
    /// structural columns eliminated numerically, or `Err` when the basis
    /// is singular.
    pub(crate) fn invert(
        &mut self,
        a: &CscMatrix,
        basis: &[usize],
        n_struct: usize,
    ) -> Result<usize, ()> {
        let m = self.m;
        self.row_unit.fill(NONE);
        self.struct_pos.clear();
        for (p, &j) in basis.iter().enumerate() {
            if j >= n_struct {
                let i = (j - n_struct) % m;
                if self.row_unit[i] != NONE {
                    return Err(()); // two unit columns on one row
                }
                self.row_unit[i] = p;
            } else {
                self.struct_pos.push(p);
            }
        }
        self.free_rows.clear();
        self.row_block.fill(NONE);
        for i in 0..m {
            if self.row_unit[i] == NONE {
                self.row_block[i] = self.free_rows.len();
                self.free_rows.push(i);
            }
        }
        let k = self.struct_pos.len();
        debug_assert_eq!(k, self.free_rows.len());

        // The structural block: rows no unit column covers × structural
        // columns, inverted in place.
        self.block.clear();
        self.block.resize(k * k, 0.0);
        for (b, &p) in self.struct_pos.iter().enumerate() {
            let (rows, vals) = a.col(basis[p]);
            for (&r, &v) in rows.iter().zip(vals) {
                let ai = self.row_block[r];
                if ai != NONE {
                    self.block[ai * k + b] = v;
                }
            }
        }
        gauss_jordan(&mut self.block, k, &mut self.swaps)?;

        let inv = match Rc::get_mut(&mut self.inv) {
            Some(v) => {
                v.clear();
                v.resize(m * m, 0.0);
                v
            }
            None => {
                self.inv = Rc::new(vec![0.0; m * m]);
                Rc::get_mut(&mut self.inv).expect("fresh Rc")
            }
        };
        // Structural position `b`: row `b` of the block inverse, spread
        // over the free rows.
        for (b, &p) in self.struct_pos.iter().enumerate() {
            let dst = &mut inv[p * m..(p + 1) * m];
            for (a_idx, &i) in self.free_rows.iter().enumerate() {
                dst[i] = self.block[b * k + a_idx];
            }
        }
        // Unit position covering row i: e_i − Σ_b A[i, s_b] · row(s_b).
        for i in 0..m {
            let p = self.row_unit[i];
            if p != NONE {
                inv[p * m + i] = 1.0;
            }
        }
        for &s in &self.struct_pos {
            let (rows, vals) = a.col(basis[s]);
            for (&r, &v) in rows.iter().zip(vals) {
                let p = self.row_unit[r];
                if p == NONE {
                    continue;
                }
                for &i in &self.free_rows {
                    inv[p * m + i] -= v * inv[s * m + i];
                }
            }
        }
        self.updates = 0;
        Ok(k)
    }

    /// `t = B⁻¹ a` for a sparse column `a` given as (rows, values); writes
    /// all `m` entries of `t`.
    pub(crate) fn ftran(&self, rows: &[usize], vals: &[f64], t: &mut [f64]) {
        let m = self.m;
        for (p, out) in t[..m].iter_mut().enumerate() {
            let row = &self.inv[p * m..(p + 1) * m];
            let mut acc = 0.0;
            for (&r, &v) in rows.iter().zip(vals) {
                acc += row[r] * v;
            }
            *out = acc;
        }
    }

    /// `y = B⁻ᵀ c_B`, with `c_B` nonzero only at the listed positions.
    pub(crate) fn btran(&self, c_b: &[f64], pattern: &[usize], y: &mut [f64]) {
        y.fill(0.0);
        for &p in pattern {
            let c = c_b[p];
            for (yi, &b) in y.iter_mut().zip(self.row(p)) {
                *yi += c * b;
            }
        }
    }

    /// `x = B⁻¹ b` for a dense `b`.
    pub(crate) fn solve(&self, b: &[f64], x: &mut [f64]) {
        for (p, out) in x[..self.m].iter_mut().enumerate() {
            *out = self.row(p).iter().zip(b).map(|(&r, &v)| r * v).sum();
        }
    }

    /// Replaces basis position `pos` by the column whose FTRAN is `t`
    /// (nonzero only at `pattern`): the product-form update applied to the
    /// explicit inverse, touching only the rows where `t` is nonzero.
    /// Copies the matrix first when a snapshot still shares it.
    pub(crate) fn update(&mut self, pos: usize, t: &[f64], pattern: &[usize]) {
        let m = self.m;
        let inv = Rc::make_mut(&mut self.inv);
        let scale = 1.0 / t[pos];
        for v in &mut inv[pos * m..(pos + 1) * m] {
            *v *= scale;
        }
        for &p in pattern {
            if p == pos {
                continue;
            }
            let f = t[p];
            let (pivot_row, row) = row_pair(inv, m, pos, p);
            for (v, &r) in row.iter_mut().zip(pivot_row) {
                *v -= f * r;
            }
        }
        self.updates += 1;
    }

    /// The inverse for a snapshot, shared copy-on-write through a slot.
    /// The live slots of this solver hold at most `budget` bytes: a new
    /// slot evicts the oldest ones first — depth-first search restores
    /// its most recent snapshots soonest. Returns `None` when no inverse is
    /// held or one alone exceeds the budget, plus the bytes the live slots
    /// hold after the decision.
    pub(crate) fn share(&mut self, budget: usize) -> (Option<InverseSlot>, usize) {
        let live = |w: &Weak<SlotCell>| w.upgrade().filter(|slot| slot.borrow().is_some());
        self.issued.retain(|w| live(w).is_some());
        let bytes = self.bytes();
        if !self.is_valid() || bytes > budget {
            return (None, self.issued.len() * bytes);
        }
        // Re-snapshotting an unchanged inverse reuses its slot.
        let held = self.issued.iter().position(|w| {
            live(w).is_some_and(|slot| {
                slot.borrow()
                    .as_ref()
                    .is_some_and(|inv| Rc::ptr_eq(inv, &self.inv))
            })
        });
        let slot = match held.and_then(|i| self.issued.remove(i)) {
            Some(w) => w.upgrade().expect("live slot"),
            None => {
                while (self.issued.len() + 1) * bytes > budget {
                    if let Some(slot) = self.issued.pop_front().and_then(|w| w.upgrade()) {
                        slot.borrow_mut().take();
                    }
                }
                Rc::new(RefCell::new(Some(self.inv.clone())))
            }
        };
        self.issued.push_back(Rc::downgrade(&slot));
        (Some(slot), self.issued.len() * bytes)
    }

    /// Installs a snapshot's inverse (shared until the next pivot).
    pub(crate) fn restore(&mut self, inv: &Rc<Vec<f64>>, updates: usize) {
        self.inv = inv.clone();
        self.updates = updates;
    }
}

/// Rows `src` (shared) and `dst` (mutable) of the row-major matrix `a`
/// with rows of length `n`; `src != dst`.
fn row_pair(a: &mut [f64], n: usize, src: usize, dst: usize) -> (&[f64], &mut [f64]) {
    if dst < src {
        let (lo, hi) = a.split_at_mut(src * n);
        (&hi[..n], &mut lo[dst * n..(dst + 1) * n])
    } else {
        let (lo, hi) = a.split_at_mut(dst * n);
        (&lo[src * n..(src + 1) * n], &mut hi[..n])
    }
}

/// In-place Gauss–Jordan inversion of the row-major `k×k` matrix `a` with
/// partial (row) pivoting.
fn gauss_jordan(a: &mut [f64], k: usize, swaps: &mut Vec<usize>) -> Result<(), ()> {
    swaps.clear();
    for c in 0..k {
        let mut piv_row = c;
        let mut piv_abs = a[c * k + c].abs();
        for r in c + 1..k {
            let v = a[r * k + c].abs();
            if v > piv_abs {
                piv_abs = v;
                piv_row = r;
            }
        }
        if piv_abs < PIVOT_TOL {
            return Err(());
        }
        if piv_row != c {
            for j in 0..k {
                a.swap(c * k + j, piv_row * k + j);
            }
        }
        swaps.push(piv_row);
        let scale = 1.0 / a[c * k + c];
        a[c * k + c] = 1.0;
        for v in &mut a[c * k..(c + 1) * k] {
            *v *= scale;
        }
        for r in 0..k {
            if r == c {
                continue;
            }
            let f = a[r * k + c];
            if f == 0.0 {
                continue;
            }
            a[r * k + c] = 0.0;
            let (pivot, row) = row_pair(a, k, c, r);
            for (v, &p) in row.iter_mut().zip(pivot) {
                *v -= f * p;
            }
        }
    }
    // Row swaps of the input become column swaps of the inverse, undone in
    // reverse order.
    for c in (0..k).rev() {
        let r = swaps[c];
        if r != c {
            for i in 0..k {
                a.swap(i * k + c, i * k + r);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_check(a: &[f64], inv: &[f64], k: usize) {
        for i in 0..k {
            for j in 0..k {
                let v: f64 = (0..k).map(|l| a[i * k + l] * inv[l * k + j]).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-10, "({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn gauss_jordan_needs_row_pivoting() {
        let a = [0.0, 2.0, 1.0, 1.0, 0.0, 3.0, 4.0, 1.0, 0.0];
        let mut inv = a;
        gauss_jordan(&mut inv, 3, &mut Vec::new()).unwrap();
        matmul_check(&a, &inv, 3);
        let mut singular = [1.0, 2.0, 2.0, 4.0];
        assert!(gauss_jordan(&mut singular, 2, &mut Vec::new()).is_err());
    }

    #[test]
    fn inverse_with_unit_columns_and_updates_matches_the_basis() {
        // 3 rows, 2 structural columns; slacks at 2..5, artificials 5..8.
        let mut a = CscMatrix::new(3);
        a.push_column(&[(0, 2.0), (1, 1.0), (2, -1.0)]);
        a.push_column(&[(0, 1.0), (2, 3.0)]);
        for _ in 0..2 {
            for i in 0..3 {
                a.push_column(&[(i, 1.0)]);
            }
        }
        let check = |d: &DenseInverse, basis: &[usize]| {
            for (p, &j) in basis.iter().enumerate() {
                // Row p of B⁻¹ times column basis[q] must be δ_pq.
                for (q, &jq) in basis.iter().enumerate() {
                    let v = a.col_dot(jq, d.row(p));
                    let want = if p == q { 1.0 } else { 0.0 };
                    assert!(
                        (v - want).abs() < 1e-12,
                        "basis {basis:?} p={p} j={j} q={q}"
                    );
                }
            }
        };
        let mut d = DenseInverse::new(3);
        let basis = [0, 3, 1]; // structural, slack of row 1, structural
        assert_eq!(d.invert(&a, &basis, 2), Ok(2));
        check(&d, &basis);
        // Two unit columns on row 1 (slack and artificial) are singular.
        assert!(d.invert(&a, &[3, 6, 0], 2).is_err());

        // Pivot column 0 into position 1 via the product-form update.
        let mut basis = [2, 3, 4];
        d.invert(&a, &basis, 2).unwrap();
        let (rows, vals) = a.col(0);
        let mut t = vec![0.0; 3];
        d.ftran(rows, vals, &mut t);
        d.update(1, &t, &[0, 1, 2]);
        basis[1] = 0;
        check(&d, &basis);
        assert_eq!(d.updates(), 1);
    }

    #[test]
    fn share_respects_the_byte_budget() {
        let mut a = CscMatrix::new(2);
        for i in 0..2 {
            a.push_column(&[(i, 1.0)]);
        }
        let mut d = DenseInverse::new(2);
        d.invert(&a, &[0, 1], 0).unwrap();
        let one = d.bytes();
        let (s1, held) = d.share(one);
        let s1 = s1.expect("fits");
        assert_eq!(held, one);
        // Same buffer again: the same slot, no new bytes.
        let (again, held) = d.share(one);
        assert!(Rc::ptr_eq(&again.unwrap(), &s1));
        assert_eq!(held, one);
        // A pivot copies the shared buffer; sharing the copy evicts the
        // older slot.
        d.update(0, &[1.0, 0.0], &[0]);
        let (s2, held) = d.share(one);
        assert!(s2.expect("fits").borrow().is_some());
        assert!(s1.borrow().is_none(), "oldest slot evicted");
        assert_eq!(held, one);
        // Nothing fits a budget below one inverse.
        assert!(d.share(one - 1).0.is_none());
    }
}
