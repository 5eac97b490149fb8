//! Product-form basis factorization for the network simplex kernel.
//!
//! The revised simplex method needs two linear solves per pivot —
//! `w = B⁻¹·Aⱼ` (FTRAN, the entering column in the basis frame) and
//! `y = c_Bᵀ·B⁻¹` (BTRAN, the simplex multipliers) — plus one basis
//! update when a column enters. Carrying an explicit dense `m × m`
//! inverse makes each of those `O(m²)`; this module replaces it with the
//! **product form of the inverse**: the basis inverse is held as a
//! product of elementary *eta* matrices,
//!
//! ```text
//! B⁻¹ = Eₖ · Eₖ₋₁ · … · E₁
//! ```
//!
//! where each `Eᵢ` differs from the identity in a single column (its
//! *pivot column*). The file is periodically rebuilt from the basis
//! columns (*refactorization*, owned by the caller in `network.rs`) to
//! bound both its length and accumulated rounding drift.
//!
//! # Hypersparse solves
//!
//! The fleet flow columns carry two or three nonzeros against a basis of
//! a thousand or more rows, and so do their FTRAN results. The entering
//! direction therefore lives in a [`SparseWork`]: a dense value array
//! that also records its nonzero pattern (a row list plus a mark array)
//! and stays all-zero between uses, so clearing it costs the pattern,
//! not `m`. [`Factorization::ftran_sparse`] extends that pattern as the
//! etas fill rows in, and [`Factorization::push_eta`] walks it to append
//! the exchange eta in `O(nnz(w))`. The pattern is kept in ascending row
//! order, so every caller that walks it (pivot-row choice, ratio test,
//! eta append) sees rows in the order a full `0..m` scan would, and
//! every floating-point operation happens in the same order — the
//! pattern changes the cost, never the result. The right-hand side of
//! `x_B` is dense, and keeps the dense [`Factorization::ftran`].
//!
//! Storage is flat — one header per eta plus two parallel arrays of
//! off-pivot `(row, value)` entries — so a [`Factorization`] owned by a
//! workspace is reused across solves without allocating once its
//! capacity has grown to the working-set size.

// Kernel storage: every row index is below the `m` the file was reset
// with, minted by the caller from in-range pivot rows; runtime bound
// checks in the FTRAN/BTRAN inner loops would be pure overhead.
// audit:allow-file(slice-index): eta entries are bounded by the m the file was reset with; see module note
#![allow(clippy::indexing_slicing)]

/// One elementary matrix of the product file: identity except in column
/// `pivot_row`, where the diagonal holds `pivot_val` and the rows listed
/// in `entries[start..end]` hold the off-pivot values.
#[derive(Debug, Clone, Copy)]
struct EtaHead {
    pivot_row: u32,
    pivot_val: f64,
    start: u32,
    end: u32,
}

/// A basis inverse in product (eta-file) form. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factorization {
    m: usize,
    heads: Vec<EtaHead>,
    /// Off-pivot entry rows, flat across all etas (`heads[i]` owns
    /// `rows[start..end]` / `vals[start..end]`).
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl Factorization {
    /// Resets the file to the identity on `m` rows, keeping capacity.
    pub(crate) fn reset(&mut self, m: usize) {
        self.m = m;
        self.heads.clear();
        self.rows.clear();
        self.vals.clear();
    }

    /// Number of etas in the file (the refactorization trigger input).
    pub(crate) fn eta_count(&self) -> usize {
        self.heads.len()
    }

    /// Total off-pivot entries across the file (the eta-length telemetry).
    pub(crate) fn entry_count(&self) -> usize {
        self.rows.len()
    }

    /// Bytes of heap capacity currently pinned by the file.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<EtaHead>()
            + self.rows.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<f64>()
    }

    /// Appends the eta matrix that maps the entering direction
    /// `w = B⁻¹·Aⱼ` onto `e_r`, i.e. performs the basis exchange at pivot
    /// row `r`. `w` must be zero outside its pattern. Returns `false`
    /// (file unchanged) if the pivot element `w[r]` is too small to
    /// divide by safely — the caller must then refactorize or fall back.
    pub(crate) fn push_eta(&mut self, r: usize, w: &SparseWork) -> bool {
        debug_assert_eq!(w.vals.len(), self.m);
        let piv = w.vals[r];
        if piv.abs() < 1e-12 || !piv.is_finite() {
            return false;
        }
        let pivot_val = 1.0 / piv;
        let start = self.rows.len() as u32;
        for &i in &w.pattern {
            let wi = w.vals[i as usize];
            if i as usize != r && wi != 0.0 {
                self.rows.push(i);
                self.vals.push(-wi * pivot_val);
            }
        }
        self.heads.push(EtaHead {
            pivot_row: r as u32,
            pivot_val,
            start,
            end: self.rows.len() as u32,
        });
        true
    }

    /// `x ← B⁻¹·x`: applies the etas in append order (`E₁` first). For
    /// a dense right-hand side, such as the one `x_B` is solved from.
    pub(crate) fn ftran(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for h in &self.heads {
            let r = h.pivot_row as usize;
            let t = x[r];
            if t == 0.0 {
                continue;
            }
            x[r] = h.pivot_val * t;
            for k in h.start as usize..h.end as usize {
                x[self.rows[k] as usize] += self.vals[k] * t;
            }
        }
    }

    /// `x ← B⁻¹·x` on a [`SparseWork`]: the same etas, in the same order,
    /// with the same arithmetic as [`ftran`](Self::ftran), and every row
    /// an eta fills in is added to the pattern, which ends ascending.
    /// Costs the entries of the etas whose pivot row is nonzero, plus one
    /// zero test per eta.
    pub(crate) fn ftran_sparse(&self, x: &mut SparseWork) {
        debug_assert_eq!(x.vals.len(), self.m);
        for h in &self.heads {
            let r = h.pivot_row as usize;
            let t = x.vals[r];
            if t == 0.0 {
                continue;
            }
            x.vals[r] = h.pivot_val * t;
            for k in h.start as usize..h.end as usize {
                x.add(self.rows[k] as usize, self.vals[k] * t);
            }
        }
        x.pattern.sort_unstable();
    }

    /// `yᵀ ← yᵀ·B⁻¹`: applies the etas in reverse order (`Eₖ` first).
    /// Each eta touches only its pivot component:
    /// `y[r] ← η_r·y[r] + Σᵢ ηᵢ·y[i]`.
    pub(crate) fn btran(&self, y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.m);
        for h in self.heads.iter().rev() {
            let r = h.pivot_row as usize;
            let mut acc = h.pivot_val * y[r];
            for k in h.start as usize..h.end as usize {
                acc += self.vals[k] * y[self.rows[k] as usize];
            }
            y[r] = acc;
        }
    }
}

/// A length-`m` work vector that records its nonzero pattern: every row
/// written since the last [`clear`](Self::clear) is listed once in
/// `pattern` and flagged in `mark`. Rows outside the pattern are exactly
/// zero, so clearing touches only the pattern. A listed row may hold a
/// value that cancelled to `0.0`; walkers skip it as a full scan would.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseWork {
    vals: Vec<f64>,
    pattern: Vec<u32>,
    mark: Vec<bool>,
}

impl SparseWork {
    /// Resizes to `m` rows, all zero, keeping capacity. `O(m)`: once per
    /// solve, not per column.
    pub(crate) fn reset(&mut self, m: usize) {
        self.vals.clear();
        self.vals.resize(m, 0.0);
        self.mark.clear();
        self.mark.resize(m, false);
        self.pattern.clear();
    }

    /// Zeroes the vector in `O(nnz)` by walking its pattern.
    pub(crate) fn clear(&mut self) {
        for &i in &self.pattern {
            self.vals[i as usize] = 0.0;
            self.mark[i as usize] = false;
        }
        self.pattern.clear();
    }

    /// `x[i] += v`, recording `i` in the pattern on first touch.
    pub(crate) fn add(&mut self, i: usize, v: f64) {
        if !self.mark[i] {
            self.mark[i] = true;
            self.pattern.push(i as u32);
        }
        self.vals[i] += v;
    }

    /// The value at row `i`.
    pub(crate) fn get(&self, i: usize) -> f64 {
        self.vals[i]
    }

    /// The rows that may be nonzero, ascending after an FTRAN.
    pub(crate) fn pattern(&self) -> &[u32] {
        &self.pattern
    }

    /// Bytes of heap capacity pinned by the three arenas.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<f64>()
            + self.pattern.capacity() * std::mem::size_of::<u32>()
            + self.mark.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A work vector holding `vals`, its nonzero rows in the pattern.
    fn work(vals: &[f64]) -> SparseWork {
        let mut w = SparseWork::default();
        w.reset(vals.len());
        for (i, &v) in vals.iter().enumerate() {
            if v != 0.0 {
                w.add(i, v);
            }
        }
        w
    }

    /// Dense reference: multiply the eta file out against a vector.
    fn ftran_ref(f: &Factorization, x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        f.ftran(&mut out);
        out
    }

    /// Dense reference for [`Factorization::push_eta`]: the full `0..m`
    /// scan the pattern walk replaces.
    fn push_eta_dense(f: &mut Factorization, r: usize, w: &[f64]) -> bool {
        let piv = w[r];
        if piv.abs() < 1e-12 || !piv.is_finite() {
            return false;
        }
        let pivot_val = 1.0 / piv;
        let start = f.rows.len() as u32;
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi != 0.0 {
                f.rows.push(i as u32);
                f.vals.push(-wi * pivot_val);
            }
        }
        f.heads.push(EtaHead {
            pivot_row: r as u32,
            pivot_val,
            start,
            end: f.rows.len() as u32,
        });
        true
    }

    /// Asserts that the pattern FTRAN of `x` gives the dense FTRAN's bits
    /// and a pattern listing every nonzero row exactly once, ascending,
    /// with only zeros outside it.
    fn assert_pattern_ftran_matches(f: &Factorization, x: &[f64]) {
        let dense = ftran_ref(f, x);
        let mut w = work(x);
        f.ftran_sparse(&mut w);
        let got: Vec<u64> = w.vals.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = dense.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "pattern FTRAN moved a bit");
        assert!(w.pattern.windows(2).all(|p| p[0] < p[1]), "{:?}", w.pattern);
        for (i, &v) in dense.iter().enumerate() {
            let listed = w.pattern.contains(&(i as u32));
            assert_eq!(w.mark[i], listed, "mark and pattern disagree at row {i}");
            assert!(
                listed || v.to_bits() == 0,
                "row {i} = {v} is off the pattern"
            );
        }
        w.clear();
        assert!(w.pattern.is_empty());
        assert!(w.vals.iter().all(|v| v.to_bits() == 0) && !w.mark.contains(&true));
    }

    /// A small deterministic stream for the property test's payloads.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A dyadic value, so that sums cancel to exactly `0.0` often.
        fn dyadic(&mut self) -> f64 {
            const VALUES: [f64; 6] = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0];
            VALUES[self.below(VALUES.len())]
        }

        /// A length-`m` vector with about `nnz` dyadic nonzeros.
        fn sparse(&mut self, m: usize, nnz: usize) -> Vec<f64> {
            let mut v = vec![0.0; m];
            for _ in 0..nnz {
                let i = self.below(m);
                v[i] = self.dyadic();
            }
            v
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random eta files and sparse right-hand sides: the pattern FTRAN
        /// is bit-identical to the dense one, and the pattern eta append
        /// stores the dense append's `(row, value)` sequence.
        #[test]
        fn pattern_ftran_and_eta_append_match_the_dense_reference(seed in 0u64..u64::MAX) {
            let mut rng = SplitMix(seed);
            let m = 1 + rng.below(24);
            let mut sparse = Factorization::default();
            let mut dense = Factorization::default();
            sparse.reset(m);
            dense.reset(m);
            for _ in 0..rng.below(2 * m + 1) {
                // Each eta is built from an FTRAN'd sparse column, as in
                // the kernel, so its entries carry real cancellation.
                let nnz = 1 + rng.below(4);
                let col = rng.sparse(m, nnz);
                let r = rng.below(m);
                let mut w = work(&col);
                sparse.ftran_sparse(&mut w);
                let dense_w = ftran_ref(&dense, &col);
                let pushed = sparse.push_eta(r, &w);
                prop_assert_eq!(pushed, push_eta_dense(&mut dense, r, &dense_w));
                prop_assert_eq!(&sparse.rows, &dense.rows);
                let bits = |f: &Factorization| -> Vec<u64> {
                    f.vals.iter().map(|v| v.to_bits()).collect()
                };
                prop_assert_eq!(bits(&sparse), bits(&dense));
            }
            for _ in 0..4 {
                let nnz = rng.below(m + 1);
                let x = rng.sparse(m, nnz);
                assert_pattern_ftran_matches(&sparse, &x);
            }
        }
    }

    #[test]
    fn a_row_that_cancels_to_zero_and_is_touched_again_is_listed_once() {
        let mut f = Factorization::default();
        f.reset(3);
        // E₁ pivots row 0 with unit pivot and sends −x₀ into row 1;
        // E₂ pivots row 2 and sends +x₂ into row 1.
        assert!(f.push_eta(0, &work(&[1.0, 1.0, 0.0])));
        assert!(f.push_eta(2, &work(&[0.0, -1.0, 1.0])));
        // x = (1, 1, 1): E₁ cancels row 1 to exactly 0.0, E₂ touches it
        // again and brings it back to 1.0.
        let mut w = work(&[1.0, 1.0, 1.0]);
        f.ftran_sparse(&mut w);
        assert_eq!(w.pattern(), &[0, 1, 2]);
        assert_eq!(w.vals, vec![1.0, 1.0, 1.0]);
        assert_pattern_ftran_matches(&f, &[1.0, 1.0, 1.0]);
        // x = (1, 1, 0): row 1 cancels and stays 0.0 — still listed, and
        // the eta append skips it exactly as the dense scan does.
        let mut w = work(&[1.0, 1.0, 0.0]);
        f.ftran_sparse(&mut w);
        assert_eq!(w.pattern(), &[0, 1]);
        assert_eq!(w.get(1).to_bits(), 0);
        assert_pattern_ftran_matches(&f, &[1.0, 1.0, 0.0]);
        let mut dense = f.clone();
        assert!(f.push_eta(0, &w));
        assert!(push_eta_dense(&mut dense, 0, &w.vals));
        assert_eq!((f.rows, f.vals), (dense.rows, dense.vals));
    }

    #[test]
    fn empty_file_is_the_identity() {
        let mut f = Factorization::default();
        f.reset(3);
        let mut x = vec![1.0, -2.0, 3.0];
        f.ftran(&mut x);
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
        let mut y = vec![4.0, 5.0, 6.0];
        f.btran(&mut y);
        assert_eq!(y, vec![4.0, 5.0, 6.0]);
        assert_eq!(f.eta_count(), 0);
        assert_eq!(f.entry_count(), 0);
    }

    #[test]
    fn push_eta_rejects_tiny_pivots() {
        let mut f = Factorization::default();
        f.reset(2);
        assert!(!f.push_eta(0, &work(&[1e-13, 1.0])));
        assert_eq!(f.eta_count(), 0);
        assert!(f.push_eta(0, &work(&[2.0, 1.0])));
        assert_eq!(f.eta_count(), 1);
    }

    #[test]
    fn ftran_btran_agree_with_the_explicit_inverse() {
        // Build B⁻¹ for B = [[2, 1], [1, 3]] by pivoting its columns in:
        // start from I, enter column (2,1) at row 0, then (1,3) at row 1.
        let mut f = Factorization::default();
        f.reset(2);
        // w = B⁻¹_current · A_0 = I·(2,1) = (2,1); pivot row 0.
        assert!(f.push_eta(0, &work(&[2.0, 1.0])));
        // w = E₁·(1,3): t = 1, w0 = 0.5, w1 = 3 - 0.5 = 2.5; pivot row 1.
        let mut w = work(&[1.0, 3.0]);
        f.ftran_sparse(&mut w);
        assert!((w.get(0) - 0.5).abs() < 1e-12);
        assert!((w.get(1) - 2.5).abs() < 1e-12);
        assert!(f.push_eta(1, &w));

        // det B = 5; B⁻¹ = [[0.6, -0.2], [-0.2, 0.4]].
        let binv = [[0.6, -0.2], [-0.2, 0.4]];
        for probe in [[1.0, 0.0], [0.0, 1.0], [3.0, -2.0]] {
            let got = ftran_ref(&f, &probe);
            for i in 0..2 {
                let want: f64 = (0..2).map(|k| binv[i][k] * probe[k]).sum();
                assert!((got[i] - want).abs() < 1e-12, "ftran {probe:?} row {i}");
            }
            let mut y = probe.to_vec();
            f.btran(&mut y);
            for k in 0..2 {
                let want: f64 = (0..2).map(|i| probe[i] * binv[i][k]).sum();
                assert!((y[k] - want).abs() < 1e-12, "btran {probe:?} col {k}");
            }
        }
    }

    #[test]
    fn reset_clears_but_keeps_capacity() {
        let mut f = Factorization::default();
        f.reset(2);
        assert!(f.push_eta(0, &work(&[1.0, 0.5])));
        let bytes = f.capacity_bytes();
        assert!(bytes > 0);
        f.reset(2);
        assert_eq!(f.eta_count(), 0);
        assert_eq!(f.capacity_bytes(), bytes);
    }
}
