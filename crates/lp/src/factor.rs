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
//! a thousand or more rows, and so do their FTRAN results and the rows
//! of `B⁻¹` a pivot touches (Hall & McKinnon's *hyper-sparsity*). Both
//! solves therefore cost what they touch, not `m` plus the whole file.
//!
//! **The row index.** [`Factorization::push_eta`] also files each eta in
//! two chains per row, newest first: the etas that pivot on the row
//! (its *writers*) and every eta that reads it, as pivot or off-pivot
//! entry (its *readers*). Both live in flat arenas next to the file.
//!
//! **FTRAN.** The entering direction lives in a [`SparseWork`]: a dense
//! value array that also records its nonzero pattern and stays all-zero
//! between uses. [`Factorization::ftran_indexed`] seeds a min-heap with
//! the writers of the column's rows; when an eta fills a row in, that
//! row's later writers join the heap. Every eta the dense
//! [`Factorization::ftran`] would apply (those whose pivot component is
//! nonzero) runs, in the same order, with the same arithmetic, so the
//! values and the ascending pattern are bit-identical.
//!
//! **BTRAN.** [`Factorization::btran`] runs the full reverse pass and
//! records each eta's output. After an exchange appends one eta and
//! changes `c_B` only at its pivot row, [`Factorization::btran_update`]
//! re-applies only the *cone* of etas whose inputs changed, newest
//! first: each reads every row at the value the full pass would see
//! there (the output of that row's nearest later writer, or `c_B`), and
//! only an eta whose output bits moved passes the change on to the
//! readers of its pivot row. Untouched etas keep outputs computed from
//! identical inputs, so `y` keeps the full pass's bits.
//!
//! Every walker of a pattern sees rows ascending, as a full `0..m` scan
//! would, so the pattern changes the cost, never the result. The
//! right-hand side of `x_B` is dense, and keeps the dense
//! [`Factorization::ftran`].
//!
//! Storage is flat — one header per eta plus two parallel arrays of
//! off-pivot `(row, value)` entries, and the chains as index arrays — so
//! a [`Factorization`] owned by a workspace is reused across solves
//! without allocating once its capacity has grown to the working-set
//! size.

// Kernel storage: every row index is below the `m` the file was reset
// with, minted by the caller from in-range pivot rows, and every eta or
// chain-node index was minted by `push_eta`; runtime bound checks in the
// FTRAN/BTRAN inner loops would be pure overhead.
// audit:allow-file(slice-index): eta entries are bounded by the m the file was reset with; see module note
#![allow(clippy::indexing_slicing)]

use std::collections::BinaryHeap;

/// The empty link of a row or eta chain.
const NONE: u32 = u32::MAX;

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

/// A basis inverse in product (eta-file) form, with its row index. See
/// the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factorization {
    m: usize,
    heads: Vec<EtaHead>,
    /// Off-pivot entry rows, flat across all etas (`heads[i]` owns
    /// `rows[start..end]` / `vals[start..end]`).
    rows: Vec<u32>,
    vals: Vec<f64>,
    /// Newest eta pivoting on each row, or [`NONE`].
    row_writer: Vec<u32>,
    /// Per eta: the next older eta pivoting on the same row, or [`NONE`].
    older_writer: Vec<u32>,
    /// Newest reader node of each row, or [`NONE`]. Eta `i` owns nodes
    /// `i + start ..= i + end`: its pivot read first, then one per entry.
    row_reader: Vec<u32>,
    /// Per reader node: the eta that reads, and the next older node on
    /// the same row ([`NONE`] ends the chain).
    reader_eta: Vec<u32>,
    reader_next: Vec<u32>,
    /// Per eta: its output in the last BTRAN (the value it wrote to its
    /// pivot row).
    out: Vec<f64>,
    /// Eta indices waiting in a solve, and their queued flags (all false
    /// between solves). FTRAN stores `NONE - i` to pop ascending.
    heap: BinaryHeap<u32>,
    queued: Vec<bool>,
}

impl Factorization {
    /// Resets the file to the identity on `m` rows, keeping capacity.
    pub(crate) fn reset(&mut self, m: usize) {
        self.m = m;
        self.heads.clear();
        self.rows.clear();
        self.vals.clear();
        self.row_writer.clear();
        self.row_writer.resize(m, NONE);
        self.older_writer.clear();
        self.row_reader.clear();
        self.row_reader.resize(m, NONE);
        self.reader_eta.clear();
        self.reader_next.clear();
        self.out.clear();
        self.queued.clear();
    }

    /// Number of etas in the file (the refactorization trigger input).
    pub(crate) fn eta_count(&self) -> usize {
        self.heads.len()
    }

    /// Total off-pivot entries across the file (the eta-length telemetry).
    pub(crate) fn entry_count(&self) -> usize {
        self.rows.len()
    }

    /// Bytes of heap capacity currently pinned by the file and its index.
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        let u32s = self.rows.capacity()
            + self.row_writer.capacity()
            + self.older_writer.capacity()
            + self.row_reader.capacity()
            + self.reader_eta.capacity()
            + self.reader_next.capacity()
            + self.heap.capacity();
        self.heads.capacity() * size_of::<EtaHead>()
            + u32s * size_of::<u32>()
            + (self.vals.capacity() + self.out.capacity()) * size_of::<f64>()
            + self.queued.capacity()
    }

    /// Appends the eta matrix that maps the entering direction
    /// `w = B⁻¹·Aⱼ` onto `e_r`, i.e. performs the basis exchange at pivot
    /// row `r`, and files it in the row index. `w` must be zero outside
    /// its pattern. Returns `false` (file unchanged) if the pivot element
    /// `w[r]` is too small to divide by safely — the caller must then
    /// refactorize or fall back.
    pub(crate) fn push_eta(&mut self, r: usize, w: &SparseWork) -> bool {
        debug_assert_eq!(w.vals.len(), self.m);
        let piv = w.vals[r];
        if piv.abs() < 1e-12 || !piv.is_finite() {
            return false;
        }
        let pivot_val = 1.0 / piv;
        let eta = self.heads.len() as u32;
        let start = self.rows.len() as u32;
        self.link_reader(r, eta);
        for &i in &w.pattern {
            let wi = w.vals[i as usize];
            if i as usize != r && wi != 0.0 {
                self.rows.push(i);
                self.vals.push(-wi * pivot_val);
                self.link_reader(i as usize, eta);
            }
        }
        self.heads.push(EtaHead {
            pivot_row: r as u32,
            pivot_val,
            start,
            end: self.rows.len() as u32,
        });
        self.older_writer.push(self.row_writer[r]);
        self.row_writer[r] = eta;
        self.out.push(0.0);
        self.queued.push(false);
        // A solve queues each eta at most once: with room for the whole
        // file, the heap never grows mid-solve.
        self.heap.reserve(self.heads.len());
        true
    }

    /// Files eta `eta` at the head of row `q`'s reader chain.
    fn link_reader(&mut self, q: usize, eta: u32) {
        self.reader_next.push(self.row_reader[q]);
        self.row_reader[q] = self.reader_eta.len() as u32;
        self.reader_eta.push(eta);
    }

    /// Queues `eta` (as `key`) unless it is already waiting.
    fn enqueue(&mut self, eta: u32, key: u32) {
        if !self.queued[eta as usize] {
            self.queued[eta as usize] = true;
            self.heap.push(key);
        }
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

    /// `x ← B⁻¹·x` on a [`SparseWork`], through the row index: the etas
    /// whose pivot component is nonzero — exactly those the dense
    /// [`ftran`](Self::ftran) applies — run in the same order with the
    /// same arithmetic, and every row an eta fills in is added to the
    /// pattern, which ends ascending. Costs the writers of the rows the
    /// result touches (a heap operation each) plus their entries.
    pub(crate) fn ftran_indexed(&mut self, x: &mut SparseWork) {
        debug_assert_eq!(x.vals.len(), self.m);
        for p in 0..x.pattern.len() {
            self.enqueue_writers(x.pattern[p] as usize, 0);
        }
        while let Some(key) = self.heap.pop() {
            let i = NONE - key;
            self.queued[i as usize] = false;
            let h = self.heads[i as usize];
            let r = h.pivot_row as usize;
            let t = x.vals[r];
            if t == 0.0 {
                continue;
            }
            x.vals[r] = h.pivot_val * t;
            for k in h.start as usize..h.end as usize {
                let q = self.rows[k] as usize;
                if !x.mark[q] {
                    // A fill-in: the row's later writers now see a value.
                    self.enqueue_writers(q, i + 1);
                }
                x.add(q, self.vals[k] * t);
            }
        }
        x.pattern.sort_unstable();
    }

    /// Queues (min-first) every writer of row `q` with index `≥ from`.
    fn enqueue_writers(&mut self, q: usize, from: u32) {
        let mut e = self.row_writer[q];
        while e != NONE && e >= from {
            self.enqueue(e, NONE - e);
            e = self.older_writer[e as usize];
        }
    }

    /// `yᵀ ← c_Bᵀ·B⁻¹`: copies `cb` into `y` and applies the etas in
    /// reverse order (`Eₖ` first), recording each eta's output for
    /// [`btran_update`](Self::btran_update). Each eta touches only its
    /// pivot component: `y[r] ← η_r·y[r] + Σᵢ ηᵢ·y[i]`.
    pub(crate) fn btran(&mut self, cb: &[f64], y: &mut [f64]) {
        let mut out = std::mem::take(&mut self.out);
        self.reverse_pass(cb, y, |i, acc| out[i] = acc);
        self.out = out;
    }

    /// Whether `y` and every recorded eta output equal a full
    /// [`btran`](Self::btran) from `cb`, bit for bit; `scratch` holds the
    /// fresh pass. The debug self-check of the cone updates.
    #[cfg(debug_assertions)]
    pub(crate) fn btran_is_fresh(&self, cb: &[f64], y: &[f64], scratch: &mut [f64]) -> bool {
        let mut outs_match = true;
        self.reverse_pass(cb, scratch, |i, acc| {
            outs_match &= acc.to_bits() == self.out[i].to_bits();
        });
        outs_match
            && scratch
                .iter()
                .zip(y)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The full reverse pass behind both of the above: `y ← cb`, then
    /// each eta from the newest down, handing `record` its index and
    /// output.
    fn reverse_pass(&self, cb: &[f64], y: &mut [f64], mut record: impl FnMut(usize, f64)) {
        debug_assert_eq!(y.len(), self.m);
        y.copy_from_slice(cb);
        for (i, h) in self.heads.iter().enumerate().rev() {
            let r = h.pivot_row as usize;
            let mut acc = h.pivot_val * y[r];
            for k in h.start as usize..h.end as usize {
                acc += self.vals[k] * y[self.rows[k] as usize];
            }
            y[r] = acc;
            record(i, acc);
        }
    }

    /// Brings `y` from the last BTRAN up to date after one
    /// [`push_eta`](Self::push_eta) on row `r` whose exchange changed
    /// `cb` only at `r`: re-applies, newest first, the etas whose inputs
    /// changed, and appends to `changed` every row whose multiplier bits
    /// moved. `y` ends bit-identical to a full [`btran`](Self::btran).
    pub(crate) fn btran_update(&mut self, cb: &[f64], y: &mut [f64], changed: &mut Vec<u32>) {
        let Some(top) = self.heads.len().checked_sub(1) else {
            return;
        };
        self.enqueue(top as u32, top as u32);
        while let Some(i) = self.heap.pop() {
            let i = i as usize;
            self.queued[i] = false;
            let h = self.heads[i];
            let r = h.pivot_row as usize;
            let mut acc = h.pivot_val * self.input(cb, r, i);
            for k in h.start as usize..h.end as usize {
                acc += self.vals[k] * self.input(cb, self.rows[k] as usize, i);
            }
            if i != top && acc.to_bits() == self.out[i].to_bits() {
                continue;
            }
            self.out[i] = acc;
            if self.older_writer[i] == NONE && acc.to_bits() != y[r].to_bits() {
                // The row's lowest writer: its output is the multiplier.
                y[r] = acc;
                changed.push(r as u32);
            }
            // The older readers of row r saw this output, down to and
            // including its next writer; older ones see that writer's.
            let mut node = self.reader_next[i + h.start as usize];
            while node != NONE {
                let e = self.reader_eta[node as usize];
                self.enqueue(e, e);
                if self.heads[e as usize].pivot_row as usize == r {
                    break;
                }
                node = self.reader_next[node as usize];
            }
        }
    }

    /// The value a full BTRAN holds in row `q` when eta `i` runs: the
    /// output of the row's nearest writer above `i`, else `cb[q]`.
    fn input(&self, cb: &[f64], q: usize, i: usize) -> f64 {
        let mut v = cb[q];
        let mut e = self.row_writer[q];
        while e != NONE && e as usize > i {
            v = self.out[e as usize];
            e = self.older_writer[e as usize];
        }
        v
    }

    /// Grows every buffer to at least `other`'s capacity, so rebuilding
    /// here any file `other` has held allocates nothing.
    #[cfg(debug_assertions)]
    pub(crate) fn reserve_like(&mut self, other: &Factorization) {
        fn grow<T>(v: &mut Vec<T>, capacity: usize) {
            v.reserve(capacity.saturating_sub(v.len()));
        }
        grow(&mut self.heads, other.heads.capacity());
        grow(&mut self.rows, other.rows.capacity());
        grow(&mut self.vals, other.vals.capacity());
        grow(&mut self.row_writer, other.row_writer.capacity());
        grow(&mut self.older_writer, other.older_writer.capacity());
        grow(&mut self.row_reader, other.row_reader.capacity());
        grow(&mut self.reader_eta, other.reader_eta.capacity());
        grow(&mut self.reader_next, other.reader_next.capacity());
        grow(&mut self.out, other.out.capacity());
        grow(&mut self.queued, other.queued.capacity());
        self.heap
            .reserve(other.heap.capacity().saturating_sub(self.heap.len()));
    }

    /// Whether `other` holds the same etas, entry for entry, bit for bit
    /// (the row index follows from them).
    #[cfg(debug_assertions)]
    pub(crate) fn same_file(&self, other: &Factorization) -> bool {
        let head = |h: &EtaHead| (h.pivot_row, h.pivot_val.to_bits(), h.start, h.end);
        self.m == other.m
            && self.heads.iter().map(head).eq(other.heads.iter().map(head))
            && self.rows == other.rows
            && self
                .vals
                .iter()
                .map(|x| x.to_bits())
                .eq(other.vals.iter().map(|x| x.to_bits()))
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

    /// Dense reference BTRAN: `c_Bᵀ·B⁻¹` by one reverse pass over the
    /// whole file, reading no recorded output.
    fn btran_ref(f: &Factorization, cb: &[f64]) -> Vec<f64> {
        let mut y = cb.to_vec();
        for h in f.heads.iter().rev() {
            let r = h.pivot_row as usize;
            let mut acc = h.pivot_val * y[r];
            for k in h.start as usize..h.end as usize {
                acc += f.vals[k] * y[f.rows[k] as usize];
            }
            y[r] = acc;
        }
        y
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// Dense reference for [`Factorization::push_eta`]: the full `0..m`
    /// scan the pattern walk replaces. Stores the eta only (no row
    /// index), so the file it builds serves the dense solves alone.
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

    /// Asserts that the indexed FTRAN of `x` gives the dense FTRAN's bits
    /// and a pattern listing every nonzero row exactly once, ascending,
    /// with only zeros outside it.
    fn assert_indexed_ftran_matches(f: &mut Factorization, x: &[f64]) {
        let dense = ftran_ref(f, x);
        let mut w = work(x);
        f.ftran_indexed(&mut w);
        assert_eq!(bits(&w.vals), bits(&dense), "indexed FTRAN moved a bit");
        assert!(w.pattern.windows(2).all(|p| p[0] < p[1]), "{:?}", w.pattern);
        for (i, &v) in dense.iter().enumerate() {
            let listed = w.pattern.contains(&(i as u32));
            assert_eq!(w.mark[i], listed, "mark and pattern disagree at row {i}");
            assert!(
                listed || v.to_bits() == 0,
                "row {i} = {v} is off the pattern"
            );
        }
        assert!(f.heap.is_empty() && !f.queued.contains(&true));
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

        /// Random eta files and sparse right-hand sides: the indexed FTRAN
        /// is bit-identical to the dense one, the pattern eta append
        /// stores the dense append's `(row, value)` sequence, and after
        /// every append the cone BTRAN from the previous multipliers lands
        /// on a full BTRAN's bits and reports exactly the rows it moved.
        /// Pivot rows are drawn with replacement, so rows get several
        /// writers (update etas), and dyadic payloads cancel exactly.
        #[test]
        fn indexed_solves_match_the_dense_reference(seed in 0u64..u64::MAX) {
            let mut rng = SplitMix(seed);
            let m = 1 + rng.below(24);
            let mut sparse = Factorization::default();
            let mut dense = Factorization::default();
            sparse.reset(m);
            dense.reset(m);
            let mut cb = rng.sparse(m, m / 2);
            let mut y = vec![0.0; m];
            sparse.btran(&cb, &mut y);
            prop_assert_eq!(bits(&y), bits(&cb));
            let mut changed = Vec::new();
            for _ in 0..rng.below(3 * m + 1) {
                // Each eta is built from an FTRAN'd sparse column, as in
                // the kernel, so its entries carry real cancellation.
                let nnz = 1 + rng.below(4);
                let col = rng.sparse(m, nnz);
                let r = rng.below(m);
                let mut w = work(&col);
                sparse.ftran_indexed(&mut w);
                let dense_w = ftran_ref(&dense, &col);
                prop_assert_eq!(bits(&w.vals), bits(&dense_w));
                let pushed = sparse.push_eta(r, &w);
                prop_assert_eq!(pushed, push_eta_dense(&mut dense, r, &dense_w));
                prop_assert_eq!(&sparse.rows, &dense.rows);
                prop_assert_eq!(bits(&sparse.vals), bits(&dense.vals));
                if !pushed {
                    continue;
                }
                // The exchange changes c_B at the pivot row only (and
                // sometimes not at all).
                if rng.below(4) != 0 {
                    cb[r] = rng.dyadic();
                }
                let before = y.clone();
                changed.clear();
                sparse.btran_update(&cb, &mut y, &mut changed);
                let want = btran_ref(&dense, &cb);
                prop_assert_eq!(bits(&y), bits(&want), "cone BTRAN moved a bit");
                let mut moved: Vec<u32> = (0..m)
                    .filter(|&i| before[i].to_bits() != want[i].to_bits())
                    .map(|i| i as u32)
                    .collect();
                changed.sort_unstable();
                moved.sort_unstable();
                prop_assert_eq!(&changed, &moved);
                // The recorded outputs equal a full pass's, so the next
                // cone starts from the same state a fresh BTRAN leaves.
                let mut full = sparse.clone();
                let mut y_full = vec![0.0; m];
                full.btran(&cb, &mut y_full);
                prop_assert_eq!(bits(&y_full), bits(&want));
                prop_assert_eq!(bits(&sparse.out), bits(&full.out));
                prop_assert!(sparse.heap.is_empty() && !sparse.queued.contains(&true));
            }
            for _ in 0..4 {
                let nnz = rng.below(m + 1);
                let x = rng.sparse(m, nnz);
                assert_indexed_ftran_matches(&mut sparse, &x);
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
        f.ftran_indexed(&mut w);
        assert_eq!(w.pattern(), &[0, 1, 2]);
        assert_eq!(w.vals, vec![1.0, 1.0, 1.0]);
        assert_indexed_ftran_matches(&mut f, &[1.0, 1.0, 1.0]);
        // x = (1, 1, 0): row 1 cancels and stays 0.0 — still listed, and
        // the eta append skips it exactly as the dense scan does.
        let mut w = work(&[1.0, 1.0, 0.0]);
        f.ftran_indexed(&mut w);
        assert_eq!(w.pattern(), &[0, 1]);
        assert_eq!(w.get(1).to_bits(), 0);
        assert_indexed_ftran_matches(&mut f, &[1.0, 1.0, 0.0]);
        let mut dense = f.clone();
        assert!(f.push_eta(0, &w));
        assert!(push_eta_dense(&mut dense, 0, &w.vals));
        assert_eq!((f.rows, f.vals), (dense.rows, dense.vals));
    }

    #[test]
    fn a_fill_in_reaches_a_later_writer_of_the_filled_row() {
        // E₁ pivots row 0 and fills row 1; E₂ pivots row 1. A right-hand
        // side on row 0 alone reaches E₂ only through E₁'s fill-in.
        let mut f = Factorization::default();
        f.reset(2);
        assert!(f.push_eta(0, &work(&[2.0, 1.0])));
        let mut w = work(&[0.0, 4.0]);
        f.ftran_indexed(&mut w);
        assert!(f.push_eta(1, &w));
        assert_indexed_ftran_matches(&mut f, &[1.0, 0.0]);
        let mut w = work(&[1.0, 0.0]);
        f.ftran_indexed(&mut w);
        assert_eq!(w.vals, vec![0.5, -0.125]);
    }

    #[test]
    fn an_update_on_a_rewritten_row_reaches_its_older_writer() {
        // E₁ and E₂ pivot on row 0, E₂ also reads row 1, E₃ pivots on
        // row 1. A new cost on row 1 re-applies E₃, reaches E₂ through
        // row 1's readers, and E₂'s new output must walk row 0's readers
        // down to E₁ (the row's next writer), whose output is y[0].
        let mut f = Factorization::default();
        f.reset(2);
        assert!(f.push_eta(0, &work(&[2.0, 0.0])));
        assert!(f.push_eta(0, &work(&[2.0, 1.0])));
        let mut cb = vec![1.0, 0.0];
        let mut y = vec![0.0; 2];
        f.btran(&cb, &mut y);
        assert!(f.push_eta(1, &work(&[0.0, 0.5])));
        cb[1] = 4.0;
        let mut changed = Vec::new();
        f.btran_update(&cb, &mut y, &mut changed);
        assert_eq!(bits(&y), bits(&btran_ref(&f, &cb)));
        changed.sort_unstable();
        assert_eq!(changed, vec![0, 1]);
        // y = (1, 4)·E₃·E₂·E₁: E₃ doubles row 1 to 8, E₂ takes row 0 to
        // 0.5·1 − 0.5·8 = −3.5, E₁ halves it.
        assert_eq!(y, vec![-1.75, 8.0]);
    }

    #[test]
    fn empty_file_is_the_identity() {
        let mut f = Factorization::default();
        f.reset(3);
        let mut x = vec![1.0, -2.0, 3.0];
        f.ftran(&mut x);
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
        let mut y = vec![0.0; 3];
        f.btran(&[4.0, 5.0, 6.0], &mut y);
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
        f.ftran_indexed(&mut w);
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
            let mut y = vec![0.0; 2];
            f.btran(&probe, &mut y);
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
