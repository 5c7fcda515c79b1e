//! Adaptive binary relations over `0..n`: dense bit matrix + sparse CSR.
//!
//! REE evaluation (§3 of the paper) and GXPath evaluation (§9) both reduce
//! to an algebra of binary relations over the nodes of a graph: composition,
//! union, transitive closure and filtering. [`Relation`] implements that
//! algebra over **two internal representations** and switches between them
//! automatically:
//!
//! * **Dense** — a packed bit matrix (`n` rows of `⌈n/64⌉` words, 64 pairs
//!   per word), the representation of the original implementation. Best for
//!   small dimensions and dense contents; every boolean combination is a
//!   straight word loop.
//! * **Sparse** — a CSR-style arena: one `Vec<u32>` of column indices,
//!   sorted and deduplicated per row, plus an `n+1` offset array. Costs
//!   ~32 bits per pair instead of `n` bits per row, which is what makes
//!   10⁴–10⁶-node sparse graphs affordable: a dense 1M-node relation is
//!   125 GB, a 3M-edge CSR is ~12 MB.
//!
//! **Switching heuristic.** Every construction site that knows its pair
//! count ([`Relation::from_pairs`], [`RelationBuilder`], the algebra ops)
//! picks `dense ⇔ n ≤ 256 ∨ nnz·32 ≥ n²` — below 257 nodes the matrix is
//! at most 8 KiB and always wins; above that, dense wins once the average
//! row holds one pair per 32 columns (a `u32` column entry costs 32 bits,
//! a matrix column costs 1). Results adapt independently of their inputs:
//! composing two sparse relations may produce a dense result (closure-like
//! products) and vice versa (filters of dense relations). Mixed-repr
//! operands take fast paths without converting. [`Relation::force_dense`] /
//! [`Relation::force_sparse`] override the choice for tests and benchmarks.
//!
//! **Transitive closure.** Small relations use Warshall on packed rows
//! (`O(n³/64)` word ops). Everything else uses SCC condensation (iterative
//! Tarjan) + topological reachability over per-SCC bitsets —
//! `O(E + C²/64)` for `C` components — and then materialises per-SCC rows
//! once. That asymptotic gap is what turns 20k-node closures from minutes
//! into milliseconds. [`Relation::transitive_closure_warshall`] is the
//! production closure for every `n ≤ 256`, and the test oracle and
//! benchmark baseline of the SCC path above that.
//!
//! **Parallelism.** The hot operations (composition, sparse unions, large
//! dense boolean combinations, closure materialisation) run over contiguous
//! row blocks on `std::thread::scope` workers. The thread-count knob lives
//! in [`crate::par`] ([`crate::par::set_max_threads`]); relations below
//! ~1k rows always run sequentially.
//!
//! **Mutation.** [`Relation::insert`] / [`Relation::remove`] are cheap on
//! the dense matrix but `O(n + nnz)` on the sparse arena (offset bump plus
//! arena splice). Bulk construction should go through [`RelationBuilder`]
//! or [`Relation::from_pairs`], which buffer rows and build the arena in
//! one pass.

use crate::par;
use std::fmt;

/// Dimensions at or below this always use the dense matrix (≤ 8 KiB).
const DENSE_MAX_N: usize = 256;

/// A sparse pair costs ~32 bits (one `u32` column entry); a dense row costs
/// `n` bits regardless. Dense wins once `nnz · 32 ≥ n²`.
const DENSE_BITS_PER_PAIR: usize = 32;

/// Minimum rows per worker before row-block parallel paths engage.
const PAR_MIN_ROWS: usize = 512;

/// Minimum words per worker before flat word-loop parallel paths engage.
const PAR_MIN_WORDS: usize = 1 << 15;

#[inline]
fn dense_is_better(n: usize, nnz: usize) -> bool {
    n <= DENSE_MAX_N || nnz.saturating_mul(DENSE_BITS_PER_PAIR) >= n.saturating_mul(n)
}

/// A binary relation `R ⊆ {0..n}²` with an adaptive internal
/// representation. See the module docs for the dense/sparse split and the
/// switching heuristic.
#[derive(Clone)]
pub struct Relation {
    n: usize,
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Dense(Dense),
    Sparse(Csr),
}

/// Packed bit matrix: row `i` is `bits[i*wpr .. (i+1)*wpr]`; bits beyond
/// column `n` in the last word of each row are kept zero.
#[derive(Clone, PartialEq, Eq)]
struct Dense {
    wpr: usize,
    bits: Vec<u64>,
}

/// CSR arena: row `i` is `cols[off[i] .. off[i+1]]`, sorted and
/// deduplicated.
#[derive(Clone, PartialEq, Eq)]
struct Csr {
    off: Vec<usize>,
    cols: Vec<u32>,
}

impl Dense {
    fn zero(n: usize) -> Dense {
        let wpr = n.div_ceil(64);
        Dense {
            wpr,
            bits: vec![0; wpr * n],
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.wpr..(i + 1) * self.wpr]
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.wpr..(i + 1) * self.wpr]
    }

    /// Zero out bits beyond column `n` in each row (kept as an invariant).
    fn clear_slack(&mut self, n: usize) {
        let rem = n % 64;
        if rem == 0 || self.wpr == 0 {
            return;
        }
        let mask = (1u64 << rem) - 1;
        for i in 0..n {
            *self
                .row_mut(i)
                .last_mut()
                .expect("invariant: row has words") &= mask;
        }
    }
}

impl Csr {
    fn empty(n: usize) -> Csr {
        Csr {
            off: vec![0; n + 1],
            cols: Vec::new(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.off[i]..self.off[i + 1]]
    }
}

/// Per-block output of a row-parallel sparse operation: the produced
/// columns plus each row's length, concatenated in row order.
struct RowBlock {
    lens: Vec<usize>,
    cols: Vec<u32>,
}

fn assemble_csr(n: usize, blocks: Vec<RowBlock>) -> Csr {
    let total: usize = blocks.iter().map(|b| b.cols.len()).sum();
    let mut off = Vec::with_capacity(n + 1);
    off.push(0usize);
    let mut cols = Vec::with_capacity(total);
    let mut acc = 0usize;
    for b in blocks {
        for l in b.lens {
            acc += l;
            off.push(acc);
        }
        cols.extend_from_slice(&b.cols);
    }
    debug_assert_eq!(off.len(), n + 1);
    Csr { off, cols }
}

/// OR row `j` of `src` into a word buffer covering columns `0..n`.
#[inline]
fn or_row_into(src: &Relation, j: usize, dst: &mut [u64]) {
    match &src.repr {
        Repr::Dense(d) => {
            for (a, b) in dst.iter_mut().zip(d.row(j)) {
                *a |= b;
            }
        }
        Repr::Sparse(s) => {
            for &c in s.row(j) {
                dst[c as usize / 64] |= 1u64 << (c % 64);
            }
        }
    }
}

/// Apply `f` to `a[k] (op)= b[k]` over the whole span, in parallel word
/// chunks when the span is large.
fn par_word_zip(a: &mut [u64], b: &[u64], f: fn(&mut u64, u64)) {
    debug_assert_eq!(a.len(), b.len());
    let t = par::threads_for(a.len(), PAR_MIN_WORDS);
    if t <= 1 {
        for (x, &y) in a.iter_mut().zip(b) {
            f(x, y);
        }
        return;
    }
    let per = a.len().div_ceil(t);
    std::thread::scope(|scope| {
        for (ca, cb) in a.chunks_mut(per).zip(b.chunks(per)) {
            scope.spawn(move || {
                for (x, &y) in ca.iter_mut().zip(cb) {
                    f(x, y);
                }
            });
        }
    });
}

/// Run `f(start_row, row_chunk)` over disjoint row blocks of a dense bit
/// buffer, in parallel when there are enough rows.
fn par_rows_mut(bits: &mut [u64], wpr: usize, rows: usize, f: impl Fn(usize, &mut [u64]) + Sync) {
    if wpr == 0 || rows == 0 {
        return;
    }
    let t = par::threads_for(rows, PAR_MIN_ROWS);
    if t <= 1 {
        f(0, bits);
        return;
    }
    let rows_per = rows.div_ceil(t);
    let chunk = rows_per * wpr;
    std::thread::scope(|scope| {
        for (k, c) in bits.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || f(k * rows_per, c));
        }
    });
}

impl Relation {
    /// The empty relation over `0..n` (sparse above the small-dimension
    /// threshold).
    pub fn empty(n: usize) -> Relation {
        assert!(n <= u32::MAX as usize, "relation dimension exceeds u32");
        let repr = if n <= DENSE_MAX_N {
            Repr::Dense(Dense::zero(n))
        } else {
            Repr::Sparse(Csr::empty(n))
        };
        Relation { n, repr }
    }

    /// The identity relation `{(i,i)}` over `0..n`.
    pub fn identity(n: usize) -> Relation {
        assert!(n <= u32::MAX as usize, "relation dimension exceeds u32");
        if n <= DENSE_MAX_N {
            let mut r = Relation::empty(n);
            for i in 0..n {
                r.insert(i, i);
            }
            r
        } else {
            Relation {
                n,
                repr: Repr::Sparse(Csr {
                    off: (0..=n).collect(),
                    cols: (0..n as u32).collect(),
                }),
            }
        }
    }

    /// The full relation over `0..n` (always dense — it is maximally so).
    pub fn full(n: usize) -> Relation {
        assert!(n <= u32::MAX as usize, "relation dimension exceeds u32");
        let mut d = Dense::zero(n);
        for w in d.bits.iter_mut() {
            *w = u64::MAX;
        }
        d.clear_slack(n);
        Relation {
            n,
            repr: Repr::Dense(d),
        }
    }

    /// Build from an iterator of pairs, choosing the representation by the
    /// resulting density.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Relation {
        let mut b = RelationBuilder::new(n);
        for (i, j) in pairs {
            b.push(i, j);
        }
        b.build()
    }

    /// Dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Is the current representation the dense bit matrix?
    #[inline]
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// Is the current representation the sparse CSR arena?
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Heap bytes held by the current representation (for memory
    /// accounting in benches; capacities are counted at length).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(d) => d.bits.len() * 8,
            Repr::Sparse(s) => s.cols.len() * 4 + s.off.len() * 8,
        }
    }

    /// Heap bytes a dense bit matrix of dimension `n` would occupy —
    /// the `O(n²)` cost the sparse representation avoids.
    pub fn dense_bytes(n: usize) -> usize {
        n.div_ceil(64) * 8 * n
    }

    /// Convert to the dense representation in place (no-op when dense).
    pub fn force_dense(&mut self) {
        if let Repr::Sparse(s) = &self.repr {
            let mut d = Dense::zero(self.n);
            if d.wpr > 0 {
                for i in 0..self.n {
                    let row = d.row_mut(i);
                    for &c in s.row(i) {
                        row[c as usize / 64] |= 1u64 << (c % 64);
                    }
                }
            }
            self.repr = Repr::Dense(d);
        }
    }

    /// Convert to the sparse representation in place (no-op when sparse).
    pub fn force_sparse(&mut self) {
        if let Repr::Dense(d) = &self.repr {
            let mut off = Vec::with_capacity(self.n + 1);
            off.push(0usize);
            let mut cols = Vec::new();
            for i in 0..self.n {
                for (w_idx, &w) in d.row(i).iter().enumerate() {
                    let mut word = w;
                    while word != 0 {
                        let b = word.trailing_zeros() as usize;
                        word &= word - 1;
                        cols.push((w_idx * 64 + b) as u32);
                    }
                }
                off.push(cols.len());
            }
            self.repr = Repr::Sparse(Csr { off, cols });
        }
    }

    /// Re-pick the representation for the current density.
    fn adapt(&mut self) {
        if dense_is_better(self.n, self.len()) {
            self.force_dense();
        } else {
            self.force_sparse();
        }
    }

    /// Insert a pair. `O(1)` dense; `O(n + nnz)` sparse (arena splice) —
    /// prefer [`RelationBuilder`] for bulk construction.
    pub fn insert(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n);
        match &mut self.repr {
            Repr::Dense(d) => d.bits[i * d.wpr + j / 64] |= 1u64 << (j % 64),
            Repr::Sparse(s) => {
                let row = s.row(i);
                if let Err(p) = row.binary_search(&(j as u32)) {
                    let at = s.off[i] + p;
                    s.cols.insert(at, j as u32);
                    for o in &mut s.off[i + 1..] {
                        *o += 1;
                    }
                }
            }
        }
    }

    /// Remove a pair. `O(1)` dense; `O(n + nnz)` sparse.
    pub fn remove(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n);
        match &mut self.repr {
            Repr::Dense(d) => d.bits[i * d.wpr + j / 64] &= !(1u64 << (j % 64)),
            Repr::Sparse(s) => {
                let row = s.row(i);
                if let Ok(p) = row.binary_search(&(j as u32)) {
                    let at = s.off[i] + p;
                    s.cols.remove(at);
                    for o in &mut s.off[i + 1..] {
                        *o -= 1;
                    }
                }
            }
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        match &self.repr {
            Repr::Dense(d) => d.bits[i * d.wpr + j / 64] & (1u64 << (j % 64)) != 0,
            Repr::Sparse(s) => s.row(i).binary_search(&(j as u32)).is_ok(),
        }
    }

    /// Number of pairs. `O(1)` sparse; one matrix scan dense.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Dense(d) => d.bits.iter().map(|w| w.count_ones() as usize).sum(),
            Repr::Sparse(s) => s.cols.len(),
        }
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Dense(d) => d.bits.iter().all(|&w| w == 0),
            Repr::Sparse(s) => s.cols.is_empty(),
        }
    }

    /// Number of pairs in row `i`: `O(1)` sparse, one row scan dense.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        match &self.repr {
            Repr::Dense(d) => d.row(i).iter().map(|w| w.count_ones() as usize).sum(),
            Repr::Sparse(s) => s.off[i + 1] - s.off[i],
        }
    }

    /// Iterate the columns of row `i` in ascending order.
    pub fn row_iter(&self, i: usize) -> RowIter<'_> {
        RowIter {
            inner: match &self.repr {
                Repr::Dense(d) => RowIterInner::Dense {
                    words: d.row(i),
                    idx: 0,
                    cur: 0,
                },
                Repr::Sparse(s) => RowIterInner::Sparse(s.row(i).iter()),
            },
        }
    }

    /// The smallest column `≥ from` in row `i`, if any (resumable row
    /// scanning — used by the iterative Tarjan in the closure).
    fn next_in_row(&self, i: usize, from: usize) -> Option<usize> {
        if from >= self.n {
            return None;
        }
        match &self.repr {
            Repr::Dense(d) => {
                let row = d.row(i);
                let mut w_idx = from / 64;
                if w_idx >= row.len() {
                    return None;
                }
                let mut w = row[w_idx] & (u64::MAX << (from % 64));
                loop {
                    if w != 0 {
                        return Some(w_idx * 64 + w.trailing_zeros() as usize);
                    }
                    w_idx += 1;
                    if w_idx == row.len() {
                        return None;
                    }
                    w = row[w_idx];
                }
            }
            Repr::Sparse(s) => {
                let row = s.row(i);
                let p = row.partition_point(|&c| (c as usize) < from);
                row.get(p).map(|&c| c as usize)
            }
        }
    }

    /// Iterate over all pairs in row-major order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.row_iter(i).map(move |j| (i, j)))
    }

    /// Alias of [`Relation::iter_pairs`], kept for existing callers.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.iter_pairs()
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let n = self.n;
        if matches!((&self.repr, &other.repr), (Repr::Sparse(_), Repr::Dense(_))) {
            self.force_dense();
        }
        let mut densify = false;
        match (&mut self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => par_word_zip(&mut a.bits, &b.bits, |x, y| *x |= y),
            (Repr::Dense(a), Repr::Sparse(b)) => {
                for i in 0..n {
                    let row = a.row_mut(i);
                    for &c in b.row(i) {
                        row[c as usize / 64] |= 1u64 << (c % 64);
                    }
                }
            }
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                let blocks = par::map_blocks(n, PAR_MIN_ROWS, |range| {
                    let mut out = RowBlock {
                        lens: Vec::with_capacity(range.len()),
                        cols: Vec::new(),
                    };
                    for i in range {
                        let before = out.cols.len();
                        crate::merge::merge_two(a.row(i), b.row(i), &mut out.cols);
                        out.lens.push(out.cols.len() - before);
                    }
                    out
                });
                *a = assemble_csr(n, blocks);
                densify = dense_is_better(n, a.cols.len());
            }
            (Repr::Sparse(_), Repr::Dense(_)) => unreachable!("converted above"),
        }
        if densify {
            self.force_dense();
        }
    }

    /// Union.
    pub fn union(&self, other: &Relation) -> Relation {
        let mut r = self.clone();
        r.union_with(other);
        r
    }

    /// k-ary union in one pass. Sparse CSR rows are already sorted, so the
    /// union of `k` sparse relations is a per-row **k-way streaming merge**
    /// ([`crate::merge`]) instead of `k - 1` successive two-way merges that
    /// rewrite the whole arena each time — `O(nnz log k)` and one output
    /// arena. Falls back to folding [`Relation::union_with`] when any input
    /// is dense (bitwise OR is already a single pass there).
    ///
    /// `n` is the dimension of the (possibly empty) result; every input
    /// must share it.
    pub fn union_many(n: usize, rels: &[&Relation]) -> Relation {
        assert!(
            rels.iter().all(|r| r.n == n),
            "dimension mismatch in union_many"
        );
        match rels.len() {
            0 => return Relation::empty(n),
            1 => return rels[0].clone(),
            _ => {}
        }
        if let Some(di) = rels.iter().position(|r| r.is_dense()) {
            // start the fold from a dense input: cloning a sparse arena
            // only to densify it one union later would be pure waste
            let mut acc = rels[di].clone();
            for (i, r) in rels.iter().enumerate() {
                if i != di {
                    acc.union_with(r);
                }
            }
            return acc;
        }
        let blocks = par::map_blocks(n, PAR_MIN_ROWS, |range| {
            let mut out = RowBlock {
                lens: Vec::with_capacity(range.len()),
                cols: Vec::new(),
            };
            let mut heads: Vec<&[u32]> = Vec::with_capacity(rels.len());
            let mut row = Vec::new();
            for i in range {
                heads.clear();
                for r in rels {
                    if let Repr::Sparse(s) = &r.repr {
                        let rr = s.row(i);
                        if !rr.is_empty() {
                            heads.push(rr);
                        }
                    }
                }
                crate::merge::merge_sorted_slices_into(&heads, &mut row);
                out.cols.extend_from_slice(&row);
                out.lens.push(row.len());
            }
            out
        });
        let mut r = Relation {
            n,
            repr: Repr::Sparse(assemble_csr(n, blocks)),
        };
        if dense_is_better(n, r.len()) {
            r.force_dense();
        }
        r
    }

    /// Memory-bounded k-ary union over an iterator of owned relations —
    /// the driver query evaluators use for union nodes. Sparse inputs are
    /// collected and merged in one k-way pass ([`Relation::union_many`]);
    /// the moment a **dense** input appears it becomes the accumulator
    /// and everything else folds into it incrementally, so peak memory
    /// stays at one dense relation plus one child (folding into a dense
    /// matrix is already a single-pass bitwise OR — streaming k sparse
    /// runs is where the merge wins).
    pub fn union_many_iter(n: usize, rels: impl IntoIterator<Item = Relation>) -> Relation {
        let mut sparse: Vec<Relation> = Vec::new();
        let mut dense_acc: Option<Relation> = None;
        for r in rels {
            assert_eq!(r.n, n, "dimension mismatch in union_many_iter");
            match &mut dense_acc {
                Some(acc) => acc.union_with(&r),
                None if r.is_dense() => {
                    let mut acc = r;
                    for s in sparse.drain(..) {
                        acc.union_with(&s);
                    }
                    dense_acc = Some(acc);
                }
                None => sparse.push(r),
            }
        }
        match dense_acc {
            Some(acc) => acc,
            None => Relation::union_many(n, &sparse.iter().collect::<Vec<_>>()),
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let n = self.n;
        if self.is_dense() && other.is_dense() {
            if let (Repr::Dense(a), Repr::Dense(b)) = (&mut self.repr, &other.repr) {
                par_word_zip(&mut a.bits, &b.bits, |x, y| *x &= y);
            }
            // The intersection of two dense-worthy relations can be nearly
            // empty; re-pick the representation like every other op.
            self.adapt();
            return;
        }
        // At least one side is sparse; the result is contained in it, so
        // filter that side's rows with membership tests on the other.
        let new = {
            let (sparse_side, test_side) = if self.is_sparse() {
                (&*self, other)
            } else {
                (other, &*self)
            };
            let Repr::Sparse(s) = &sparse_side.repr else {
                unreachable!("one side is sparse here");
            };
            let mut off = Vec::with_capacity(n + 1);
            off.push(0usize);
            let mut cols = Vec::new();
            for i in 0..n {
                for &c in s.row(i) {
                    if test_side.contains(i, c as usize) {
                        cols.push(c);
                    }
                }
                off.push(cols.len());
            }
            Csr { off, cols }
        };
        self.repr = Repr::Sparse(new);
        self.adapt();
    }

    /// Relational composition `self ∘ other = {(i,k) | ∃j. (i,j)∈self ∧
    /// (j,k)∈other}`, parallel over row blocks. The output representation
    /// is chosen from an upper-bound estimate of its pair count.
    pub fn compose(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let n = self.n;
        if n == 0 {
            return Relation::empty(0);
        }
        let wpr = n.div_ceil(64);
        let nnz_a = self.len();
        let nnz_b = other.len();
        if nnz_a == 0 || nnz_b == 0 {
            return Relation::empty(n);
        }
        let dense_out = dense_is_better(n, nnz_a.max(nnz_b)) || {
            // Both inputs are sparse-ish: bound the output pair count by
            // Σᵢ min(n, Σ_{j∈row i} |other row j|) and stop early once the
            // bound crosses the dense threshold.
            let row_lens: Option<Vec<u32>> = match &other.repr {
                Repr::Dense(_) => Some((0..n).map(|j| other.row_len(j) as u32).collect()),
                Repr::Sparse(_) => None,
            };
            let len_of = |j: usize| match &row_lens {
                Some(v) => v[j] as usize,
                None => other.row_len(j),
            };
            let mut est = 0usize;
            for i in 0..n {
                let mut row_est = 0usize;
                for j in self.row_iter(i) {
                    row_est += len_of(j);
                    if row_est >= n {
                        row_est = n;
                        break;
                    }
                }
                est = est.saturating_add(row_est);
                if dense_is_better(n, est) {
                    break;
                }
            }
            dense_is_better(n, est)
        };

        if dense_out {
            let mut bits = vec![0u64; wpr * n];
            par_rows_mut(&mut bits, wpr, n, |start_row, chunk| {
                for (k, dst) in chunk.chunks_mut(wpr).enumerate() {
                    let i = start_row + k;
                    for j in self.row_iter(i) {
                        or_row_into(other, j, dst);
                    }
                }
            });
            let mut out = Relation {
                n,
                repr: Repr::Dense(Dense { wpr, bits }),
            };
            out.adapt();
            out
        } else {
            let blocks = par::map_blocks(n, PAR_MIN_ROWS, |range| {
                let mut out = RowBlock {
                    lens: Vec::with_capacity(range.len()),
                    cols: Vec::new(),
                };
                let mut buf = vec![0u64; wpr];
                for i in range {
                    let mut touched = false;
                    for j in self.row_iter(i) {
                        or_row_into(other, j, &mut buf);
                        touched = true;
                    }
                    if !touched {
                        out.lens.push(0);
                        continue;
                    }
                    let before = out.cols.len();
                    for (w_idx, w) in buf.iter_mut().enumerate() {
                        let mut word = *w;
                        *w = 0;
                        while word != 0 {
                            let b = word.trailing_zeros() as usize;
                            word &= word - 1;
                            out.cols.push((w_idx * 64 + b) as u32);
                        }
                    }
                    out.lens.push(out.cols.len() - before);
                }
                out
            });
            Relation {
                n,
                repr: Repr::Sparse(assemble_csr(n, blocks)),
            }
        }
    }

    /// Transitive closure `R⁺` (paths of length ≥ 1). Adaptive: Warshall on
    /// packed rows for small dimensions, SCC condensation + topological
    /// reachability ([`Relation::transitive_closure_scc`]) otherwise.
    pub fn transitive_closure(&self) -> Relation {
        if self.n <= DENSE_MAX_N {
            self.transitive_closure_warshall()
        } else {
            self.transitive_closure_scc()
        }
    }

    /// Transitive closure via Warshall on a dense copy: `O(n² · n/64)` word
    /// operations regardless of sparsity. [`Relation::transitive_closure`]
    /// runs it for every `n ≤ 256`; above that it is the test oracle and
    /// benchmark baseline of the SCC condensation.
    pub fn transitive_closure_warshall(&self) -> Relation {
        let mut r = self.clone();
        r.force_dense();
        let n = self.n;
        if let Repr::Dense(d) = &mut r.repr {
            for k in 0..n {
                // Split borrow: copy row k once per pivot.
                let row_k: Vec<u64> = d.row(k).to_vec();
                for i in 0..n {
                    if d.bits[i * d.wpr + k / 64] & (1u64 << (k % 64)) != 0 {
                        // Destination row borrowed once per source row.
                        let row_i = d.row_mut(i);
                        for (a, b) in row_i.iter_mut().zip(row_k.iter()) {
                            *a |= b;
                        }
                    }
                }
            }
        }
        r.adapt();
        r
    }

    /// Transitive closure via SCC condensation: iterative Tarjan
    /// (`O(V + E)`), reachability DP over per-SCC bitsets in reverse
    /// topological order, then one materialisation pass per SCC (parallel
    /// over blocks). Beats Warshall by orders of magnitude on large sparse
    /// inputs; called automatically by [`Relation::transitive_closure`]
    /// above the small-dimension threshold.
    pub fn transitive_closure_scc(&self) -> Relation {
        let n = self.n;
        if n == 0 || self.is_empty() {
            return Relation::empty(n);
        }

        // ---- iterative Tarjan; comp ids come out in reverse topological
        // order (every successor SCC gets a smaller id) ----
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut comp = vec![UNVISITED; n];
        let mut n_comp = 0u32;
        let mut next_index = 0u32;
        let mut frames: Vec<(u32, usize)> = Vec::new(); // (node, resume column)
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root as u32);
            on_stack[root] = true;
            frames.push((root as u32, 0));
            while let Some(frame) = frames.last_mut() {
                let vu = frame.0 as usize;
                if let Some(w) = self.next_in_row(vu, frame.1) {
                    frame.1 = w + 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w as u32);
                        on_stack[w] = true;
                        frames.push((w as u32, 0));
                    } else if on_stack[w] {
                        low[vu] = low[vu].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(p, _)) = frames.last() {
                        let pu = p as usize;
                        low[pu] = low[pu].min(low[vu]);
                    }
                    if low[vu] == index[vu] {
                        loop {
                            let w = stack.pop().expect("invariant: tarjan stack");
                            on_stack[w as usize] = false;
                            comp[w as usize] = n_comp;
                            if w as usize == vu {
                                break;
                            }
                        }
                        n_comp += 1;
                    }
                }
            }
        }
        let c = n_comp as usize;

        // ---- members grouped by component (counting sort keeps each
        // group sorted by node index) ----
        let mut sizes = vec![0usize; c];
        for &s in &comp {
            sizes[s as usize] += 1;
        }
        let mut m_off = vec![0usize; c + 1];
        for s in 0..c {
            m_off[s + 1] = m_off[s] + sizes[s];
        }
        let mut members = vec![0u32; n];
        let mut cursor = m_off.clone();
        for (u, &s) in comp.iter().enumerate() {
            members[cursor[s as usize]] = u as u32;
            cursor[s as usize] += 1;
        }

        // ---- reachability DP over SCC bitsets, ascending comp id =
        // reverse topological order; a row is complete before anything
        // points at it ----
        let cw = c.div_ceil(64);
        let mut reach = vec![0u64; c * cw];
        let mut cyclic = vec![false; c];
        for s in 0..c {
            let (done, rest) = reach.split_at_mut(s * cw);
            let row = &mut rest[..cw];
            for &u in &members[m_off[s]..m_off[s + 1]] {
                for v in self.row_iter(u as usize) {
                    let t = comp[v] as usize;
                    if t == s {
                        // Any intra-SCC edge witnesses a cycle (self-loop
                        // for singletons, a nontrivial cycle otherwise).
                        cyclic[s] = true;
                        continue;
                    }
                    debug_assert!(t < s, "condensation edge against topo order");
                    if row[t / 64] & (1u64 << (t % 64)) == 0 {
                        row[t / 64] |= 1u64 << (t % 64);
                        // reach[t] is transitively closed already, so one OR
                        // absorbs everything below t.
                        for (a, b) in row.iter_mut().zip(&done[t * cw..(t + 1) * cw]) {
                            *a |= b;
                        }
                    }
                }
            }
            if cyclic[s] {
                row[s / 64] |= 1u64 << (s % 64);
            }
        }

        // ---- exact output size, then materialise per SCC ----
        let mut nnz = 0usize;
        for s in 0..c {
            let row = &reach[s * cw..(s + 1) * cw];
            let mut pairs = 0usize;
            for (w_idx, &w) in row.iter().enumerate() {
                let mut word = w;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    pairs += sizes[w_idx * 64 + b];
                }
            }
            nnz = nnz.saturating_add(pairs.saturating_mul(sizes[s]));
        }

        let comp = &comp;
        let reach = &reach;
        let members = &members;
        let m_off = &m_off;
        if dense_is_better(n, nnz) {
            let wpr = n.div_ceil(64);
            // one node-level row per SCC, built in parallel blocks
            let scc_blocks = par::map_blocks(c, PAR_MIN_ROWS.min(64), |range| {
                let mut slab = vec![0u64; range.len() * wpr];
                for (k, s) in range.enumerate() {
                    let dst = &mut slab[k * wpr..(k + 1) * wpr];
                    let row = &reach[s * cw..(s + 1) * cw];
                    for (w_idx, &w) in row.iter().enumerate() {
                        let mut word = w;
                        while word != 0 {
                            let b = word.trailing_zeros() as usize;
                            word &= word - 1;
                            let t = w_idx * 64 + b;
                            for &m in &members[m_off[t]..m_off[t + 1]] {
                                dst[m as usize / 64] |= 1u64 << (m % 64);
                            }
                        }
                    }
                }
                slab
            });
            let scc_rows: Vec<u64> = scc_blocks.concat();
            let mut bits = vec![0u64; wpr * n];
            par_rows_mut(&mut bits, wpr, n, |start_row, chunk| {
                for (k, dst) in chunk.chunks_mut(wpr).enumerate() {
                    let s = comp[start_row + k] as usize;
                    dst.copy_from_slice(&scc_rows[s * wpr..(s + 1) * wpr]);
                }
            });
            Relation {
                n,
                repr: Repr::Dense(Dense { wpr, bits }),
            }
        } else {
            // one sorted column list per SCC, then per-node copies
            let scc_blocks = par::map_blocks(c, PAR_MIN_ROWS.min(64), |range| {
                let mut out = RowBlock {
                    lens: Vec::with_capacity(range.len()),
                    cols: Vec::new(),
                };
                for s in range {
                    let before = out.cols.len();
                    let row = &reach[s * cw..(s + 1) * cw];
                    for (w_idx, &w) in row.iter().enumerate() {
                        let mut word = w;
                        while word != 0 {
                            let b = word.trailing_zeros() as usize;
                            word &= word - 1;
                            let t = w_idx * 64 + b;
                            out.cols.extend_from_slice(&members[m_off[t]..m_off[t + 1]]);
                        }
                    }
                    out.cols[before..].sort_unstable();
                    out.lens.push(out.cols.len() - before);
                }
                out
            });
            let scc_cols = assemble_csr(c, scc_blocks);
            let mut off = Vec::with_capacity(n + 1);
            off.push(0usize);
            let mut cols = Vec::with_capacity(nnz);
            for &s in comp.iter() {
                cols.extend_from_slice(scc_cols.row(s as usize));
                off.push(cols.len());
            }
            debug_assert_eq!(cols.len(), nnz);
            Relation {
                n,
                repr: Repr::Sparse(Csr { off, cols }),
            }
        }
    }

    /// Reflexive-transitive closure `R*`.
    pub fn reflexive_transitive_closure(&self) -> Relation {
        let mut r = self.transitive_closure();
        r.insert_identity();
        r
    }

    /// Add the diagonal in one pass (cheap on both representations, unlike
    /// `n` sparse `insert`s).
    fn insert_identity(&mut self) {
        let n = self.n;
        match &mut self.repr {
            Repr::Dense(d) => {
                for i in 0..n {
                    d.bits[i * d.wpr + i / 64] |= 1u64 << (i % 64);
                }
            }
            Repr::Sparse(s) => {
                let mut off = Vec::with_capacity(n + 1);
                off.push(0usize);
                let mut cols = Vec::with_capacity(s.cols.len() + n);
                for i in 0..n {
                    let row = s.row(i);
                    match row.binary_search(&(i as u32)) {
                        Ok(_) => cols.extend_from_slice(row),
                        Err(p) => {
                            cols.extend_from_slice(&row[..p]);
                            cols.push(i as u32);
                            cols.extend_from_slice(&row[p..]);
                        }
                    }
                    off.push(cols.len());
                }
                *s = Csr { off, cols };
                if dense_is_better(n, self.len()) {
                    self.force_dense();
                }
            }
        }
    }

    /// The inverse relation `{(j,i) | (i,j) ∈ R}` (counting-sort
    /// transpose, `O(n + nnz)` plus the final representation choice).
    pub fn inverse(&self) -> Relation {
        let n = self.n;
        let nnz = self.len();
        let mut off = vec![0usize; n + 1];
        for (_, j) in self.iter_pairs() {
            off[j + 1] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut cols = vec![0u32; nnz];
        let mut cursor = off.clone();
        for (i, j) in self.iter_pairs() {
            cols[cursor[j]] = i as u32;
            cursor[j] += 1;
        }
        let mut r = Relation {
            n,
            repr: Repr::Sparse(Csr { off, cols }),
        };
        r.adapt();
        r
    }

    /// The complement `V² \ R` (inherently dense).
    pub fn complement(&self) -> Relation {
        let mut r = self.clone();
        r.force_dense();
        if let Repr::Dense(d) = &mut r.repr {
            for w in d.bits.iter_mut() {
                *w = !*w;
            }
            d.clear_slack(r.n);
        }
        r
    }

    /// Keep only pairs satisfying the predicate. The output starts in the
    /// input's representation and adapts to its own density.
    pub fn filter(&self, mut keep: impl FnMut(usize, usize) -> bool) -> Relation {
        let n = self.n;
        let mut r = match &self.repr {
            Repr::Dense(_) => {
                let mut d = Dense::zero(n);
                for (i, j) in self.iter_pairs() {
                    if keep(i, j) {
                        d.bits[i * d.wpr + j / 64] |= 1u64 << (j % 64);
                    }
                }
                Relation {
                    n,
                    repr: Repr::Dense(d),
                }
            }
            Repr::Sparse(s) => {
                let mut off = Vec::with_capacity(n + 1);
                off.push(0usize);
                let mut cols = Vec::new();
                for i in 0..n {
                    for &c in s.row(i) {
                        if keep(i, c as usize) {
                            cols.push(c);
                        }
                    }
                    off.push(cols.len());
                }
                Relation {
                    n,
                    repr: Repr::Sparse(Csr { off, cols }),
                }
            }
        };
        r.adapt();
        r
    }

    /// Is `self ⊆ other`?
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        assert_eq!(self.n, other.n, "dimension mismatch");
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => {
                a.bits.iter().zip(b.bits.iter()).all(|(x, y)| x & !y == 0)
            }
            (Repr::Sparse(a), Repr::Sparse(b)) => (0..self.n).all(|i| {
                let (ra, rb) = (a.row(i), b.row(i));
                let mut j = 0usize;
                ra.iter().all(|&x| {
                    while j < rb.len() && rb[j] < x {
                        j += 1;
                    }
                    j < rb.len() && rb[j] == x
                })
            }),
            _ => self.iter_pairs().all(|(i, j)| other.contains(i, j)),
        }
    }

    /// The set of first components (domain).
    pub fn domain(&self) -> Vec<usize> {
        match &self.repr {
            Repr::Dense(d) => (0..self.n)
                .filter(|&i| d.row(i).iter().any(|&w| w != 0))
                .collect(),
            Repr::Sparse(s) => (0..self.n).filter(|&i| s.off[i + 1] > s.off[i]).collect(),
        }
    }

    /// Project onto a boolean "has any pair" flag.
    pub fn any(&self) -> bool {
        !self.is_empty()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        if self.n != other.n {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a == b,
            // CSR rows are sorted and deduplicated, so the arenas are
            // canonical.
            (Repr::Sparse(a), Repr::Sparse(b)) => a == b,
            _ => self.len() == other.len() && self.iter_pairs().all(|(i, j)| other.contains(i, j)),
        }
    }
}

impl Eq for Relation {}

/// Iterator over the columns of one row (see [`Relation::row_iter`]).
pub struct RowIter<'a> {
    inner: RowIterInner<'a>,
}

enum RowIterInner<'a> {
    Dense {
        words: &'a [u64],
        idx: usize,
        cur: u64,
    },
    Sparse(std::slice::Iter<'a, u32>),
}

impl Iterator for RowIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        match &mut self.inner {
            RowIterInner::Dense { words, idx, cur } => loop {
                if *cur != 0 {
                    let b = cur.trailing_zeros() as usize;
                    *cur &= *cur - 1;
                    return Some((*idx - 1) * 64 + b);
                }
                if *idx == words.len() {
                    return None;
                }
                *cur = words[*idx];
                *idx += 1;
            },
            RowIterInner::Sparse(it) => it.next().map(|&c| c as usize),
        }
    }
}

/// Bulk constructor: buffer pairs per row, then sort, deduplicate and pick
/// the final representation in one pass. The right way to build large
/// relations (sparse `insert` is an arena splice).
pub struct RelationBuilder {
    n: usize,
    rows: Vec<Vec<u32>>,
}

impl RelationBuilder {
    /// A builder for a relation over `0..n`.
    pub fn new(n: usize) -> RelationBuilder {
        assert!(n <= u32::MAX as usize, "relation dimension exceeds u32");
        RelationBuilder {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Record a pair (duplicates are fine).
    #[inline]
    pub fn push(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n);
        self.rows[i].push(j as u32);
    }

    /// Build the relation, choosing dense or sparse by final density.
    pub fn build(mut self) -> Relation {
        let mut nnz = 0usize;
        for row in &mut self.rows {
            row.sort_unstable();
            row.dedup();
            nnz += row.len();
        }
        let n = self.n;
        if dense_is_better(n, nnz) {
            let mut d = Dense::zero(n);
            for (i, row) in self.rows.iter().enumerate() {
                let dst = &mut d.bits[i * d.wpr..(i + 1) * d.wpr];
                for &c in row {
                    dst[c as usize / 64] |= 1u64 << (c % 64);
                }
            }
            Relation {
                n,
                repr: Repr::Dense(d),
            }
        } else {
            let mut off = Vec::with_capacity(n + 1);
            off.push(0usize);
            let mut cols = Vec::with_capacity(nnz);
            for row in &self.rows {
                cols.extend_from_slice(row);
                off.push(cols.len());
            }
            Relation {
                n,
                repr: Repr::Sparse(Csr { off, cols }),
            }
        }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(n={}, {{", self.n)?;
        for (k, (i, j)) in self.iter_pairs().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({i},{j})")?;
        }
        write!(f, "}})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::empty(100);
        r.insert(3, 97);
        assert!(r.contains(3, 97));
        assert!(!r.contains(97, 3));
        assert_eq!(r.len(), 1);
        r.remove(3, 97);
        assert!(r.is_empty());
    }

    #[test]
    fn insert_contains_remove_sparse() {
        let mut r = Relation::empty(100);
        r.force_sparse();
        r.insert(3, 97);
        r.insert(3, 5);
        r.insert(3, 97); // duplicate
        r.insert(99, 0);
        assert!(r.is_sparse());
        assert!(r.contains(3, 97) && r.contains(3, 5) && r.contains(99, 0));
        assert_eq!(r.len(), 3);
        r.remove(3, 5);
        r.remove(3, 5); // double remove
        assert_eq!(r.len(), 2);
        assert!(!r.contains(3, 5));
    }

    #[test]
    fn identity_and_full() {
        let id = Relation::identity(5);
        assert_eq!(id.len(), 5);
        assert!(id.contains(2, 2));
        assert!(!id.contains(2, 3));
        let full = Relation::full(5);
        assert_eq!(full.len(), 25);
        // slack bits beyond column 5 must not be counted
        let full65 = Relation::full(65);
        assert_eq!(full65.len(), 65 * 65);
        // big identity is sparse; big full stays dense
        let big_id = Relation::identity(10_000);
        assert!(big_id.is_sparse());
        assert_eq!(big_id.len(), 10_000);
        assert!(big_id.contains(9_999, 9_999));
    }

    #[test]
    fn representation_switching() {
        // small dims are always dense
        assert!(Relation::empty(64).is_dense());
        assert!(Relation::from_pairs(100, [(0, 1)]).is_dense());
        // large sparse content stays sparse
        let sparse = Relation::from_pairs(5_000, (0..4_999).map(|i| (i, i + 1)));
        assert!(sparse.is_sparse());
        assert!(sparse.heap_bytes() * 10 < Relation::dense_bytes(5_000));
        // large dense content becomes dense
        let dense = Relation::from_pairs(500, (0..500).flat_map(|i| (0..100).map(move |j| (i, j))));
        assert!(dense.is_dense());
        // forcing round-trips preserve content
        let mut a = sparse.clone();
        a.force_dense();
        assert!(a.is_dense());
        assert_eq!(a, sparse);
        a.force_sparse();
        assert_eq!(a, sparse);
    }

    #[test]
    fn compose_basic() {
        let r = Relation::from_pairs(4, [(0, 1), (1, 2)]);
        let s = Relation::from_pairs(4, [(1, 3), (2, 0)]);
        let c = r.compose(&s);
        assert!(c.contains(0, 3));
        assert!(c.contains(1, 0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn compose_with_identity_is_noop() {
        let r = Relation::from_pairs(70, [(0, 65), (69, 3), (5, 5)]);
        let id = Relation::identity(70);
        assert_eq!(r.compose(&id), r);
        assert_eq!(id.compose(&r), r);
    }

    #[test]
    fn mixed_repr_algebra_agrees() {
        let pairs_a = [(0usize, 1usize), (1, 2), (2, 0), (40, 41), (41, 40)];
        let pairs_b = [(1usize, 1usize), (2, 3), (0, 2), (41, 0)];
        let mk = |pairs: &[(usize, usize)], sparse: bool| {
            let mut r = Relation::from_pairs(80, pairs.iter().copied());
            if sparse {
                r.force_sparse();
            } else {
                r.force_dense();
            }
            r
        };
        let oracle = mk(&pairs_a, false).compose(&mk(&pairs_b, false));
        for (sa, sb) in [(true, true), (true, false), (false, true)] {
            assert_eq!(mk(&pairs_a, sa).compose(&mk(&pairs_b, sb)), oracle);
            let mut u = mk(&pairs_a, sa);
            u.union_with(&mk(&pairs_b, sb));
            assert_eq!(u, mk(&pairs_a, false).union(&mk(&pairs_b, false)));
            let mut i = mk(&pairs_a, sa);
            i.intersect_with(&mk(&pairs_b, sb));
            let mut oi = mk(&pairs_a, false);
            oi.intersect_with(&mk(&pairs_b, false));
            assert_eq!(i, oi);
        }
    }

    #[test]
    fn closure_of_chain() {
        // 0->1->2->3
        let r = Relation::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let tc = r.transitive_closure();
        assert!(tc.contains(0, 3));
        assert!(tc.contains(1, 3));
        assert!(!tc.contains(0, 0));
        assert_eq!(tc.len(), 6);
        let rtc = r.reflexive_transitive_closure();
        assert_eq!(rtc.len(), 10);
        assert!(rtc.contains(3, 3));
    }

    #[test]
    fn closure_of_cycle_is_full_on_cycle() {
        let r = Relation::from_pairs(3, [(0, 1), (1, 2), (2, 0)]);
        let tc = r.transitive_closure();
        assert_eq!(tc.len(), 9);
        assert!(tc.contains(0, 0));
    }

    #[test]
    fn scc_closure_matches_warshall() {
        // chain into a cycle plus a detached self-loop and an isolated node
        let pairs = [
            (0usize, 1usize),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 2), // cycle 2-3-4
            (5, 5), // self loop
            (7, 0),
        ];
        for dims in [9usize, 64, 65, 130] {
            let mut r = Relation::from_pairs(dims, pairs.iter().copied());
            r.force_sparse();
            let scc = r.transitive_closure_scc();
            let war = r.transitive_closure_warshall();
            assert_eq!(scc, war, "dim {dims}");
            let mut rd = r.clone();
            rd.force_dense();
            assert_eq!(rd.transitive_closure_scc(), war, "dense input, dim {dims}");
        }
    }

    #[test]
    fn union_many_matches_folded_unions() {
        let n = 1500; // above the dense threshold so sparse paths engage
        let a = Relation::from_pairs(n, (0..n - 1).map(|i| (i, i + 1)));
        let b = Relation::from_pairs(n, (0..n / 3).map(|i| (3 * i, i)));
        let c = Relation::from_pairs(n, [(7, 9), (0, 1), (1499, 0)]);
        let oracle = a.union(&b).union(&c);
        assert_eq!(Relation::union_many(n, &[&a, &b, &c]), oracle);
        assert_eq!(
            Relation::union_many_iter(n, [a.clone(), b.clone(), c.clone()]),
            oracle
        );
        // dense input anywhere in the stream switches to the fold path
        let mut d = b.clone();
        d.force_dense();
        assert_eq!(
            Relation::union_many_iter(n, [a.clone(), d, c.clone()]),
            oracle
        );
        // degenerate arities
        assert_eq!(Relation::union_many(n, &[]), Relation::empty(n));
        assert_eq!(Relation::union_many(n, &[&a]), a);
        assert_eq!(Relation::union_many_iter(n, []), Relation::empty(n));
    }

    #[test]
    fn union_intersect_subset() {
        let a = Relation::from_pairs(6, [(0, 1), (2, 3)]);
        let b = Relation::from_pairs(6, [(2, 3), (4, 5)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.len(), 1);
        assert!(i.contains(2, 3));
    }

    #[test]
    fn subset_across_reprs() {
        let mut a = Relation::from_pairs(300, [(0, 1), (200, 250)]);
        let mut b = Relation::from_pairs(300, [(0, 1), (200, 250), (299, 0)]);
        a.force_sparse();
        b.force_dense();
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        b.force_sparse();
        assert!(a.is_subset_of(&b));
        a.force_dense();
        b.force_dense();
        assert!(a.is_subset_of(&b));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Relation::from_pairs(66, [(0, 65), (64, 1), (7, 7)]);
        let inv = a.inverse();
        assert!(inv.contains(65, 0));
        assert!(inv.contains(1, 64));
        assert_eq!(inv.inverse(), a);
        // sparse input too
        let mut s = a.clone();
        s.force_sparse();
        assert_eq!(s.inverse(), inv);
    }

    #[test]
    fn complement_is_full_minus_self() {
        let a = Relation::from_pairs(10, [(1, 2), (3, 4)]);
        let c = a.complement();
        assert_eq!(c.len(), 100 - 2);
        assert!(!c.contains(1, 2));
        assert!(c.contains(2, 1));
        let mut i = a.clone();
        i.intersect_with(&c);
        assert!(i.is_empty());
    }

    #[test]
    fn filter_and_iter() {
        let a = Relation::from_pairs(10, [(1, 2), (3, 4), (5, 6)]);
        let f = a.filter(|i, _| i >= 3);
        let pairs: Vec<_> = f.iter().collect();
        assert_eq!(pairs, vec![(3, 4), (5, 6)]);
        assert_eq!(a.domain(), vec![1, 3, 5]);
    }

    #[test]
    fn row_iter_and_iter_pairs() {
        let mut r = Relation::from_pairs(130, [(0, 64), (0, 2), (0, 129), (129, 0)]);
        for sparse in [false, true] {
            if sparse {
                r.force_sparse();
            } else {
                r.force_dense();
            }
            assert_eq!(r.row_iter(0).collect::<Vec<_>>(), vec![2, 64, 129]);
            assert_eq!(r.row_iter(1).count(), 0);
            assert_eq!(r.row_iter(129).collect::<Vec<_>>(), vec![0]);
            assert_eq!(
                r.iter_pairs().collect::<Vec<_>>(),
                vec![(0, 2), (0, 64), (0, 129), (129, 0)]
            );
        }
    }

    #[test]
    fn closure_matches_iterated_compose() {
        // pseudo-random small relation; closure == union of R, R², R³, ...
        let pairs = [(0, 3), (3, 5), (5, 0), (2, 4), (4, 4), (1, 6)];
        let r = Relation::from_pairs(7, pairs);
        let tc = r.transitive_closure();
        let mut acc = r.clone();
        let mut power = r.clone();
        for _ in 0..7 {
            power = power.compose(&r);
            acc.union_with(&power);
        }
        assert_eq!(tc, acc);
    }

    #[test]
    fn parallel_block_algebra_agrees_at_scale() {
        // Deterministic pseudo-random sparse digraph, large enough to cross
        // the row-block parallel thresholds with a forced thread count.
        let _guard = par::test_knob_lock();
        par::set_max_threads(3);
        let n = 1_400usize;
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let pairs: Vec<(usize, usize)> = (0..4 * n)
            .map(|_| (next() as usize % n, next() as usize % n))
            .collect();
        let r = Relation::from_pairs(n, pairs.iter().copied());
        assert!(r.is_sparse());
        let id = Relation::identity(n);
        // compose against identity is a no-op (sparse and dense paths)
        assert_eq!(r.compose(&id), r);
        let mut rd = r.clone();
        rd.force_dense();
        assert_eq!(rd.compose(&id), r);
        // closure is a fixpoint: tc ∪ (tc ∘ r) == tc, and matches Warshall
        let tc = r.transitive_closure();
        let mut fix = tc.clone();
        fix.union_with(&tc.compose(&r));
        assert_eq!(fix, tc);
        assert!(r.is_subset_of(&tc));
        assert_eq!(tc, r.transitive_closure_warshall());
        par::set_max_threads(0);
    }

    #[test]
    fn zero_dim_relation() {
        let r = Relation::empty(0);
        assert!(r.is_empty());
        assert_eq!(r.transitive_closure().len(), 0);
        assert_eq!(r.compose(&r).len(), 0);
        assert_eq!(r.transitive_closure_scc().len(), 0);
        assert_eq!(r.heap_bytes(), 0); // small dims are dense; no rows, no words
    }

    #[test]
    fn boundary_dims_64_65() {
        for n in [64usize, 65] {
            let mut r = Relation::from_pairs(n, [(0, n - 1), (n - 1, 0), (1, 1)]);
            r.force_sparse();
            let mut d = r.clone();
            d.force_dense();
            assert_eq!(r, d);
            assert_eq!(r.transitive_closure_scc(), d.transitive_closure_warshall());
            assert_eq!(r.inverse(), d.inverse());
            assert_eq!(r.compose(&d), d.compose(&r));
        }
    }
}
