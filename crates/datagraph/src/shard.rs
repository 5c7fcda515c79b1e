//! Node-range sharding of a frozen [`GraphSnapshot`].
//!
//! The certain-answer semantics served by `gde-core` are embarrassingly
//! partitionable over the answer relation's *source* rows: the full answer
//! is the disjoint union of its row stripes, so K workers can each own one
//! contiguous dense-index range and evaluate independently, with a single
//! cheap merge at the end. This module provides the two pieces a sharded
//! serving engine needs below the query layer:
//!
//! * [`ShardPlan`] — a partition of the dense node domain `0..n` into K
//!   contiguous stripes (even by node count, or balanced by out-degree so
//!   hub-heavy graphs don't leave workers idle);
//! * [`ShardedSnapshot`] — a [`GraphSnapshot`] plus, per shard and label,
//!   the **intra-stripe** label relation (both endpoints inside the
//!   stripe) and a thin **boundary overlay** of edges whose target falls
//!   outside the stripe. Their union is exactly the row slice of the full
//!   label relation, which is what row-restricted query evaluation
//!   consumes as its atoms. All slices are built lazily, at most once per
//!   `(shard, label)`. A one-stripe plan builds no slices at all: its
//!   stripe *is* the snapshot, so its row slices alias the snapshot's own
//!   label relations and its boundary is empty.
//!
//! Scheduling stripes onto workers is [`crate::par::map_shards`].

use crate::label::Label;
use crate::relation::{Relation, RelationBuilder};
use crate::snapshot::GraphSnapshot;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A partition of the dense node domain `0..n` into contiguous stripes.
///
/// `bounds` has `K + 1` monotone entries with `bounds[0] = 0` and
/// `bounds[K] = n`; stripe `i` is `bounds[i]..bounds[i+1]`. Stripes may be
/// empty (more shards than nodes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<u32>,
}

impl ShardPlan {
    /// A single stripe covering everything — the unsharded plan.
    pub fn single(n: usize) -> ShardPlan {
        ShardPlan::even(n, 1)
    }

    /// `k` stripes of (nearly) equal node count.
    pub fn even(n: usize, k: usize) -> ShardPlan {
        let k = k.max(1);
        assert!(n <= u32::MAX as usize, "node domain exceeds u32");
        let per = n.div_ceil(k).max(1);
        let mut bounds = Vec::with_capacity(k + 1);
        for i in 0..=k {
            bounds.push(((i * per).min(n)) as u32);
        }
        ShardPlan { bounds }
    }

    /// `k` stripes balanced by out-degree, so each worker owns roughly the
    /// same number of edge *sources* even when the graph has hubs. Every
    /// node also counts 1 (isolated nodes still cost a visit in
    /// per-source evaluation).
    pub fn by_out_degree(s: &GraphSnapshot, k: usize) -> ShardPlan {
        let k = k.max(1);
        let n = s.n();
        let mut weight = vec![1u64; n];
        for li in 0..s.label_count() {
            let l = Label(li as u16);
            for (u, w) in weight.iter_mut().enumerate() {
                *w += s.out(l, u as u32).len() as u64;
            }
        }
        ShardPlan::cut_by_weight(&weight, k)
    }

    /// `k` stripes balanced by a **cost model** instead of raw degree: the
    /// estimated per-node evaluation work, assembled from the per-stripe
    /// statistics a seed partition exposes ([`ShardPlan::stripe_stats`]).
    /// Three terms feed the model:
    ///
    /// * **out-degree mass** — every edge costs one adjacency visit;
    /// * **label histogram** — an edge of a dense label costs more: the
    ///   relation-algebra paths (compose, closure) walk whole rows of
    ///   `E_label`, so per-edge cost grows with the label's mean
    ///   out-degree;
    /// * **boundary-edge count** — an edge leaving its source's stripe
    ///   (measured under an out-degree-balanced seed plan) pays the
    ///   boundary-overlay build plus a cross-stripe continuation in the
    ///   per-start walks.
    ///
    /// The result still partitions `0..n` into contiguous stripes — only
    /// the cut points move — so everything downstream (slices, carries,
    /// row-restricted eval) is unchanged. Falls back to the seed when the
    /// model has nothing to add (`k = 1`, empty graphs).
    pub fn by_cost(s: &GraphSnapshot, k: usize) -> ShardPlan {
        ShardPlan::cost_model(s, k, None)
    }

    /// [`ShardPlan::by_cost`] with the cost model **focused** on a label
    /// subset — typically the labels a registered query workload actually
    /// reads. Edges of other labels still count their adjacency visit
    /// (the seed partition and the per-edge base term are unchanged) but
    /// skip the density and boundary terms: evaluation never walks them,
    /// so they should not move the cut points. An empty `focus` means no
    /// workload knowledge and falls back to the full model.
    pub fn by_cost_focused(s: &GraphSnapshot, k: usize, focus: &[Label]) -> ShardPlan {
        if focus.is_empty() {
            ShardPlan::by_cost(s, k)
        } else {
            ShardPlan::cost_model(s, k, Some(focus))
        }
    }

    fn cost_model(s: &GraphSnapshot, k: usize, focus: Option<&[Label]>) -> ShardPlan {
        let k = k.max(1);
        let n = s.n();
        if k == 1 || n == 0 {
            return ShardPlan::even(n, k);
        }
        let seed = ShardPlan::by_out_degree(s, k);
        // label weight = 1 + mean out-degree of the label (integer floor):
        // compose/closure over E_label touch rows proportional to density.
        // Labels outside the focus keep the base visit cost only.
        let in_focus = |li: usize| focus.is_none_or(|f| f.iter().any(|&l| l.index() == li));
        let mut label_totals = vec![0u64; s.label_count()];
        for (li, t) in label_totals.iter_mut().enumerate() {
            let l = Label(li as u16);
            for u in 0..n {
                *t += s.out(l, u as u32).len() as u64;
            }
        }
        let lw: Vec<u64> = label_totals
            .iter()
            .enumerate()
            .map(|(li, &t)| if in_focus(li) { 1 + t / n as u64 } else { 1 })
            .collect();
        /// Extra cost per edge that crosses out of its stripe.
        const BOUNDARY_WEIGHT: u64 = 2;
        let mut weight = vec![1u64; n];
        for (u, w) in weight.iter_mut().enumerate() {
            // the node's seed stripe is looked up once, not once per label
            let stripe = seed.range(seed.shard_of(u as u32));
            for (li, &w_l) in lw.iter().enumerate() {
                let out = s.out(Label(li as u16), u as u32);
                if out.is_empty() {
                    continue;
                }
                *w += out.len() as u64 * w_l;
                if !in_focus(li) {
                    continue;
                }
                let crossing = out
                    .iter()
                    .filter(|&&v| !stripe.contains(&(v as usize)))
                    .count();
                *w += crossing as u64 * BOUNDARY_WEIGHT;
            }
        }
        ShardPlan::cut_by_weight(&weight, k)
    }

    /// Cut `0..weight.len()` into `k` contiguous stripes of roughly equal
    /// total weight (the shared core of [`ShardPlan::by_out_degree`] and
    /// [`ShardPlan::by_cost`]).
    fn cut_by_weight(weight: &[u64], k: usize) -> ShardPlan {
        let n = weight.len();
        let total: u64 = weight.iter().sum();
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0u32);
        let mut acc = 0u64;
        let mut cut = 1usize;
        for (u, w) in weight.iter().enumerate() {
            // cut *before* node u once the running weight reaches the next
            // 1/k quantile, keeping later stripes non-degenerate
            while cut < k && acc * (k as u64) >= total * (cut as u64) {
                bounds.push(u as u32);
                cut += 1;
            }
            acc += w;
        }
        while bounds.len() < k {
            bounds.push(n as u32);
        }
        bounds.push(n as u32);
        debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        ShardPlan { bounds }
    }

    /// Per-stripe statistics of this plan over a snapshot: node count,
    /// out-edge mass, per-label edge histogram, and the number of edges
    /// whose target falls outside the stripe (the boundary overlay this
    /// partition would build). These are the inputs of the cost model
    /// behind [`ShardPlan::by_cost`] and a planning diagnostic for
    /// operators.
    pub fn stripe_stats(&self, s: &GraphSnapshot) -> Vec<StripeStats> {
        assert_eq!(self.n(), s.n(), "plan does not cover the snapshot");
        let mut out: Vec<StripeStats> = (0..self.shard_count())
            .map(|i| StripeStats {
                nodes: self.range(i).len(),
                out_edges: 0,
                boundary_edges: 0,
                label_edges: vec![0; s.label_count()],
            })
            .collect();
        for li in 0..s.label_count() {
            let l = Label(li as u16);
            for (shard, st) in out.iter_mut().enumerate() {
                let range = self.range(shard);
                for u in range.clone() {
                    let outs = s.out(l, u as u32);
                    st.out_edges += outs.len();
                    st.label_edges[li] += outs.len();
                    st.boundary_edges += outs
                        .iter()
                        .filter(|&&v| !range.contains(&(v as usize)))
                        .count();
                }
            }
        }
        out
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The node domain size being partitioned.
    pub fn n(&self) -> usize {
        *self.bounds.last().expect("invariant: bounds nonempty") as usize
    }

    /// The dense-index range of stripe `i`.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.bounds[i] as usize..self.bounds[i + 1] as usize
    }

    /// All stripe ranges, in order.
    pub fn ranges(&self) -> Vec<Range<usize>> {
        (0..self.shard_count()).map(|i| self.range(i)).collect()
    }

    /// The stripe containing a dense row (out-of-range rows clamp to the
    /// last stripe).
    pub fn shard_of(&self, row: u32) -> usize {
        // first bound strictly above `row`, minus one
        let p = self.bounds.partition_point(|&b| b <= row);
        p.clamp(1, self.shard_count()) - 1
    }
}

/// Per-stripe static statistics of a [`ShardPlan`] over a snapshot (see
/// [`ShardPlan::stripe_stats`]): what the cost-informed planner consumes
/// and what an operator inspects to judge a partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripeStats {
    /// Nodes in the stripe.
    pub nodes: usize,
    /// Edges whose source lies in the stripe, across all labels.
    pub out_edges: usize,
    /// Of those, edges whose target falls outside the stripe — the
    /// boundary overlay this partition builds.
    pub boundary_edges: usize,
    /// Out-edge histogram by label index.
    pub label_edges: Vec<usize>,
}

impl StripeStats {
    /// The fraction of the stripe's out-edges that cross its boundary
    /// (`0.0` for an edgeless stripe).
    pub fn boundary_fraction(&self) -> f64 {
        if self.out_edges == 0 {
            0.0
        } else {
            self.boundary_edges as f64 / self.out_edges as f64
        }
    }
}

/// The cached slices of one `(shard, label)` cell. Only two relations are
/// stored — the full row slice (what evaluation reads) and the thin
/// boundary overlay — so edges inside the stripe are materialised once;
/// the intra-stripe part is derived on demand.
#[derive(Debug)]
struct ShardSlice {
    /// The row slice of the full label relation (all edges whose source
    /// lies in the stripe) — the atom row-restricted evaluation starts
    /// from.
    rows: Relation,
    /// The boundary overlay: edges whose source is inside the stripe and
    /// whose target is outside.
    boundary: Relation,
}

/// A [`GraphSnapshot`] partitioned into node-range stripes, with lazily
/// built per-shard label relations (see the module docs).
#[derive(Debug)]
pub struct ShardedSnapshot {
    base: Arc<GraphSnapshot>,
    plan: ShardPlan,
    /// `shard * label_count + label` → slices, built at most once. Empty
    /// on a one-stripe plan, whose stripe reads the base relations.
    slices: Vec<OnceLock<ShardSlice>>,
}

impl ShardedSnapshot {
    /// Shard a snapshot under a plan. The plan must cover the snapshot's
    /// node domain.
    pub fn new(base: Arc<GraphSnapshot>, plan: ShardPlan) -> ShardedSnapshot {
        assert_eq!(plan.n(), base.n(), "plan does not cover the snapshot");
        // a one-stripe plan aliases the snapshot's relations: no cells
        let cells = match plan.shard_count() {
            1 => 0,
            k => k * base.label_count(),
        };
        ShardedSnapshot {
            base,
            plan,
            slices: (0..cells).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The underlying full snapshot.
    pub fn base(&self) -> &GraphSnapshot {
        &self.base
    }

    /// The underlying snapshot, shared.
    pub fn base_arc(&self) -> &Arc<GraphSnapshot> {
        &self.base
    }

    /// The stripe plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    fn cell(&self, shard: usize, l: Label) -> Option<&ShardSlice> {
        if l.index() >= self.base.label_count() {
            return None; // label interned after freezing: no edges
        }
        let idx = shard * self.base.label_count() + l.index();
        Some(self.slices[idx].get_or_init(|| {
            let range = self.plan.range(shard);
            let n = self.base.n();
            let mut boundary = RelationBuilder::new(n);
            let mut rows = RelationBuilder::new(n);
            for u in range.clone() {
                for &v in self.base.out(l, u as u32) {
                    if !range.contains(&(v as usize)) {
                        boundary.push(u, v as usize);
                    }
                    rows.push(u, v as usize);
                }
            }
            ShardSlice {
                rows: rows.build(),
                boundary: boundary.build(),
            }
        }))
    }

    /// The row slice of `E_label` owned by a stripe: all edges whose
    /// source lies in the stripe (intra ∪ boundary). On a one-stripe plan
    /// this is the snapshot's own [`GraphSnapshot::label_relation`].
    /// `None` for labels the snapshot has never seen.
    pub fn label_rows(&self, shard: usize, l: Label) -> Option<&Relation> {
        if self.slices.is_empty() {
            return self.base.label_relation(l);
        }
        self.cell(shard, l).map(|s| &s.rows)
    }

    /// The intra-stripe part of a stripe's label relation (derived:
    /// `rows` minus the boundary overlay; diagnostic use).
    pub fn intra(&self, shard: usize, l: Label) -> Option<Relation> {
        if self.slices.is_empty() {
            return self.base.label_relation(l).cloned();
        }
        self.cell(shard, l)
            .map(|s| s.rows.filter(|i, j| !s.boundary.contains(i, j)))
    }

    /// The boundary overlay of a stripe's label relation (edges crossing
    /// out of the stripe; empty on a one-stripe plan; diagnostic use).
    pub fn boundary(&self, shard: usize, l: Label) -> Option<Relation> {
        if self.slices.is_empty() {
            return self
                .base
                .label_relation(l)
                .map(|r| Relation::empty(r.dim()));
        }
        self.cell(shard, l).map(|s| s.boundary.clone())
    }

    /// Build every `(shard, label)` slice now, fanning stripes out over
    /// [`crate::par::map_shards`] workers. Useful to move slice
    /// construction out of first-query latency. A one-stripe plan has no
    /// slices to build.
    pub fn warm(&self) {
        if self.slices.is_empty() {
            return;
        }
        let ranges = self.plan.ranges();
        crate::par::map_shards(&ranges, |shard, _| {
            for li in 0..self.base.label_count() {
                let _ = self.cell(shard, Label(li as u16));
            }
        });
    }

    /// Number of boundary edges across all stripes built so far (the
    /// overlay cost of the partition; `warm` first for an exact figure).
    pub fn boundary_edges(&self) -> usize {
        self.slices
            .iter()
            .filter_map(|c| c.get())
            .map(|s| s.boundary.len())
            .sum()
    }

    /// Approximate heap bytes of the cached slices (the base snapshot is
    /// accounted separately by its own `approx_bytes`).
    pub fn approx_bytes(&self) -> usize {
        self.slices
            .iter()
            .filter_map(|c| c.get())
            .map(|s| s.rows.heap_bytes() + s.boundary.heap_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DataGraph;
    use crate::node::NodeId;
    use crate::value::Value;

    fn ring(n: usize) -> DataGraph {
        let mut g = DataGraph::new();
        for i in 0..n {
            g.add_node(NodeId(i as u32), Value::int(i as i64 % 3))
                .unwrap();
        }
        for i in 0..n {
            g.add_edge_str(NodeId(i as u32), "a", NodeId(((i + 1) % n) as u32))
                .unwrap();
            if i % 3 == 0 {
                g.add_edge_str(NodeId(i as u32), "b", NodeId(((i + 5) % n) as u32))
                    .unwrap();
            }
        }
        g
    }

    #[test]
    fn plan_partitions_domain() {
        for (n, k) in [(10, 3), (0, 2), (5, 8), (100, 1), (7, 7)] {
            for plan in [ShardPlan::even(n, k)] {
                assert_eq!(plan.n(), n);
                assert_eq!(plan.shard_count(), k.max(1));
                let mut covered = 0;
                for i in 0..plan.shard_count() {
                    let r = plan.range(i);
                    assert_eq!(r.start, covered);
                    covered = r.end;
                }
                assert_eq!(covered, n);
                for row in 0..n as u32 {
                    let s = plan.shard_of(row);
                    assert!(plan.range(s).contains(&(row as usize)));
                }
            }
        }
    }

    #[test]
    fn out_degree_plan_balances_edges() {
        let g = ring(64);
        let s = g.snapshot();
        let plan = ShardPlan::by_out_degree(&s, 4);
        assert_eq!(plan.shard_count(), 4);
        assert_eq!(plan.n(), 64);
        // every stripe nonempty on this uniform graph
        for i in 0..4 {
            assert!(!plan.range(i).is_empty());
        }
    }

    #[test]
    fn cost_plan_partitions_domain_and_balances() {
        let g = ring(96);
        let s = g.snapshot();
        for k in [1, 2, 4, 5] {
            let plan = ShardPlan::by_cost(&s, k);
            assert_eq!(plan.shard_count(), k);
            assert_eq!(plan.n(), 96);
            let mut covered = 0;
            for i in 0..k {
                let r = plan.range(i);
                assert_eq!(r.start, covered);
                covered = r.end;
            }
            assert_eq!(covered, 96);
            // on this near-uniform graph the cost cuts stay near-even
            for i in 0..k {
                assert!(!plan.range(i).is_empty(), "k={k} stripe {i} degenerate");
            }
        }
        // empty graph degenerates gracefully
        let empty = DataGraph::new().snapshot();
        assert_eq!(ShardPlan::by_cost(&empty, 4).n(), 0);
    }

    #[test]
    fn focused_cost_plan_matches_full_model_on_full_focus() {
        let g = ring(96);
        let s = g.snapshot();
        let all: Vec<Label> = (0..s.label_count()).map(|i| Label(i as u16)).collect();
        for k in [2, 4] {
            // full focus and empty focus both reproduce the full model
            assert_eq!(
                ShardPlan::by_cost_focused(&s, k, &all),
                ShardPlan::by_cost(&s, k)
            );
            assert_eq!(
                ShardPlan::by_cost_focused(&s, k, &[]),
                ShardPlan::by_cost(&s, k)
            );
            // a strict focus still partitions the domain into k stripes
            let plan = ShardPlan::by_cost_focused(&s, k, &all[..1]);
            assert_eq!(plan.shard_count(), k);
            let mut covered = 0;
            for i in 0..k {
                let r = plan.range(i);
                assert_eq!(r.start, covered);
                covered = r.end;
            }
            assert_eq!(covered, 96);
        }
    }

    #[test]
    fn stripe_stats_account_for_every_edge() {
        let g = ring(48);
        let s = g.snapshot();
        for plan in [ShardPlan::even(48, 4), ShardPlan::by_cost(&s, 3)] {
            let stats = plan.stripe_stats(&s);
            assert_eq!(stats.len(), plan.shard_count());
            assert_eq!(stats.iter().map(|t| t.nodes).sum::<usize>(), 48);
            assert_eq!(
                stats.iter().map(|t| t.out_edges).sum::<usize>(),
                s.edge_count()
            );
            // the histogram refines the out-edge mass
            for t in &stats {
                assert_eq!(t.label_edges.iter().sum::<usize>(), t.out_edges);
                assert!(t.boundary_edges <= t.out_edges);
                assert!((0.0..=1.0).contains(&t.boundary_fraction()));
            }
            // stats agree with the slices the sharded snapshot builds
            let sharded = ShardedSnapshot::new(Arc::new(g.snapshot()), plan.clone());
            sharded.warm();
            assert_eq!(
                stats.iter().map(|t| t.boundary_edges).sum::<usize>(),
                sharded.boundary_edges()
            );
        }
    }

    #[test]
    fn out_of_range_rows_clamp_to_last_shard() {
        let plan = ShardPlan::even(10, 2);
        assert_eq!(plan.shard_of(12), 1);
        assert_eq!(plan.shard_of(u32::MAX), 1);
    }

    #[test]
    fn slices_partition_label_relations() {
        let g = ring(32);
        let snap = Arc::new(g.snapshot());
        for k in [1, 2, 4, 7] {
            let sharded = ShardedSnapshot::new(snap.clone(), ShardPlan::even(snap.n(), k));
            sharded.warm();
            for name in ["a", "b"] {
                let l = g.alphabet().label(name).unwrap();
                let full = snap.label_relation(l).unwrap();
                let mut union = Relation::empty(snap.n());
                for shard in 0..sharded.shard_count() {
                    let intra = sharded.intra(shard, l).unwrap();
                    let boundary = sharded.boundary(shard, l).unwrap();
                    let rows = sharded.label_rows(shard, l).unwrap();
                    // rows = intra ⊎ boundary, and rows stay in the stripe
                    assert_eq!(&intra.union(&boundary), rows);
                    assert!(intra.iter_pairs().all(|(i, j)| sharded
                        .plan()
                        .range(shard)
                        .contains(&i)
                        && sharded.plan().range(shard).contains(&j)));
                    assert!(boundary.iter_pairs().all(|(i, j)| sharded
                        .plan()
                        .range(shard)
                        .contains(&i)
                        && !sharded.plan().range(shard).contains(&j)));
                    union.union_with(rows);
                }
                assert_eq!(&union, full, "shards cover E_{name} exactly at k={k}");
            }
        }
    }

    #[test]
    fn one_stripe_aliases_the_snapshot_relations() {
        let g = ring(40);
        let snap = Arc::new(g.snapshot());
        let one = ShardedSnapshot::new(snap.clone(), ShardPlan::single(snap.n()));
        one.warm();
        assert_eq!(one.approx_bytes(), 0, "a one-stripe view copies nothing");
        for name in ["a", "b"] {
            let l = g.alphabet().label(name).unwrap();
            let rows = one.label_rows(0, l).unwrap();
            assert!(std::ptr::eq(rows, snap.label_relation(l).unwrap()));
            assert!(one.boundary(0, l).unwrap().is_empty());
        }
        assert_eq!(one.boundary_edges(), 0);
    }

    #[test]
    fn foreign_labels_have_no_slices() {
        let mut g = ring(8);
        let snap = Arc::new(g.snapshot());
        let sharded = ShardedSnapshot::new(snap, ShardPlan::even(8, 2));
        let c = g.alphabet_mut().intern("zz");
        assert!(sharded.label_rows(0, c).is_none());
        assert!(sharded.boundary(1, c).is_none());
    }
}
