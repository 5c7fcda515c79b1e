//! Node-range stripes over a frozen [`GraphSnapshot`].
//!
//! The certain-answer semantics served by `gde-core` are embarrassingly
//! partitionable over the answer relation's *source* rows: the full answer
//! is the disjoint union of its row stripes, so K workers can each own one
//! contiguous dense-index range and evaluate independently, with a single
//! cheap merge at the end. A stripe is nothing but that row range: every
//! stripe evaluates on the one snapshot, reading the rows of its range
//! and copying nothing up front.
//!
//! [`ShardPlan`] is the partition of the dense node domain `0..n` into K
//! contiguous stripes — even by node count, or balanced by out-degree
//! ([`ShardPlan::by_out_degree`]) so hub-heavy graphs don't leave workers
//! idle. Since every plan is a contiguous partition of `0..n`, a plan
//! decides only where its K − 1 cuts fall; answers are the same under
//! any plan. `gde-core` schedules `(query, stripe)` tasks onto workers
//! with [`crate::par::try_map_tasks`].

use crate::label::Label;
use crate::snapshot::GraphSnapshot;
use std::ops::Range;

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
    /// per-source evaluation), so a stripe weighs `Σ (1 + out-degree)`
    /// over its rows, and no stripe exceeds `total / k` by more than its
    /// heaviest node. The plan reads only the snapshot and `k`.
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

    /// Cut `0..weight.len()` into `k` contiguous stripes of roughly equal
    /// total weight.
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

    /// The stripe containing a dense row (out-of-range rows clamp to the
    /// last stripe).
    pub fn shard_of(&self, row: u32) -> usize {
        // first bound strictly above `row`, minus one
        let p = self.bounds.partition_point(|&b| b <= row);
        p.clamp(1, self.shard_count()) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DataGraph;
    use crate::node::NodeId;
    use crate::relation::{Relation, RelationBuilder};
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
    fn out_degree_plan_partitions_domain_and_balances() {
        let g = ring(96);
        let s = g.snapshot();
        for k in [1, 2, 4, 5] {
            let plan = ShardPlan::by_out_degree(&s, k);
            assert_eq!(plan.shard_count(), k);
            assert_eq!(plan.n(), 96);
            let mut covered = 0;
            for i in 0..k {
                let r = plan.range(i);
                assert_eq!(r.start, covered);
                covered = r.end;
            }
            assert_eq!(covered, 96);
            // on this near-uniform graph the out-degree cuts stay near-even
            for i in 0..k {
                assert!(!plan.range(i).is_empty(), "k={k} stripe {i} degenerate");
            }
        }
        // empty graph degenerates gracefully
        let empty = DataGraph::new().snapshot();
        assert_eq!(ShardPlan::by_out_degree(&empty, 4).n(), 0);
    }

    #[test]
    fn stripe_stats_account_for_every_edge() {
        let g = ring(48);
        let s = g.snapshot();
        for plan in [ShardPlan::even(48, 4), ShardPlan::by_out_degree(&s, 3)] {
            let (mut nodes, mut edges) = (0, 0);
            for shard in 0..plan.shard_count() {
                let range = plan.range(shard);
                nodes += range.len();
                let (mut out_edges, mut boundary_edges) = (0, 0);
                for li in 0..s.label_count() {
                    let l = Label(li as u16);
                    // a stripe's rows of E_l are its sources' out-edges
                    let rows = s.label_relation(l).unwrap().restrict_rows(range.clone());
                    let label_edges: usize = range.clone().map(|u| s.out(l, u as u32).len()).sum();
                    assert_eq!(rows.len(), label_edges);
                    out_edges += label_edges;
                    boundary_edges += rows
                        .iter_pairs()
                        .filter(|(_, j)| !range.contains(j))
                        .count();
                }
                assert!(boundary_edges <= out_edges);
                edges += out_edges;
            }
            assert_eq!(nodes, 48);
            assert_eq!(edges, s.edge_count());
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
        let snap = g.snapshot();
        for k in [1, 2, 4, 7] {
            let plan = ShardPlan::even(snap.n(), k);
            for name in ["a", "b"] {
                let l = g.alphabet().label(name).unwrap();
                let full = snap.label_relation(l).unwrap();
                let mut union = Relation::empty(snap.n());
                let mut total = 0;
                for shard in 0..plan.shard_count() {
                    let range = plan.range(shard);
                    let rows = full.restrict_rows(range.clone());
                    // the stripe's slice is exactly its sources' adjacency
                    let mut want = RelationBuilder::new(snap.n());
                    for u in range.clone() {
                        for &v in snap.out(l, u as u32) {
                            want.push(u, v as usize);
                        }
                    }
                    assert_eq!(rows, want.build());
                    // rows = intra ⊎ boundary, and rows stay in the stripe
                    let intra = rows.filter(|_, j| range.contains(&j));
                    let boundary = rows.filter(|_, j| !range.contains(&j));
                    assert_eq!(intra.len() + boundary.len(), rows.len());
                    assert_eq!(intra.union(&boundary), rows);
                    assert!(rows.iter_pairs().all(|(i, _)| range.contains(&i)));
                    total += rows.len();
                    union.union_with(&rows);
                }
                assert_eq!(total, full.len(), "stripes are disjoint at k={k}");
                assert_eq!(&union, full, "stripes cover E_{name} exactly at k={k}");
            }
        }
    }

    #[test]
    fn one_stripe_aliases_the_snapshot_relations() {
        let g = ring(40);
        let snap = g.snapshot();
        for one in [
            ShardPlan::even(snap.n(), 1),
            ShardPlan::by_out_degree(&snap, 1),
        ] {
            assert_eq!(one.shard_count(), 1);
            assert_eq!(one.range(0), 0..snap.n());
            assert!((0..snap.n() as u32).all(|row| one.shard_of(row) == 0));
            for name in ["a", "b"] {
                let l = g.alphabet().label(name).unwrap();
                let full = snap.label_relation(l).unwrap();
                // the one stripe reads the whole relation, and no edge
                // leaves it
                let rows = full.restrict_rows(one.range(0));
                assert_eq!(&rows, full);
                assert!(rows.iter_pairs().all(|(_, j)| one.range(0).contains(&j)));
            }
        }
    }

    #[test]
    fn foreign_labels_have_no_slices() {
        let mut g = ring(8);
        let snap = g.snapshot();
        let plan = ShardPlan::even(8, 2);
        let c = g.alphabet_mut().intern("zz");
        assert!(snap.label_relation(c).is_none());
        for shard in 0..plan.shard_count() {
            assert!(plan.range(shard).all(|u| snap.out(c, u as u32).is_empty()));
            assert!(snap
                .label_relation_or_empty(c)
                .restrict_rows(plan.range(shard))
                .is_empty());
        }
    }
}
