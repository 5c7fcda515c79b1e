//! Frozen, index-heavy snapshots of a [`DataGraph`] for repeated query
//! evaluation.
//!
//! [`DataGraph`] is built for incremental construction: adjacency is a
//! `Vec<Vec<(Label, u32)>>`, so every automaton step or relation-algebra
//! atom has to re-filter a node's whole out-list by label. That is fine for
//! one-shot evaluation but wasteful for a serving engine that answers many
//! queries against one canonical solution (the access pattern behind the
//! paper's Theorems 3–5, where *one* universal solution serves every
//! hom-closed query).
//!
//! [`GraphSnapshot`] freezes a graph into:
//!
//! * **label-partitioned CSR adjacency**, forward and backward: `out(l, u)`
//!   and `inn(l, u)` are contiguous slices, no filtering;
//! * an **interned value table**: each node carries a dense value id, so
//!   SQL-null equality tests become integer comparisons instead of `Value`
//!   comparisons;
//! * a **value-grouped node index**: all nodes holding a given value as one
//!   slice, for seeding data-join style evaluation;
//! * **lazily cached per-label edge relations** (the `E_a` bitsets that REE
//!   and GXPath evaluation start from), computed at most once per label.
//!
//! A snapshot is immutable and self-contained: it copies node ids and
//! values out of the graph, so the graph can be dropped or mutated freely
//! afterwards (mutations are *not* reflected — take a new snapshot).

use crate::fxhash::FxHashMap;
use crate::graph::DataGraph;
use crate::label::Label;
use crate::node::NodeId;
use crate::relation::{Relation, RelationBuilder};
use crate::value::Value;
use std::sync::OnceLock;

/// A vid that never occurs (no graph has `u32::MAX` distinct values here).
const NO_VID: u32 = u32::MAX;

/// Label-partitioned CSR adjacency (forward and backward) of a graph, in
/// two counting-sort passes.
#[allow(clippy::type_complexity)]
fn build_csr(g: &DataGraph, n: usize, n_labels: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let stripe = n + 1;
    let mut fwd_off = vec![0u32; n_labels * stripe + 1];
    let mut bwd_off = vec![0u32; n_labels * stripe + 1];
    for u in 0..n as u32 {
        for &(l, v) in g.out_at(u) {
            fwd_off[l.index() * stripe + u as usize + 1] += 1;
            bwd_off[l.index() * stripe + v as usize + 1] += 1;
        }
    }
    for i in 1..fwd_off.len() {
        fwd_off[i] += fwd_off[i - 1];
        bwd_off[i] += bwd_off[i - 1];
    }
    let m = fwd_off[fwd_off.len() - 1] as usize;
    let mut fwd_dst = vec![0u32; m];
    let mut bwd_src = vec![0u32; m];
    let mut fwd_cursor = fwd_off.clone();
    let mut bwd_cursor = bwd_off.clone();
    for u in 0..n as u32 {
        for &(l, v) in g.out_at(u) {
            let fslot = &mut fwd_cursor[l.index() * stripe + u as usize];
            fwd_dst[*fslot as usize] = v;
            *fslot += 1;
            let bslot = &mut bwd_cursor[l.index() * stripe + v as usize];
            bwd_src[*bslot as usize] = u;
            *bslot += 1;
        }
    }
    (fwd_off, fwd_dst, bwd_off, bwd_src)
}

/// An immutable, label-partitioned CSR view of a data graph.
#[derive(Debug)]
pub struct GraphSnapshot {
    n: usize,
    n_labels: usize,
    ids: Vec<NodeId>,
    index: FxHashMap<NodeId, u32>,
    // forward CSR: fwd_off[l * (n+1) + u] .. [.. + u + 1] indexes fwd_dst
    fwd_off: Vec<u32>,
    fwd_dst: Vec<u32>,
    // backward CSR, same layout over sources
    bwd_off: Vec<u32>,
    bwd_src: Vec<u32>,
    // value interning: vid[u] indexes values; null nodes share null_vid
    vid: Vec<u32>,
    values: Vec<Value>,
    null_vid: Option<u32>,
    value_index: FxHashMap<Value, u32>,
    // value groups: group_off[v] .. group_off[v + 1] indexes group_members
    group_off: Vec<u32>,
    group_members: Vec<u32>,
    // per-label E_a relations, built on first use
    label_rel: Vec<OnceLock<Relation>>,
}

impl GraphSnapshot {
    /// Freeze a graph. `O(V·L + E)` time and space — the CSR offset arrays
    /// are per-label, so snapshots trade `V·L` words up front for O(1)
    /// label-partitioned adjacency. With the small interned alphabets this
    /// workspace uses (tens of labels) that is effectively `O(V + E)`;
    /// callers with huge alphabets should hold one snapshot per graph
    /// rather than freezing per query.
    pub fn new(g: &DataGraph) -> GraphSnapshot {
        let n = g.n();
        let n_labels = g.alphabet().len();
        let ids: Vec<NodeId> = (0..n as u32).map(|d| g.id_at(d)).collect();
        let index: FxHashMap<NodeId, u32> = ids
            .iter()
            .enumerate()
            .map(|(d, &id)| (id, d as u32))
            .collect();

        let (fwd_off, fwd_dst, bwd_off, bwd_src) = build_csr(g, n, n_labels);

        // ---- value interning ----
        let mut values: Vec<Value> = Vec::new();
        let mut value_index: FxHashMap<Value, u32> = FxHashMap::default();
        let mut null_vid = None;
        let mut vid = Vec::with_capacity(n);
        for d in 0..n as u32 {
            let v = g.value_at(d);
            let id = *value_index.entry(v.clone()).or_insert_with(|| {
                values.push(v.clone());
                (values.len() - 1) as u32
            });
            if v.is_null() {
                null_vid = Some(id);
            }
            vid.push(id);
        }

        // ---- value groups (counting sort over vids) ----
        let mut group_off = vec![0u32; values.len() + 1];
        for &v in &vid {
            group_off[v as usize + 1] += 1;
        }
        for i in 1..group_off.len() {
            group_off[i] += group_off[i - 1];
        }
        let mut group_members = vec![0u32; n];
        let mut cursor = group_off.clone();
        for (u, &v) in vid.iter().enumerate() {
            group_members[cursor[v as usize] as usize] = u as u32;
            cursor[v as usize] += 1;
        }

        GraphSnapshot {
            n,
            n_labels,
            ids,
            index,
            fwd_off,
            fwd_dst,
            bwd_off,
            bwd_src,
            vid,
            values,
            null_vid,
            value_index,
            group_off,
            group_members,
            label_rel: (0..n_labels).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of labels partitioning the edge set.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.n_labels
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.fwd_dst.len()
    }

    /// The node id at a dense index.
    #[inline]
    pub fn id_at(&self, dense: u32) -> NodeId {
        self.ids[dense as usize]
    }

    /// The dense index of a node id.
    #[inline]
    pub fn idx(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Successors of `u` along `label`, as a contiguous slice. Labels the
    /// snapshot has never seen (interned after freezing) have no edges.
    #[inline]
    pub fn out(&self, label: Label, u: u32) -> &[u32] {
        if label.index() >= self.n_labels {
            return &[];
        }
        let base = label.index() * (self.n + 1) + u as usize;
        &self.fwd_dst[self.fwd_off[base] as usize..self.fwd_off[base + 1] as usize]
    }

    /// Predecessors of `u` along `label`, as a contiguous slice.
    #[inline]
    pub fn inn(&self, label: Label, u: u32) -> &[u32] {
        if label.index() >= self.n_labels {
            return &[];
        }
        let base = label.index() * (self.n + 1) + u as usize;
        &self.bwd_src[self.bwd_off[base] as usize..self.bwd_off[base + 1] as usize]
    }

    /// The interned value id of a node. Nodes with SQL-equal values share a
    /// vid; all null nodes share one vid too (flagged by [`GraphSnapshot::is_null`]).
    #[inline]
    pub fn vid(&self, u: u32) -> u32 {
        self.vid[u as usize]
    }

    /// Number of distinct values (including the null, if present).
    #[inline]
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// The value behind a vid.
    #[inline]
    pub fn value_of_vid(&self, vid: u32) -> &Value {
        &self.values[vid as usize]
    }

    /// The data value of a node.
    #[inline]
    pub fn value_at(&self, u: u32) -> &Value {
        &self.values[self.vid[u as usize] as usize]
    }

    /// Is the node's value the SQL null?
    #[inline]
    pub fn is_null(&self, u: u32) -> bool {
        self.null_vid == Some(self.vid[u as usize])
    }

    /// SQL-null equality of two nodes' values as an integer comparison:
    /// true iff both are non-null and equal.
    #[inline]
    pub fn sql_eq(&self, u: u32, v: u32) -> bool {
        let (a, b) = (self.vid[u as usize], self.vid[v as usize]);
        a == b && self.null_vid != Some(a)
    }

    /// SQL-null inequality: true iff both are non-null and different.
    #[inline]
    pub fn sql_ne(&self, u: u32, v: u32) -> bool {
        let (a, b) = (self.vid[u as usize], self.vid[v as usize]);
        a != b && self.null_vid != Some(a) && self.null_vid != Some(b)
    }

    /// All nodes whose value has this vid, as a contiguous slice.
    #[inline]
    pub fn group(&self, vid: u32) -> &[u32] {
        &self.group_members
            [self.group_off[vid as usize] as usize..self.group_off[vid as usize + 1] as usize]
    }

    /// All nodes holding exactly this value (empty when absent).
    pub fn nodes_with_value(&self, v: &Value) -> &[u32] {
        match self.value_index.get(v) {
            Some(&vid) => self.group(vid),
            None => &[],
        }
    }

    /// The vid a value would have, if present in the snapshot.
    pub fn vid_of_value(&self, v: &Value) -> Option<u32> {
        self.value_index.get(v).copied()
    }

    /// The vid shared by null nodes, if any node is null.
    #[inline]
    pub fn null_vid(&self) -> Option<u32> {
        self.null_vid
    }

    /// A vid-like sentinel distinct from every real vid (for register
    /// initialisation in automata evaluation).
    #[inline]
    pub fn no_vid() -> u32 {
        NO_VID
    }

    /// Number of edges carrying `label` (0 for labels the snapshot has
    /// never seen). O(1) from the CSR offset arrays — this is the label
    /// density statistic behind static cardinality estimation.
    pub fn label_edge_count(&self, label: Label) -> usize {
        if label.index() >= self.n_labels {
            return 0;
        }
        let stripe = self.n + 1;
        let base = label.index() * stripe;
        (self.fwd_off[base + self.n] - self.fwd_off[base]) as usize
    }

    /// The single-letter edge relation `E_label` as a bitset [`Relation`],
    /// built on first use and cached for the life of the snapshot. `None`
    /// for labels the snapshot has never seen (their relation is empty).
    pub fn label_relation(&self, label: Label) -> Option<&Relation> {
        if label.index() >= self.n_labels {
            return None;
        }
        Some(self.label_rel[label.index()].get_or_init(|| {
            // Bulk-build so large sparse graphs get the CSR representation
            // directly instead of paying per-pair dense bits (or sparse
            // arena splices).
            let mut b = RelationBuilder::new(self.n);
            for u in 0..self.n as u32 {
                for &v in self.out(label, u) {
                    b.push(u as usize, v as usize);
                }
            }
            b.build()
        }))
    }

    /// Like [`GraphSnapshot::label_relation`] but materialising an owned
    /// empty relation of the right dimension for foreign labels.
    pub fn label_relation_or_empty(&self, label: Label) -> Relation {
        match self.label_relation(label) {
            Some(r) => r.clone(),
            None => Relation::empty(self.n),
        }
    }

    /// Approximate heap footprint of the snapshot in bytes: the CSR and
    /// value-group arrays, the id/value indexes (counted at typical
    /// hash-map-entry cost), and every per-label relation cached so far.
    /// Used by eviction policies that budget cached snapshots; it is an
    /// estimate, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let cached_rels: usize = self
            .label_rel
            .iter()
            .filter_map(|c| c.get())
            .map(Relation::heap_bytes)
            .sum();
        self.ids.len() * size_of::<NodeId>()
            + self.index.len() * (size_of::<(NodeId, u32)>() + 8)
            + (self.fwd_off.len() + self.bwd_off.len()) * size_of::<u32>()
            + (self.fwd_dst.len() + self.bwd_src.len()) * size_of::<u32>()
            + self.vid.len() * size_of::<u32>()
            + self.values.len() * (size_of::<Value>() + 8)
            + self.value_index.len() * (size_of::<(Value, u32)>() + 8)
            + (self.group_off.len() + self.group_members.len()) * size_of::<u32>()
            + cached_rels
    }
}

impl DataGraph {
    /// Freeze the graph into a [`GraphSnapshot`].
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0(v1) -a-> 1(v2) -a-> 2(v1) -b-> 3(null), 3 -a-> 0, 1 -b-> 1
    fn g() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_node(NodeId(0), Value::int(1)).unwrap();
        g.add_node(NodeId(1), Value::int(2)).unwrap();
        g.add_node(NodeId(2), Value::int(1)).unwrap();
        g.add_node(NodeId(3), Value::Null).unwrap();
        g.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        g.add_edge_str(NodeId(1), "a", NodeId(2)).unwrap();
        g.add_edge_str(NodeId(2), "b", NodeId(3)).unwrap();
        g.add_edge_str(NodeId(3), "a", NodeId(0)).unwrap();
        g.add_edge_str(NodeId(1), "b", NodeId(1)).unwrap();
        g
    }

    #[test]
    fn csr_matches_graph_adjacency() {
        let g = g();
        let s = g.snapshot();
        assert_eq!(s.n(), 4);
        assert_eq!(s.edge_count(), 5);
        for u in 0..g.n() as u32 {
            for l in g.alphabet().labels().collect::<Vec<_>>() {
                let mut expect: Vec<u32> = g
                    .out_at(u)
                    .iter()
                    .filter(|&&(el, _)| el == l)
                    .map(|&(_, v)| v)
                    .collect();
                expect.sort_unstable();
                let mut got = s.out(l, u).to_vec();
                got.sort_unstable();
                assert_eq!(got, expect, "out({l:?}, {u})");
                let mut expect: Vec<u32> = g
                    .in_at(u)
                    .iter()
                    .filter(|&&(el, _)| el == l)
                    .map(|&(_, v)| v)
                    .collect();
                expect.sort_unstable();
                let mut got = s.inn(l, u).to_vec();
                got.sort_unstable();
                assert_eq!(got, expect, "inn({l:?}, {u})");
            }
        }
    }

    #[test]
    fn value_interning_and_groups() {
        let g = g();
        let s = g.snapshot();
        // nodes 0 and 2 share v1
        assert_eq!(s.vid(0), s.vid(2));
        assert_ne!(s.vid(0), s.vid(1));
        assert_eq!(s.value_at(1), &Value::int(2));
        assert!(s.is_null(3) && !s.is_null(0));
        let mut grp = s.nodes_with_value(&Value::int(1)).to_vec();
        grp.sort_unstable();
        assert_eq!(grp, vec![0, 2]);
        assert!(s.nodes_with_value(&Value::int(99)).is_empty());
        // every node is in exactly one group
        let total: usize = (0..s.value_count() as u32).map(|v| s.group(v).len()).sum();
        assert_eq!(total, s.n());
    }

    #[test]
    fn sql_semantics_on_vids() {
        let g = g();
        let s = g.snapshot();
        assert!(s.sql_eq(0, 2));
        assert!(!s.sql_eq(0, 1));
        assert!(s.sql_ne(0, 1));
        // null never compares, in either direction
        assert!(!s.sql_eq(3, 3));
        assert!(!s.sql_ne(3, 0));
        assert!(!s.sql_eq(0, 3));
        // agreement with Value::sql_eq / sql_ne on all pairs
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(s.sql_eq(u, v), g.value_at(u).sql_eq(g.value_at(v)));
                assert_eq!(s.sql_ne(u, v), g.value_at(u).sql_ne(g.value_at(v)));
            }
        }
    }

    #[test]
    fn label_relations_cached_and_correct() {
        let g = g();
        let s = g.snapshot();
        let a = g.alphabet().label("a").unwrap();
        let r1 = s.label_relation(a).unwrap() as *const Relation;
        let r2 = s.label_relation(a).unwrap() as *const Relation;
        assert_eq!(r1, r2, "same cached relation");
        let r = s.label_relation(a).unwrap();
        assert!(r.contains(0, 1) && r.contains(1, 2) && r.contains(3, 0));
        assert!(!r.contains(2, 3));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn foreign_labels_are_empty() {
        let mut g = g();
        let s = g.snapshot();
        let c = g.alphabet_mut().intern("c"); // interned after freezing
        assert!(s.out(c, 0).is_empty());
        assert!(s.inn(c, 0).is_empty());
        assert_eq!(s.label_relation_or_empty(c).dim(), s.n());
        assert!(s.label_relation_or_empty(c).is_empty());
    }

    #[test]
    fn id_roundtrip() {
        let g = g();
        let s = g.snapshot();
        for d in 0..s.n() as u32 {
            assert_eq!(s.idx(s.id_at(d)), Some(d));
        }
        assert_eq!(s.idx(NodeId(99)), None);
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = DataGraph::new();
        let s = g.snapshot();
        assert_eq!(s.n(), 0);
        assert_eq!(s.edge_count(), 0);
        assert_eq!(s.value_count(), 0);
    }

    #[test]
    fn per_label_edge_counts() {
        let mut g = g();
        let a = g.alphabet().label("a").unwrap();
        let b = g.alphabet().label("b").unwrap();
        let s = g.snapshot();
        assert_eq!(
            s.label_edge_count(a) + s.label_edge_count(b),
            s.edge_count()
        );
        assert_eq!(s.label_edge_count(a), s.label_relation(a).unwrap().len());
        // foreign labels count zero
        assert_eq!(s.label_edge_count(Label(99)), 0);
        g.add_edge_str(NodeId(0), "a", NodeId(0)).unwrap();
        assert_eq!(g.snapshot().label_edge_count(a), s.label_edge_count(a) + 1);
    }
}
