//! The data graph `G = ⟨V, E⟩` (§2 of the paper).
//!
//! `V ⊂ N × D` is a finite set of nodes such that no two nodes share a node
//! id, and `E ⊆ V × Σ × V` is a set of labelled edges. [`DataGraph`] stores
//! nodes densely (for the bitset algorithms in the query crates) while
//! exposing the paper's global [`NodeId`]-based view.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::label::{Alphabet, Label};
use crate::node::NodeId;
use crate::value::Value;
use std::fmt;

/// Errors raised by graph construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A node with this id already exists (the paper requires distinct ids).
    DuplicateNode(NodeId),
    /// An edge endpoint refers to a node id not present in the graph.
    UnknownNode(NodeId),
    /// A label name was used that the graph's alphabet does not contain and
    /// implicit interning was not requested.
    UnknownLabel(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateNode(n) => write!(f, "duplicate node id {n}"),
            GraphError::UnknownNode(n) => write!(f, "unknown node id {n}"),
            GraphError::UnknownLabel(l) => write!(f, "unknown label {l:?}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A data graph: finitely many `(id, value)` nodes plus labelled edges.
///
/// The graph owns an [`Alphabet`]; labels of its edges are interned there.
/// Node ids are global ([`NodeId`]); internally nodes are stored densely and
/// algorithms work over dense indices `0..n` obtained via [`DataGraph::idx`].
#[derive(Clone, Debug, Default)]
pub struct DataGraph {
    alphabet: Alphabet,
    ids: Vec<NodeId>,
    values: Vec<Value>,
    index: FxHashMap<NodeId, u32>,
    out: Vec<Vec<(Label, u32)>>,
    inn: Vec<Vec<(Label, u32)>>,
    edges: FxHashSet<(u32, Label, u32)>,
    next_fresh: u32,
}

impl DataGraph {
    /// An empty graph with an empty alphabet.
    pub fn new() -> DataGraph {
        DataGraph::default()
    }

    /// An empty graph over the given alphabet.
    pub fn with_alphabet(alphabet: Alphabet) -> DataGraph {
        DataGraph {
            alphabet,
            ..DataGraph::default()
        }
    }

    /// The graph's alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Mutable access to the alphabet (for interning query labels against
    /// the same interner the graph uses).
    pub fn alphabet_mut(&mut self) -> &mut Alphabet {
        &mut self.alphabet
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a node with an explicit id.
    pub fn add_node(&mut self, id: NodeId, value: Value) -> Result<(), GraphError> {
        if self.index.contains_key(&id) {
            return Err(GraphError::DuplicateNode(id));
        }
        let dense = self.ids.len() as u32;
        self.ids.push(id);
        self.values.push(value);
        self.index.insert(id, dense);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.next_fresh = self.next_fresh.max(id.0.saturating_add(1));
        Ok(())
    }

    /// Add a node with a freshly allocated id (greater than any id seen so
    /// far in this graph) and return the id. Used by solution-building
    /// procedures that "create fresh null nodes" (§7).
    ///
    /// Panics once the graph holds `u32::MAX`, when no greater id is left.
    pub fn fresh_node(&mut self, value: Value) -> NodeId {
        let id = NodeId(self.next_fresh);
        self.add_node(id, value).expect("node id space exhausted");
        id
    }

    /// A node id strictly greater than every id in the graph (without
    /// allocating a node), or `u32::MAX` once the graph holds `u32::MAX`
    /// itself and no such id exists. Useful when several graphs share an
    /// id space.
    pub fn fresh_id_watermark(&self) -> u32 {
        self.next_fresh
    }

    /// Bump the fresh-id watermark so future [`DataGraph::fresh_node`] calls
    /// return ids `>= watermark`.
    pub fn reserve_ids(&mut self, watermark: u32) {
        self.next_fresh = self.next_fresh.max(watermark);
    }

    /// Does the graph contain this node id?
    pub fn has_node(&self, id: NodeId) -> bool {
        self.index.contains_key(&id)
    }

    /// The data value `δ(v)` of a node, if present.
    pub fn value(&self, id: NodeId) -> Option<&Value> {
        self.index.get(&id).map(|&d| &self.values[d as usize])
    }

    /// Overwrite a node's data value (used by valuation substitutions ρ).
    pub fn set_value(&mut self, id: NodeId, value: Value) -> Result<(), GraphError> {
        match self.index.get(&id) {
            Some(&d) => {
                self.values[d as usize] = value;
                Ok(())
            }
            None => Err(GraphError::UnknownNode(id)),
        }
    }

    /// Add an edge `(u, label, v)`; returns `Ok(true)` if it was new.
    pub fn add_edge(&mut self, u: NodeId, label: Label, v: NodeId) -> Result<bool, GraphError> {
        let (du, dv) = (
            *self.index.get(&u).ok_or(GraphError::UnknownNode(u))?,
            *self.index.get(&v).ok_or(GraphError::UnknownNode(v))?,
        );
        debug_assert!(label.index() < self.alphabet.len(), "foreign label");
        if !self.edges.insert((du, label, dv)) {
            return Ok(false);
        }
        self.out[du as usize].push((label, dv));
        self.inn[dv as usize].push((label, du));
        Ok(true)
    }

    /// Add an edge naming the label by string, interning it if necessary.
    pub fn add_edge_str(&mut self, u: NodeId, label: &str, v: NodeId) -> Result<bool, GraphError> {
        let l = self.alphabet.intern(label);
        self.add_edge(u, l, v)
    }

    /// Remove an edge `(u, label, v)`; returns `true` if it was present.
    /// Removal is `O(deg(u) + deg(v))` — adjacency lists are compacted by
    /// swap-remove, so iteration order of a node's edges is not stable
    /// across removals.
    pub fn remove_edge(&mut self, u: NodeId, label: Label, v: NodeId) -> bool {
        let (du, dv) = match (self.index.get(&u), self.index.get(&v)) {
            (Some(&du), Some(&dv)) => (du, dv),
            _ => return false,
        };
        if !self.edges.remove(&(du, label, dv)) {
            return false;
        }
        let out = &mut self.out[du as usize];
        if let Some(p) = out.iter().position(|&(l, d)| l == label && d == dv) {
            out.swap_remove(p);
        }
        let inn = &mut self.inn[dv as usize];
        if let Some(p) = inn.iter().position(|&(l, d)| l == label && d == du) {
            inn.swap_remove(p);
        }
        true
    }

    /// Remove an edge naming the label by string. `false` when the label was
    /// never interned (the edge cannot exist then).
    pub fn remove_edge_str(&mut self, u: NodeId, label: &str, v: NodeId) -> bool {
        match self.alphabet.label(label) {
            Some(l) => self.remove_edge(u, l, v),
            None => false,
        }
    }

    /// Apply a [`GraphDelta`] in one shot: new nodes, then new edges, then
    /// edge removals. The delta is validated **before** anything is applied
    /// (duplicate node ids, edge endpoints that exist neither in the graph
    /// nor among the delta's new nodes), so an `Err` leaves the graph
    /// untouched. Returns a [`DeltaApplied`] summary listing the edges that
    /// were actually new — already-present edges are ignored, so a
    /// delta-aware serving cache reasons about real changes only.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaApplied, GraphError> {
        // validate first so application cannot fail halfway
        let mut fresh: FxHashSet<NodeId> = FxHashSet::default();
        for &(id, _) in &delta.add_nodes {
            if self.index.contains_key(&id) || !fresh.insert(id) {
                return Err(GraphError::DuplicateNode(id));
            }
        }
        for &(u, _, v) in &delta.add_edges {
            for id in [u, v] {
                if !self.index.contains_key(&id) && !fresh.contains(&id) {
                    return Err(GraphError::UnknownNode(id));
                }
            }
        }
        for (id, value) in &delta.add_nodes {
            self.add_node(*id, value.clone()).expect("validated fresh");
        }
        let mut added_edges = Vec::new();
        for (u, label, v) in &delta.add_edges {
            let l = self.alphabet.intern(label);
            if self.add_edge(*u, l, *v).expect("validated endpoints") {
                added_edges.push((*u, l, *v));
            }
        }
        let mut removed_edges = Vec::new();
        for (u, label, v) in &delta.remove_edges {
            if let Some(l) = self.alphabet.label(label) {
                if self.remove_edge(*u, l, *v) {
                    removed_edges.push((*u, l, *v));
                }
            }
        }
        Ok(DeltaApplied {
            added_nodes: delta.add_nodes.len(),
            added_edges,
            removed_edges,
        })
    }

    /// Does the graph contain this edge?
    pub fn contains_edge(&self, u: NodeId, label: Label, v: NodeId) -> bool {
        match (self.index.get(&u), self.index.get(&v)) {
            (Some(&du), Some(&dv)) => self.edges.contains(&(du, label, dv)),
            _ => false,
        }
    }

    /// Iterate over all `(id, value)` nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Value)> + '_ {
        self.ids.iter().copied().zip(self.values.iter())
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }

    /// Iterate over all edges as `(source, label, target)` node ids.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Label, NodeId)> + '_ {
        self.edges
            .iter()
            .map(move |&(u, l, v)| (self.ids[u as usize], l, self.ids[v as usize]))
    }

    /// Outgoing edges of a node as `(label, target)` pairs.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = (Label, NodeId)> + '_ {
        let dense = self.index.get(&id).copied();
        dense
            .into_iter()
            .flat_map(move |d| self.out[d as usize].iter())
            .map(move |&(l, v)| (l, self.ids[v as usize]))
    }

    /// Incoming edges of a node as `(label, source)` pairs.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = (Label, NodeId)> + '_ {
        let dense = self.index.get(&id).copied();
        dense
            .into_iter()
            .flat_map(move |d| self.inn[d as usize].iter())
            .map(move |&(l, v)| (l, self.ids[v as usize]))
    }

    /// Successors of `id` along `label`.
    pub fn successors(&self, id: NodeId, label: Label) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(id)
            .filter(move |&(l, _)| l == label)
            .map(|(_, v)| v)
    }

    // ----- dense-index view (for bitset algorithms) -----

    /// Number of nodes, as the dimension of the dense view.
    #[inline]
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// The dense index of a node id.
    #[inline]
    pub fn idx(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The node id at a dense index.
    #[inline]
    pub fn id_at(&self, dense: u32) -> NodeId {
        self.ids[dense as usize]
    }

    /// The value at a dense index.
    #[inline]
    pub fn value_at(&self, dense: u32) -> &Value {
        &self.values[dense as usize]
    }

    /// Outgoing dense adjacency of a dense index.
    #[inline]
    pub fn out_at(&self, dense: u32) -> &[(Label, u32)] {
        &self.out[dense as usize]
    }

    /// Incoming dense adjacency of a dense index.
    #[inline]
    pub fn in_at(&self, dense: u32) -> &[(Label, u32)] {
        &self.inn[dense as usize]
    }

    // ----- whole-graph operations -----

    /// Copy every node and edge of `other` into `self` (labels are re-interned
    /// by name). Existing nodes keep their value; a node present in both
    /// graphs with different values is reported as an error by returning the
    /// offending id.
    pub fn absorb(&mut self, other: &DataGraph) -> Result<(), NodeId> {
        for (id, v) in other.nodes() {
            match self.value(id) {
                None => self.add_node(id, v.clone()).expect("checked absent"),
                Some(existing) if existing == v => {}
                Some(_) => return Err(id),
            }
        }
        for (u, l, v) in other.edges() {
            let name = other.alphabet.name(l);
            self.add_edge_str(u, name, v).expect("nodes just added");
        }
        Ok(())
    }

    /// Is `self` a subgraph of `other`? (Same ids, same values, edge set
    /// included; labels compared by name.)
    pub fn is_subgraph_of(&self, other: &DataGraph) -> bool {
        for (id, v) in self.nodes() {
            if other.value(id) != Some(v) {
                return false;
            }
        }
        for (u, l, v) in self.edges() {
            let name = self.alphabet.name(l);
            match other.alphabet.label(name) {
                Some(ol) => {
                    if !other.contains_edge(u, ol, v) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }

    /// The set of distinct non-null data values in the graph.
    pub fn value_set(&self) -> FxHashSet<Value> {
        self.values
            .iter()
            .filter(|v| !v.is_null())
            .cloned()
            .collect()
    }

    /// Ids of nodes whose value is the null `n` (§7's "null nodes").
    pub fn null_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|(_, v)| v.is_null()).map(|(id, _)| id)
    }

    /// Render the graph in Graphviz dot format (for the examples).
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph {name} {{");
        for (id, v) in self.nodes() {
            let _ = writeln!(s, "  {} [label=\"{}:{}\"];", id.0, id, v);
        }
        for (u, l, v) in self.edges() {
            let _ = writeln!(
                s,
                "  {} -> {} [label=\"{}\"];",
                u.0,
                v.0,
                self.alphabet.name(l)
            );
        }
        s.push_str("}\n");
        s
    }
}

/// A batch of mutations to apply to a [`DataGraph`] — the unit of change
/// the delta-aware serving engine in `gde-core` consumes. Labels are named
/// by string (interned on application) so a delta can be built without
/// access to the graph's alphabet.
///
/// Build one with the chainable helpers:
///
/// ```
/// use gde_datagraph::{GraphDelta, NodeId, Value};
/// let delta = GraphDelta::new()
///     .with_node(NodeId(7), Value::str("ann"))
///     .with_edge(NodeId(0), "knows", NodeId(7))
///     .without_edge(NodeId(0), "knows", NodeId(1));
/// assert!(!delta.is_additive());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphDelta {
    /// Nodes to add, as `(id, value)`. Ids must be fresh.
    pub add_nodes: Vec<(NodeId, Value)>,
    /// Edges to add, as `(source, label name, target)`. Endpoints must
    /// exist in the graph or among [`GraphDelta::add_nodes`].
    pub add_edges: Vec<(NodeId, String, NodeId)>,
    /// Edges to remove (missing edges are ignored).
    pub remove_edges: Vec<(NodeId, String, NodeId)>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Add a node insertion.
    pub fn with_node(mut self, id: NodeId, value: Value) -> GraphDelta {
        self.add_nodes.push((id, value));
        self
    }

    /// Add an edge insertion.
    pub fn with_edge(mut self, u: NodeId, label: &str, v: NodeId) -> GraphDelta {
        self.add_edges.push((u, label.to_string(), v));
        self
    }

    /// Add an edge removal.
    pub fn without_edge(mut self, u: NodeId, label: &str, v: NodeId) -> GraphDelta {
        self.remove_edges.push((u, label.to_string(), v));
        self
    }

    /// Does the delta change nothing?
    pub fn is_empty(&self) -> bool {
        self.add_nodes.is_empty() && self.add_edges.is_empty() && self.remove_edges.is_empty()
    }

    /// Does the delta only *add* (no removals)?
    pub fn is_additive(&self) -> bool {
        self.remove_edges.is_empty()
    }
}

/// Summary of an applied [`GraphDelta`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaApplied {
    /// Number of nodes added.
    pub added_nodes: usize,
    /// The edges that were actually new, with their interned labels
    /// (already-present edges are skipped).
    pub added_edges: Vec<(NodeId, Label, NodeId)>,
    /// The edges actually removed, with their interned labels (absent
    /// edges are skipped). Labels let a delta-aware serving cache tell
    /// which rules can see the removal.
    pub removed_edges: Vec<(NodeId, Label, NodeId)>,
}

impl DeltaApplied {
    /// Did the application change the graph at all?
    pub fn changed(&self) -> bool {
        self.added_nodes > 0 || !self.added_edges.is_empty() || !self.removed_edges.is_empty()
    }
}

impl fmt::Display for DataGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DataGraph({} nodes, {} edges)",
            self.node_count(),
            self.edge_count()
        )?;
        let mut edges: Vec<_> = self.edges().collect();
        edges.sort();
        for (u, l, v) in edges {
            writeln!(
                f,
                "  ({}:{}) -{}-> ({}:{})",
                u,
                self.value(u).unwrap(),
                self.alphabet.name(l),
                v,
                self.value(v).unwrap()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DataGraph {
        let mut g = DataGraph::new();
        for i in 0..3 {
            g.add_node(NodeId(i), Value::int(i as i64)).unwrap();
        }
        g.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        g.add_edge_str(NodeId(1), "b", NodeId(2)).unwrap();
        g.add_edge_str(NodeId(2), "a", NodeId(0)).unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let a = g.alphabet().label("a").unwrap();
        assert!(g.contains_edge(NodeId(0), a, NodeId(1)));
        assert!(!g.contains_edge(NodeId(1), a, NodeId(0)));
        assert_eq!(g.value(NodeId(2)), Some(&Value::int(2)));
        assert_eq!(g.value(NodeId(9)), None);
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut g = triangle();
        assert_eq!(
            g.add_node(NodeId(0), Value::int(9)),
            Err(GraphError::DuplicateNode(NodeId(0)))
        );
    }

    #[test]
    fn edge_needs_nodes() {
        let mut g = triangle();
        let a = g.alphabet().label("a").unwrap();
        assert_eq!(
            g.add_edge(NodeId(0), a, NodeId(42)),
            Err(GraphError::UnknownNode(NodeId(42)))
        );
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = triangle();
        assert!(!g.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap());
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_edges(NodeId(0)).count(), 1);
    }

    #[test]
    fn fresh_nodes_do_not_collide() {
        let mut g = triangle();
        let f1 = g.fresh_node(Value::Null);
        let f2 = g.fresh_node(Value::Null);
        assert_ne!(f1, f2);
        assert!(f1.0 >= 3 && f2.0 >= 3);
        assert_eq!(g.null_nodes().count(), 2);
    }

    #[test]
    fn reserve_ids_shifts_watermark() {
        let mut g = DataGraph::new();
        g.reserve_ids(100);
        assert_eq!(g.fresh_node(Value::int(1)), NodeId(100));
    }

    #[test]
    fn successors_and_in_edges() {
        let g = triangle();
        let a = g.alphabet().label("a").unwrap();
        let succ: Vec<_> = g.successors(NodeId(0), a).collect();
        assert_eq!(succ, vec![NodeId(1)]);
        let inn: Vec<_> = g.in_edges(NodeId(0)).collect();
        assert_eq!(inn, vec![(a, NodeId(2))]);
    }

    #[test]
    fn absorb_merges_graphs() {
        let mut g = triangle();
        let mut h = DataGraph::new();
        h.add_node(NodeId(2), Value::int(2)).unwrap(); // same value: fine
        h.add_node(NodeId(10), Value::str("x")).unwrap();
        h.add_edge_str(NodeId(2), "c", NodeId(10)).unwrap();
        g.absorb(&h).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let c = g.alphabet().label("c").unwrap();
        assert!(g.contains_edge(NodeId(2), c, NodeId(10)));
    }

    #[test]
    fn absorb_detects_value_conflicts() {
        let mut g = triangle();
        let mut h = DataGraph::new();
        h.add_node(NodeId(0), Value::int(99)).unwrap();
        assert_eq!(g.absorb(&h), Err(NodeId(0)));
    }

    #[test]
    fn subgraph_check() {
        let g = triangle();
        let mut h = DataGraph::new();
        h.add_node(NodeId(0), Value::int(0)).unwrap();
        h.add_node(NodeId(1), Value::int(1)).unwrap();
        h.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        assert!(h.is_subgraph_of(&g));
        assert!(!g.is_subgraph_of(&h));
        h.add_edge_str(NodeId(1), "z", NodeId(0)).unwrap();
        assert!(!h.is_subgraph_of(&g));
    }

    #[test]
    fn value_set_skips_nulls() {
        let mut g = triangle();
        g.fresh_node(Value::Null);
        let vs = g.value_set();
        assert_eq!(vs.len(), 3);
        assert!(!vs.contains(&Value::Null));
    }

    #[test]
    fn dense_view_roundtrip() {
        let g = triangle();
        for id in g.node_ids() {
            let d = g.idx(id).unwrap();
            assert_eq!(g.id_at(d), id);
            assert_eq!(g.value_at(d), g.value(id).unwrap());
        }
        assert_eq!(g.n(), 3);
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = triangle();
        let a = g.alphabet().label("a").unwrap();
        assert!(g.remove_edge(NodeId(0), a, NodeId(1)));
        assert!(!g.contains_edge(NodeId(0), a, NodeId(1)));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_edges(NodeId(0)).count(), 0);
        assert_eq!(g.in_edges(NodeId(1)).count(), 0);
        // removing again, or removing a never-present edge, is a no-op
        assert!(!g.remove_edge(NodeId(0), a, NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), a, NodeId(42)));
        assert!(!g.remove_edge_str(NodeId(1), "zz", NodeId(2)));
        // re-adding works
        assert!(g.add_edge(NodeId(0), a, NodeId(1)).unwrap());
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn apply_delta_adds_and_removes() {
        let mut g = triangle();
        let delta = GraphDelta::new()
            .with_node(NodeId(10), Value::str("x"))
            .with_edge(NodeId(2), "c", NodeId(10))
            .with_edge(NodeId(0), "a", NodeId(1)) // already present: skipped
            .without_edge(NodeId(1), "b", NodeId(2))
            .without_edge(NodeId(1), "b", NodeId(0)); // absent: ignored
        let applied = g.apply_delta(&delta).unwrap();
        assert_eq!(applied.added_nodes, 1);
        assert_eq!(applied.added_edges.len(), 1);
        let b = g.alphabet().label("b").unwrap();
        assert_eq!(applied.removed_edges, vec![(NodeId(1), b, NodeId(2))]);
        assert!(applied.changed());
        let c = g.alphabet().label("c").unwrap();
        assert!(g.contains_edge(NodeId(2), c, NodeId(10)));
        let b = g.alphabet().label("b").unwrap();
        assert!(!g.contains_edge(NodeId(1), b, NodeId(2)));
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn apply_delta_validates_before_mutating() {
        let mut g = triangle();
        // duplicate node id: rejected, nothing applied
        let bad = GraphDelta::new()
            .with_node(NodeId(0), Value::int(9))
            .with_edge(NodeId(0), "z", NodeId(1));
        assert_eq!(
            g.apply_delta(&bad),
            Err(GraphError::DuplicateNode(NodeId(0)))
        );
        assert!(g.alphabet().label("z").is_none());
        // unknown endpoint: rejected even when named among later adds only
        let bad = GraphDelta::new().with_edge(NodeId(0), "a", NodeId(42));
        assert_eq!(
            g.apply_delta(&bad),
            Err(GraphError::UnknownNode(NodeId(42)))
        );
        assert_eq!(g.edge_count(), 3);
        // an edge may target a node added by the same delta
        let ok = GraphDelta::new()
            .with_node(NodeId(5), Value::int(5))
            .with_edge(NodeId(5), "a", NodeId(5));
        assert!(g.apply_delta(&ok).unwrap().changed());
        assert!(GraphDelta::new().is_empty());
    }

    #[test]
    fn apply_delta_edge_cases() {
        // empty delta: nothing changes, no error
        let mut g = triangle();
        let applied = g.apply_delta(&GraphDelta::new()).unwrap();
        assert!(!applied.changed());
        assert_eq!(g.edge_count(), 3);

        // duplicate edge add within one delta: applied once, reported once
        let delta = GraphDelta::new()
            .with_edge(NodeId(0), "c", NodeId(2))
            .with_edge(NodeId(0), "c", NodeId(2));
        let applied = g.apply_delta(&delta).unwrap();
        assert_eq!(applied.added_edges.len(), 1);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_edges(NodeId(0)).count(), 2);

        // add-then-remove of the same edge in one delta: adds apply first,
        // so the edge is gone at the end but both sides are reported
        let delta = GraphDelta::new()
            .with_edge(NodeId(1), "d", NodeId(0))
            .without_edge(NodeId(1), "d", NodeId(0));
        let applied = g.apply_delta(&delta).unwrap();
        let d = g.alphabet().label("d").unwrap();
        assert_eq!(applied.added_edges, vec![(NodeId(1), d, NodeId(0))]);
        assert_eq!(applied.removed_edges, vec![(NodeId(1), d, NodeId(0))]);
        assert!(!g.contains_edge(NodeId(1), d, NodeId(0)));

        // removal of a nonexistent edge (and of a never-interned label):
        // ignored, not an error, not reported
        let delta = GraphDelta::new()
            .without_edge(NodeId(0), "a", NodeId(2))
            .without_edge(NodeId(0), "nope", NodeId(1))
            .without_edge(NodeId(42), "a", NodeId(0));
        let applied = g.apply_delta(&delta).unwrap();
        assert!(!applied.changed());
        assert!(applied.removed_edges.is_empty());
        assert!(g.alphabet().label("nope").is_none());
    }

    #[test]
    fn dot_output_mentions_everything() {
        let g = triangle();
        let dot = g.to_dot("g");
        assert!(dot.contains("digraph g {"));
        assert!(dot.contains("0 -> 1"));
        assert!(dot.contains("label=\"a\""));
    }
}
