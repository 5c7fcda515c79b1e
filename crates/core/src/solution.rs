//! Canonical solutions for relational graph schema mappings.
//!
//! Two constructions from the paper, identical except for the values given
//! to invented nodes:
//!
//! * **Universal solutions** (§7): invented nodes are *null nodes* `(n, n)`
//!   carrying the SQL null. Under SQL-null comparison semantics these map
//!   homomorphically into every solution over `D ∪ {n}` (Lemma 1), which is
//!   what makes certain answers `2ⁿ` computable by direct evaluation
//!   (Theorem 4).
//! * **Least informative solutions** (§8): invented nodes carry pairwise
//!   distinct *fresh data values*. For queries without inequalities
//!   (REM=/REE=) these compute genuine certain answers `2` (Theorem 5) —
//!   a fresh value can never satisfy an equality test, and no inequality
//!   tests exist to notice freshness.
//!
//! Both follow the paper's procedure: add `dom(M, G_s)`, then for each rule
//! `(q, a₁…a_k)` and each `(v,v') ∈ q(G_s)` add a fresh path
//! `v a₁ v₁ a₂ … v_{k-1} a_k v'`.

use crate::gsm::Gsm;
use gde_datagraph::{DataGraph, FxHashSet, Label, NodeId, Value};
use std::sync::OnceLock;

/// Summary of a successful in-place LAV patch
/// ([`CanonicalSolution::patch_lav_edges`] /
/// [`CanonicalSolution::unpatch_lav_edges`]): what the serving engine
/// needs to refreeze incrementally (which labels went stale) and to route
/// invalidation per shard (which pre-existing nodes the change touched).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LavPatch {
    /// Target labels whose edge set changed (their cached relations and
    /// row slices are stale).
    pub touched_labels: Vec<Label>,
    /// Pre-existing solution nodes incident to added/removed fresh paths
    /// (their snapshot rows locate the affected shards).
    pub touched_nodes: Vec<NodeId>,
    /// Nodes were added to the solution graph (the dense domain grew, so
    /// a previous snapshot cannot be patched — full refreeze).
    pub grew: bool,
    /// Nodes were removed from the solution graph (the dense order was
    /// reshaped by swap-removes — full refreeze).
    pub shrank: bool,
}

impl LavPatch {
    /// Fold another patch summary into this one.
    pub fn merge(&mut self, other: LavPatch) {
        self.touched_labels.extend(other.touched_labels);
        self.touched_nodes.extend(other.touched_nodes);
        self.grew |= other.grew;
        self.shrank |= other.shrank;
    }
}

/// Why a canonical solution could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolutionError {
    /// The mapping is not relational (some target query is not a word).
    NotRelational,
    /// A rule with target word ε requires `(v,v')` with `v ≠ v'` to be
    /// connected by an empty path — impossible, so *no* solution exists and
    /// every tuple is vacuously certain.
    NoSolution {
        /// The offending source pair.
        pair: (NodeId, NodeId),
    },
}

impl std::fmt::Display for SolutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolutionError::NotRelational => {
                write!(f, "canonical solutions require a relational mapping")
            }
            SolutionError::NoSolution { pair } => write!(
                f,
                "no solution exists: ε-rule forces distinct nodes {} = {}",
                pair.0, pair.1
            ),
        }
    }
}

impl std::error::Error for SolutionError {}

/// A canonical (universal or least informative) solution.
#[derive(Clone, Debug)]
pub struct CanonicalSolution {
    /// The target graph.
    pub graph: DataGraph,
    /// Nodes invented by the construction (in creation order). All other
    /// nodes of `graph` form `dom(M, G_s)`.
    pub invented: Vec<NodeId>,
    /// Hash index over `invented`, built on first membership query so that
    /// [`CanonicalSolution::is_invented`] is O(1) instead of a linear scan
    /// (per-node scans made answer filtering O(n²) overall).
    invented_index: OnceLock<FxHashSet<NodeId>>,
    /// Monotonic counter behind the `fresh#k` values of least-informative
    /// solutions. Never decremented — removals may delete invented nodes,
    /// but their values must stay retired so later patches cannot collide
    /// with surviving ones.
    next_fresh_value: u64,
}

impl CanonicalSolution {
    /// Package a target graph with its invented-node list.
    pub fn new(graph: DataGraph, invented: Vec<NodeId>) -> CanonicalSolution {
        let next_fresh_value = invented.len() as u64;
        CanonicalSolution {
            graph,
            invented,
            invented_index: OnceLock::new(),
            next_fresh_value,
        }
    }

    /// The invented nodes as a hash set (built once, cached).
    pub fn invented_set(&self) -> &FxHashSet<NodeId> {
        self.invented_index
            .get_or_init(|| self.invented.iter().copied().collect())
    }

    /// Nodes of `dom(M, G_s)` (sorted).
    pub fn dom_nodes(&self) -> Vec<NodeId> {
        let invented = self.invented_set();
        let mut out: Vec<NodeId> = self
            .graph
            .node_ids()
            .filter(|id| !invented.contains(id))
            .collect();
        out.sort();
        out
    }

    /// Is this node one of the invented ones?
    pub fn is_invented(&self, id: NodeId) -> bool {
        self.invented_set().contains(&id)
    }

    /// Approximate heap footprint of the solution in bytes (graph storage
    /// plus the invented-node list and its index). An estimate for cache
    /// budgeting, not an allocator measurement: nodes are costed at the
    /// id/value/hash-index/adjacency-header rate, edges at the
    /// hash-set-entry plus two-adjacency-slots rate.
    pub fn approx_bytes(&self) -> usize {
        self.graph.node_count() * 96 + self.graph.edge_count() * 56 + self.invented.len() * 20
    }

    /// Patch this canonical solution in place for a batch of **newly
    /// added** source edges under a LAV mapping — the incremental
    /// maintenance step of the delta-aware serving engine.
    ///
    /// For a LAV rule `(a, a₁…a_k)` the source answers are exactly the
    /// `a`-labelled edges, so `q(G_s ∪ Δ) = q(G_s) ∪ q(Δ)`: each new edge
    /// `(u, a, v)` contributes precisely one fresh path `u a₁ … a_k v` per
    /// matching rule, and nothing already built changes. `source` must be
    /// the graph *after* the delta (it provides the values of endpoints
    /// that just entered `dom(M, G_s)`).
    ///
    /// Returns `Ok(None)` — solution untouched — when the patch does not
    /// apply and the caller must rebuild instead: the mapping is not
    /// LAV+relational, or a new dom node's id collides with an
    /// already-invented node (fresh source ids start exactly where invented
    /// ids did). Returns `Ok(Some(summary))` on success — the [`LavPatch`]
    /// tells the caller which labels/nodes to refreeze. Returns
    /// `Err(NoSolution)` when an ε-target rule meets a new non-loop pair —
    /// the mapping now has **no** solution at all, and the caller should
    /// serve every answer as vacuously certain.
    pub fn patch_lav_edges(
        &mut self,
        m: &Gsm,
        source: &DataGraph,
        new_edges: &[(NodeId, Label, NodeId)],
        universal: bool,
    ) -> Result<Option<LavPatch>, SolutionError> {
        let class = m.classify();
        if !(class.lav && class.relational) {
            return Ok(None);
        }
        // collect the (rule, pair) matches up front and pre-check both
        // failure modes, so the mutation below cannot stop halfway
        let mut matches: Vec<(Vec<Label>, NodeId, NodeId)> = Vec::new();
        for rule in m.rules() {
            let atom = rule.source.as_atom().expect("invariant: LAV checked");
            let word = rule
                .target
                .as_word()
                .expect("invariant: relational checked");
            for &(u, l, v) in new_edges {
                if l != atom {
                    continue;
                }
                if word.is_empty() && u != v {
                    return Err(SolutionError::NoSolution { pair: (u, v) });
                }
                for endpoint in [u, v] {
                    if self.is_invented(endpoint) {
                        // a fresh source id collides with an invented node:
                        // id spaces are no longer disjoint, rebuild
                        return Ok(None);
                    }
                }
                // an ε-target self-loop match contributes no path, but its
                // endpoint still joins dom(M, G_s) below
                matches.push((word.clone(), u, v));
            }
        }
        if matches.is_empty() {
            return Ok(Some(LavPatch::default())); // solution still current
        }
        // re-establish build()'s disjoint-id invariant against the
        // post-delta source: fresh invented ids must clear every source id
        // (including nodes the delta just added), or a new dom node would
        // be conflated with an invented node allocated by this very patch
        self.graph.reserve_ids(source.fresh_id_watermark());
        let mut new_invented = Vec::new();
        let mut summary = LavPatch::default();
        for (word, u, v) in matches {
            for endpoint in [u, v] {
                if !self.graph.has_node(endpoint) {
                    let val = source
                        .value(endpoint)
                        .expect("invariant: delta endpoint exists");
                    self.graph
                        .add_node(endpoint, val.clone())
                        .expect("invariant: checked absent");
                    summary.grew = true;
                } else {
                    summary.touched_nodes.push(endpoint);
                }
            }
            summary.touched_labels.extend(word.iter().copied());
            let mut cur = u;
            for (i, &label) in word.iter().enumerate() {
                let next = if i + 1 == word.len() {
                    v
                } else {
                    let val = if universal {
                        Value::Null
                    } else {
                        self.next_fresh_value += 1;
                        Value::str(format!("fresh#{}", self.next_fresh_value))
                    };
                    let id = self.graph.fresh_node(val);
                    new_invented.push(id);
                    summary.grew = true;
                    id
                };
                self.graph
                    .add_edge(cur, label, next)
                    .expect("invariant: nodes exist");
                cur = next;
            }
        }
        self.invented.extend(new_invented);
        self.invented_index = OnceLock::new(); // membership index is stale
        summary.touched_labels.sort_unstable();
        summary.touched_labels.dedup();
        Ok(Some(summary))
    }

    /// Absorb a batch of **removed** source edges under a LAV mapping by
    /// deleting the fresh paths they justified — the removal counterpart
    /// of [`CanonicalSolution::patch_lav_edges`].
    ///
    /// For each removed edge `(u, a, v)` and rule `(a, a₁…a_k)`:
    ///
    /// * `k ≥ 2`: the match owns a private chain `u a₁ m₁ … m_{k-1} a_k v`
    ///   whose interior nodes are invented with in/out degree one; one
    ///   such (unclaimed) chain is located and deleted, middles included;
    /// * `k = 1`: the target edge `(u, a₁, v)` is deleted **unless** some
    ///   other rule still justifies it from a surviving source edge;
    /// * `k = 0` (ε): the match contributed no path; only dom membership
    ///   can change.
    ///
    /// Endpoints that no longer appear in any rule match leave
    /// `dom(M, G_s)` and are removed from the solution, mirroring a full
    /// rebuild. `source` must be the graph *after* the delta.
    ///
    /// Returns `None` — solution untouched — when the removal cannot be
    /// expressed (non-LAV/relational mapping, or no clean chain exists,
    /// e.g. after an id-space anomaly): the caller must rebuild. Removals
    /// never make a satisfiable mapping unsatisfiable, so there is no
    /// error case.
    pub fn unpatch_lav_edges(
        &mut self,
        m: &Gsm,
        source: &DataGraph,
        removed_edges: &[(NodeId, Label, NodeId)],
    ) -> Option<LavPatch> {
        let class = m.classify();
        if !(class.lav && class.relational) {
            return None;
        }
        // plan the whole removal first (claimed chains, edges, dom exits),
        // so the mutation below cannot stop halfway
        let mut edges_out: FxHashSet<(NodeId, Label, NodeId)> = FxHashSet::default();
        let mut middles_out: FxHashSet<NodeId> = FxHashSet::default();
        let mut summary = LavPatch::default();
        let mut endpoints: Vec<NodeId> = Vec::new();
        for rule in m.rules() {
            let atom = rule.source.as_atom().expect("invariant: LAV checked");
            let word = rule
                .target
                .as_word()
                .expect("invariant: relational checked");
            for &(u, l, v) in removed_edges {
                if l != atom {
                    continue;
                }
                if !self.graph.has_node(u) || !self.graph.has_node(v) {
                    return None; // the match was never materialised: rebuild
                }
                match word.len() {
                    0 => {
                        // ε-match: no path, but dom membership may change
                        endpoints.push(u);
                        endpoints.push(v);
                    }
                    1 => {
                        // keep the edge if another rule still justifies it
                        // from a surviving source edge (the removed edge is
                        // already gone from `source`) — a kept edge changes
                        // nothing, so it stales no labels or stripes
                        let tl = word[0];
                        let justified = m.rules().iter().any(|r2| {
                            r2.target
                                .as_word()
                                .expect("invariant: relational checked")
                                .as_slice()
                                == [tl]
                                && source.contains_edge(
                                    u,
                                    r2.source.as_atom().expect("invariant: LAV checked"),
                                    v,
                                )
                        });
                        if !justified {
                            edges_out.insert((u, tl, v));
                            endpoints.push(u);
                            endpoints.push(v);
                            summary.touched_labels.push(tl);
                        }
                    }
                    _ => {
                        let chain = self.find_chain(u, v, &word, &middles_out)?;
                        let mut cur = u;
                        for (i, &mid) in chain.iter().enumerate() {
                            edges_out.insert((cur, word[i], mid));
                            middles_out.insert(mid);
                            cur = mid;
                        }
                        edges_out.insert((cur, *word.last().expect("invariant: k ≥ 2"), v));
                        endpoints.push(u);
                        endpoints.push(v);
                        summary.touched_labels.extend(word.iter().copied());
                    }
                }
            }
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        // endpoints with no surviving rule match leave dom(M, G_s); they
        // must end up isolated, exactly as a rebuild would drop them
        let atoms: FxHashSet<Label> = m
            .rules()
            .iter()
            .map(|r| r.source.as_atom().expect("invariant: LAV checked"))
            .collect();
        let mut dom_out: Vec<NodeId> = Vec::new();
        for &x in &endpoints {
            let still_in_dom = source.has_node(x)
                && (source.out_edges(x).any(|(l, _)| atoms.contains(&l))
                    || source.in_edges(x).any(|(l, _)| atoms.contains(&l)));
            if still_in_dom {
                continue;
            }
            let survives = |edge: (NodeId, Label, NodeId)| !edges_out.contains(&edge);
            let busy = self.graph.out_edges(x).any(|(l, y)| survives((x, l, y)))
                || self.graph.in_edges(x).any(|(l, y)| survives((y, l, x)));
            if busy {
                return None; // inconsistent bookkeeping: rebuild
            }
            dom_out.push(x);
        }
        // mutate: edges, then the now-isolated nodes
        for &(u, l, v) in &edges_out {
            if !self.graph.remove_edge(u, l, v) {
                // double-processed removal (e.g. two rules sharing a
                // target word): tolerated, the edge is gone either way
                continue;
            }
        }
        for &mid in &middles_out {
            self.graph.remove_node(mid);
        }
        for &x in &dom_out {
            self.graph.remove_node(x);
        }
        if !middles_out.is_empty() {
            self.invented.retain(|id| !middles_out.contains(id));
            self.invented_index = OnceLock::new();
        }
        summary.touched_nodes.extend(endpoints);
        summary.shrank = !middles_out.is_empty() || !dom_out.is_empty();
        summary.touched_labels.sort_unstable();
        summary.touched_labels.dedup();
        Some(summary)
    }

    /// Locate an unclaimed fresh chain `u a₁ m₁ … m_{k-1} a_k v` whose
    /// interior nodes are invented, unshared (in/out degree one) and not
    /// yet claimed by this plan. Backtracking over candidate middles;
    /// chains are interior-disjoint by construction, so claimed middles
    /// are simply skipped. Returns the interior nodes in path order.
    fn find_chain(
        &self,
        u: NodeId,
        v: NodeId,
        word: &[Label],
        claimed: &FxHashSet<NodeId>,
    ) -> Option<Vec<NodeId>> {
        fn step(
            sol: &CanonicalSolution,
            cur: NodeId,
            v: NodeId,
            word: &[Label],
            claimed: &FxHashSet<NodeId>,
            acc: &mut Vec<NodeId>,
        ) -> bool {
            let (label, rest) = word.split_first().expect("invariant: nonempty word");
            if rest.is_empty() {
                return sol.graph.contains_edge(cur, *label, v);
            }
            let candidates: Vec<NodeId> = sol
                .graph
                .out_edges(cur)
                .filter(|&(l, _)| l == *label)
                .map(|(_, m)| m)
                .collect();
            for mid in candidates {
                if claimed.contains(&mid)
                    || acc.contains(&mid)
                    || !sol.is_invented(mid)
                    || sol.graph.out_edges(mid).count() != 1
                    || sol.graph.in_edges(mid).count() != 1
                {
                    continue;
                }
                acc.push(mid);
                if step(sol, mid, v, rest, claimed, acc) {
                    return true;
                }
                acc.pop();
            }
            false
        }
        let mut acc = Vec::new();
        step(self, u, v, word, claimed, &mut acc).then_some(acc)
    }
}

/// Which values invented nodes receive.
enum InventedValues {
    SqlNull,
    FreshDistinct,
}

fn build(
    m: &Gsm,
    gs: &DataGraph,
    style: InventedValues,
) -> Result<CanonicalSolution, SolutionError> {
    if !m.is_relational() {
        return Err(SolutionError::NotRelational);
    }
    let mut gt = DataGraph::with_alphabet(m.target_alphabet().clone());
    // invented node ids start above every source id, so id spaces stay
    // disjoint across graphs sharing the paper's global N
    gt.reserve_ids(gs.fresh_id_watermark());

    // Each rule's source query is evaluated once; both steps read it.
    let answers = m.rule_answers(gs);

    // Step 1: dom(M, G_s) with source values.
    for id in Gsm::dom_of(&answers) {
        let val = gs.value(id).expect("invariant: dom node in source").clone();
        gt.add_node(id, val).expect("invariant: distinct dom nodes");
    }

    // Step 2: fresh paths per rule and source pair.
    let mut invented = Vec::new();
    let mut fresh_counter: u64 = 0;
    for (rule, pairs) in m.rules().iter().zip(answers) {
        let word = rule
            .target
            .as_word()
            .expect("invariant: relational checked");
        for (u, v) in pairs {
            if word.is_empty() {
                if u != v {
                    return Err(SolutionError::NoSolution { pair: (u, v) });
                }
                continue;
            }
            let mut cur = u;
            for (i, &label) in word.iter().enumerate() {
                let next = if i + 1 == word.len() {
                    v
                } else {
                    let val = match style {
                        InventedValues::SqlNull => Value::Null,
                        InventedValues::FreshDistinct => {
                            fresh_counter += 1;
                            Value::str(format!("fresh#{fresh_counter}"))
                        }
                    };
                    let id = gt.fresh_node(val);
                    invented.push(id);
                    id
                };
                gt.add_edge(cur, label, next)
                    .expect("invariant: nodes exist");
                cur = next;
            }
        }
    }
    Ok(CanonicalSolution::new(gt, invented))
}

/// The universal solution of §7 (invented nodes are null nodes).
pub fn universal_solution(m: &Gsm, gs: &DataGraph) -> Result<CanonicalSolution, SolutionError> {
    build(m, gs, InventedValues::SqlNull)
}

/// The least informative solution of §8 (invented nodes carry fresh,
/// pairwise distinct data values).
pub fn least_informative_solution(
    m: &Gsm,
    gs: &DataGraph,
) -> Result<CanonicalSolution, SolutionError> {
    build(m, gs, InventedValues::FreshDistinct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_automata::parse_regex;
    use gde_datagraph::{Alphabet, Value};

    fn scenario() -> (Gsm, DataGraph) {
        let mut sa = Alphabet::from_labels(["a", "b"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x y", &mut ta).unwrap(),
        );
        m.add_rule(
            parse_regex("b", &mut sa).unwrap(),
            parse_regex("y", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(10)).unwrap();
        gs.add_node(NodeId(1), Value::int(20)).unwrap();
        gs.add_node(NodeId(2), Value::int(30)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(1), "b", NodeId(2)).unwrap();
        (m, gs)
    }

    #[test]
    fn universal_is_a_solution() {
        let (m, gs) = scenario();
        let sol = universal_solution(&m, &gs).unwrap();
        assert!(m.is_solution(&gs, &sol.graph));
    }

    #[test]
    fn least_informative_is_a_solution() {
        let (m, gs) = scenario();
        let sol = least_informative_solution(&m, &gs).unwrap();
        assert!(m.is_solution(&gs, &sol.graph));
    }

    #[test]
    fn universal_shape() {
        let (m, gs) = scenario();
        let sol = universal_solution(&m, &gs).unwrap();
        // dom = {0,1,2}; rule a/xy invents 1 node; rule b/y invents none
        assert_eq!(sol.dom_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sol.invented.len(), 1);
        assert_eq!(sol.graph.node_count(), 4);
        assert_eq!(sol.graph.edge_count(), 3);
        // invented node is a null node with id above the source watermark
        let inv = sol.invented[0];
        assert!(inv.0 >= gs.fresh_id_watermark());
        assert!(sol.graph.value(inv).unwrap().is_null());
        assert!(sol.is_invented(inv));
        assert!(!sol.is_invented(NodeId(0)));
    }

    #[test]
    fn least_informative_values_fresh_and_distinct() {
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x x x", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(1)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let sol = least_informative_solution(&m, &gs).unwrap();
        assert_eq!(sol.invented.len(), 2);
        let v1 = sol.graph.value(sol.invented[0]).unwrap();
        let v2 = sol.graph.value(sol.invented[1]).unwrap();
        assert_ne!(v1, v2);
        assert!(!v1.is_null() && !v2.is_null());
        // fresh values differ from all source values
        assert!(!gs.value_set().contains(v1));
    }

    #[test]
    fn non_relational_rejected() {
        let (m, gs) = scenario();
        let mut m2 = m.clone();
        let reach = gde_automata::Regex::reachability(m2.target_alphabet());
        m2.add_rule(
            gde_automata::Regex::Atom(m2.source_alphabet().label("a").unwrap()),
            reach,
        );
        assert_eq!(
            universal_solution(&m2, &gs).err(),
            Some(SolutionError::NotRelational)
        );
    }

    #[test]
    fn epsilon_rule_detects_unsatisfiability() {
        let mut sa = Alphabet::from_labels(["a"]);
        let ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta);
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            gde_automata::Regex::Epsilon,
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(2)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        match universal_solution(&m, &gs) {
            Err(SolutionError::NoSolution { pair }) => assert_eq!(pair, (NodeId(0), NodeId(1))),
            other => panic!("expected NoSolution, got {other:?}"),
        }
        // with a self-loop the ε-rule is fine
        let mut gs2 = DataGraph::new();
        gs2.add_node(NodeId(0), Value::int(1)).unwrap();
        gs2.add_edge_str(NodeId(0), "a", NodeId(0)).unwrap();
        assert!(universal_solution(&m, &gs2).is_ok());
    }

    #[test]
    fn lav_patch_tracks_full_rebuild() {
        let (m, mut gs) = scenario();
        let mut sol = universal_solution(&m, &gs).unwrap();
        // delta: a new a-edge between existing nodes 2 -a-> 0
        let a = gs.alphabet().label("a").unwrap();
        gs.add_edge(NodeId(2), a, NodeId(0)).unwrap();
        assert!(sol
            .patch_lav_edges(&m, &gs, &[(NodeId(2), a, NodeId(0))], true)
            .unwrap()
            .is_some());
        assert!(m.is_solution(&gs, &sol.graph));
        let rebuilt = universal_solution(&m, &gs).unwrap();
        assert_eq!(sol.dom_nodes(), rebuilt.dom_nodes());
        assert_eq!(sol.invented.len(), rebuilt.invented.len());
        assert_eq!(sol.graph.edge_count(), rebuilt.graph.edge_count());
        // membership index was refreshed
        let new_invented = *sol.invented.last().unwrap();
        assert!(sol.is_invented(new_invented));
    }

    #[test]
    fn lav_patch_least_informative_keeps_values_fresh() {
        let (m, mut gs) = scenario();
        let mut sol = least_informative_solution(&m, &gs).unwrap();
        let a = gs.alphabet().label("a").unwrap();
        gs.add_edge(NodeId(2), a, NodeId(1)).unwrap();
        assert!(sol
            .patch_lav_edges(&m, &gs, &[(NodeId(2), a, NodeId(1))], false)
            .unwrap()
            .is_some());
        assert!(m.is_solution(&gs, &sol.graph));
        // all invented values pairwise distinct and non-null
        let vals: std::collections::HashSet<_> = sol
            .invented
            .iter()
            .map(|&id| sol.graph.value(id).unwrap().clone())
            .collect();
        assert_eq!(vals.len(), sol.invented.len());
        assert!(vals.iter().all(|v| !v.is_null()));
    }

    #[test]
    fn patch_refuses_what_it_cannot_express() {
        let (m, mut gs) = scenario();
        let mut sol = universal_solution(&m, &gs).unwrap();
        let before_edges = sol.graph.edge_count();
        // non-LAV mapping: refuse
        let mut m2 = m.clone();
        let mut sa = m2.source_alphabet().clone();
        m2.add_rule(
            parse_regex("a b", &mut sa).unwrap(),
            parse_regex("x", &mut m2.target_alphabet().clone()).unwrap(),
        );
        let a = gs.alphabet().label("a").unwrap();
        assert!(sol
            .patch_lav_edges(&m2, &gs, &[(NodeId(0), a, NodeId(2))], true)
            .unwrap()
            .is_none());
        // id collision with an invented node: refuse (fresh source ids start
        // exactly at the invented watermark)
        let inv = sol.invented[0];
        gs.add_node(inv, Value::int(99)).unwrap();
        gs.add_edge(NodeId(0), a, inv).unwrap();
        assert!(sol
            .patch_lav_edges(&m, &gs, &[(NodeId(0), a, inv)], true)
            .unwrap()
            .is_none());
        assert_eq!(
            sol.graph.edge_count(),
            before_edges,
            "refusals mutate nothing"
        );
        // ε-target rule meeting a non-loop pair: no solution exists any more
        let mut sa3 = Alphabet::from_labels(["a"]);
        let mut m3 = Gsm::new(sa3.clone(), Alphabet::from_labels(["x"]));
        m3.add_rule(
            parse_regex("a", &mut sa3).unwrap(),
            gde_automata::Regex::Epsilon,
        );
        let mut gs3 = DataGraph::new();
        gs3.add_node(NodeId(0), Value::int(1)).unwrap();
        gs3.add_edge_str(NodeId(0), "a", NodeId(0)).unwrap();
        let mut sol3 = universal_solution(&m3, &gs3).unwrap();
        gs3.add_node(NodeId(1), Value::int(2)).unwrap();
        let a3 = gs3.alphabet().label("a").unwrap();
        gs3.add_edge(NodeId(0), a3, NodeId(1)).unwrap();
        assert_eq!(
            sol3.patch_lav_edges(&m3, &gs3, &[(NodeId(0), a3, NodeId(1))], true),
            Err(SolutionError::NoSolution {
                pair: (NodeId(0), NodeId(1))
            })
        );
    }

    #[test]
    fn patch_fresh_ids_clear_delta_added_source_nodes() {
        // solution next_fresh sits exactly at the source watermark; a delta
        // that adds source node F plus two matching edges (old-pair first)
        // must not let the patch's own fresh_node() allocate F
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x y", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        for i in 0..3 {
            gs.add_node(NodeId(i), Value::int(i as i64)).unwrap();
        }
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let mut sol = universal_solution(&m, &gs).unwrap();
        // invented node took id 3; the next fresh id is 4 == F
        let f = NodeId(gs.fresh_id_watermark() + 1);
        assert_eq!(sol.invented, vec![NodeId(3)]);
        // delta: new source node F, edges (1 -a-> 2) then (2 -a-> F)
        let a = gs.alphabet().label("a").unwrap();
        gs.add_node(f, Value::int(40)).unwrap();
        gs.add_edge(NodeId(1), a, NodeId(2)).unwrap();
        gs.add_edge(NodeId(2), a, f).unwrap();
        assert!(sol
            .patch_lav_edges(
                &m,
                &gs,
                &[(NodeId(1), a, NodeId(2)), (NodeId(2), a, f)],
                true
            )
            .unwrap()
            .is_some());
        // F is a dom node with its source value, not an invented null
        assert!(!sol.is_invented(f));
        assert_eq!(sol.graph.value(f), Some(&Value::int(40)));
        let rebuilt = universal_solution(&m, &gs).unwrap();
        assert_eq!(sol.dom_nodes(), rebuilt.dom_nodes());
        assert_eq!(sol.invented.len(), rebuilt.invented.len());
        assert!(m.is_solution(&gs, &sol.graph));
    }

    #[test]
    fn epsilon_self_loop_patch_extends_dom_like_rebuild() {
        // rules: a => x y, b => ε. A new b-self-loop at a node outside dom
        // contributes no path but must still pull the node into dom.
        let mut sa = Alphabet::from_labels(["a", "b"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x y", &mut ta).unwrap(),
        );
        m.add_rule(
            parse_regex("b", &mut sa).unwrap(),
            gde_automata::Regex::Epsilon,
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(2)).unwrap();
        gs.add_node(NodeId(2), Value::int(3)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        let mut sol = universal_solution(&m, &gs).unwrap();
        assert_eq!(sol.dom_nodes(), vec![NodeId(0), NodeId(1)]);
        // delta: node 2 gains a b-self-loop ("b" interns as index 1,
        // matching the mapping's source alphabet)
        gs.add_edge_str(NodeId(2), "b", NodeId(2)).unwrap();
        let b = gs.alphabet().label("b").unwrap();
        assert!(sol
            .patch_lav_edges(&m, &gs, &[(NodeId(2), b, NodeId(2))], true)
            .unwrap()
            .is_some());
        let rebuilt = universal_solution(&m, &gs).unwrap();
        assert_eq!(sol.dom_nodes(), rebuilt.dom_nodes());
        assert_eq!(sol.dom_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sol.graph.edge_count(), rebuilt.graph.edge_count());
        // a b-edge between distinct nodes still kills the mapping
        gs.add_edge(NodeId(2), b, NodeId(0)).unwrap();
        assert_eq!(
            sol.patch_lav_edges(&m, &gs, &[(NodeId(2), b, NodeId(0))], true),
            Err(SolutionError::NoSolution {
                pair: (NodeId(2), NodeId(0))
            })
        );
    }

    #[test]
    fn unpatch_removes_chains_and_dom_leavers() {
        // rules: a => x y (invents a middle), b => y
        let (m, mut gs) = scenario();
        let mut sol = universal_solution(&m, &gs).unwrap();
        assert_eq!(sol.invented.len(), 1);
        // remove the only a-edge 0 -a-> 1: its x·y chain and middle go;
        // node 0 leaves dom (no other rule-matched edge touches it)
        let a = gs.alphabet().label("a").unwrap();
        gs.remove_edge(NodeId(0), a, NodeId(1));
        let summary = sol
            .unpatch_lav_edges(&m, &gs, &[(NodeId(0), a, NodeId(1))])
            .expect("removal is expressible");
        assert!(summary.shrank);
        let rebuilt = universal_solution(&m, &gs).unwrap();
        assert_eq!(sol.dom_nodes(), rebuilt.dom_nodes());
        assert_eq!(sol.dom_nodes(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(sol.invented.len(), 0);
        assert_eq!(sol.graph.edge_count(), rebuilt.graph.edge_count());
        assert!(m.is_solution(&gs, &sol.graph));

        // non-LAV mappings refuse
        let mut m2 = m.clone();
        let mut sa = m2.source_alphabet().clone();
        m2.add_rule(
            parse_regex("a b", &mut sa).unwrap(),
            parse_regex("y", &mut m2.target_alphabet().clone()).unwrap(),
        );
        assert!(sol
            .unpatch_lav_edges(&m2, &gs, &[(NodeId(1), a, NodeId(2))])
            .is_none());
    }

    #[test]
    fn unpatch_keeps_target_edges_other_rules_justify() {
        // two rules with the same one-letter target word: a => x, c => x
        let mut sa = Alphabet::from_labels(["a", "c"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x", &mut ta).unwrap(),
        );
        m.add_rule(
            parse_regex("c", &mut sa).unwrap(),
            parse_regex("x", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_node(NodeId(1), Value::int(2)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(0), "c", NodeId(1)).unwrap();
        let mut sol = universal_solution(&m, &gs).unwrap();
        let x = sol.graph.alphabet().label("x").unwrap();
        // removing the a-edge keeps the x-edge: the c-edge still justifies it
        let a = gs.alphabet().label("a").unwrap();
        gs.remove_edge(NodeId(0), a, NodeId(1));
        let summary = sol
            .unpatch_lav_edges(&m, &gs, &[(NodeId(0), a, NodeId(1))])
            .unwrap();
        assert!(!summary.shrank);
        assert!(sol.graph.contains_edge(NodeId(0), x, NodeId(1)));
        assert!(m.is_solution(&gs, &sol.graph));
        // removing the c-edge too deletes it and both dom nodes
        let c = gs.alphabet().label("c").unwrap();
        gs.remove_edge(NodeId(0), c, NodeId(1));
        sol.unpatch_lav_edges(&m, &gs, &[(NodeId(0), c, NodeId(1))])
            .unwrap();
        assert_eq!(sol.graph.node_count(), 0);
        assert_eq!(
            universal_solution(&m, &gs).unwrap().graph.node_count(),
            0,
            "rebuild agrees"
        );
    }

    #[test]
    fn unpatch_keeps_fresh_values_retired() {
        // least-informative: remove a chain, then patch a new edge — the
        // new invented value must not collide with surviving fresh values
        let (m, mut gs) = scenario();
        let mut sol = least_informative_solution(&m, &gs).unwrap();
        let a = gs.alphabet().label("a").unwrap();
        // add a second a-edge first so two fresh chains exist
        gs.add_edge(NodeId(2), a, NodeId(0)).unwrap();
        sol.patch_lav_edges(&m, &gs, &[(NodeId(2), a, NodeId(0))], false)
            .unwrap()
            .unwrap();
        // remove the original chain, then re-add the edge
        gs.remove_edge(NodeId(0), a, NodeId(1));
        sol.unpatch_lav_edges(&m, &gs, &[(NodeId(0), a, NodeId(1))])
            .unwrap();
        gs.add_edge(NodeId(0), a, NodeId(1)).unwrap();
        sol.patch_lav_edges(&m, &gs, &[(NodeId(0), a, NodeId(1))], false)
            .unwrap()
            .unwrap();
        let vals: std::collections::HashSet<_> = sol
            .invented
            .iter()
            .map(|&id| sol.graph.value(id).unwrap().clone())
            .collect();
        assert_eq!(vals.len(), sol.invented.len(), "fresh values stay distinct");
        assert!(m.is_solution(&gs, &sol.graph));
    }

    #[test]
    fn longer_source_queries_allowed() {
        // relational restricts targets, not sources: q = a+ is fine
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a+", &mut sa).unwrap(),
            parse_regex("x", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        for i in 0..3 {
            gs.add_node(NodeId(i), Value::int(i as i64)).unwrap();
        }
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(1), "a", NodeId(2)).unwrap();
        let sol = universal_solution(&m, &gs).unwrap();
        // a+ yields pairs (0,1),(1,2),(0,2): three x-edges, no invented nodes
        assert_eq!(sol.invented.len(), 0);
        assert_eq!(sol.graph.edge_count(), 3);
        assert!(m.is_solution(&gs, &sol.graph));
    }
}
