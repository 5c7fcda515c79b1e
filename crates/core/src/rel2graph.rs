//! Relational-to-graph schema mappings — the direction the paper's
//! conclusions (§10) point to, after \[11\] (Boneva–Bonifati–Ciucanu):
//! exchanging a *relational* source database into a *graph* target.
//!
//! A rule pairs a conjunctive query with a binary, node-valued head over
//! the relational source with a target word: for every body match, the two
//! head nodes must be connected by a `w`-labelled path in the target data
//! graph. This is the natural relational analogue of the paper's
//! relational GSMs, and all the §7 machinery transfers: a universal
//! solution with SQL-null invented nodes computes certain answers for
//! hom-closed data RPQs.
//!
//! Node values: sources in the `D_G` style carry an `N(node, value)`
//! relation; [`RelToGraphMapping::universal_solution`] reads exported
//! nodes' values from it (nodes without an `N`-fact get the null value,
//! and conflicting `N`-facts are an error, mirroring the key egd).

use crate::certain::{CertainAnswers, SolveError};
use crate::solution::CanonicalSolution;
use gde_datagraph::{Alphabet, DataGraph, FxHashSet, Label, NodeId, Value};
use gde_dataquery::DataQuery;
use gde_relational::{ConjunctiveQuery, Instance, RelId, Term};

/// One relational-to-graph rule: `q(x, y) → path_w(x, y)`.
#[derive(Clone, Debug)]
pub struct RelToGraphRule {
    /// A CQ over the source schema with exactly two head variables, both of
    /// which must bind to node terms.
    pub query: ConjunctiveQuery,
    /// The target word `w = a₁…a_k` (non-empty).
    pub word: Vec<Label>,
}

/// A relational-to-graph mapping.
#[derive(Clone, Debug)]
pub struct RelToGraphMapping {
    target_alphabet: Alphabet,
    node_rel: Option<RelId>,
    rules: Vec<RelToGraphRule>,
}

/// Errors of the relational-to-graph engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelToGraphError {
    /// A rule's head does not have exactly two variables.
    BadHeadArity,
    /// A rule's target word is empty.
    EmptyWord,
    /// A head variable bound to a non-node term.
    NonNodeHead,
    /// Two `N`-facts assign different values to one node.
    ValueConflict(NodeId),
}

impl std::fmt::Display for RelToGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelToGraphError::BadHeadArity => write!(f, "rule head must be binary"),
            RelToGraphError::EmptyWord => write!(f, "rule target word must be non-empty"),
            RelToGraphError::NonNodeHead => write!(f, "head variables must bind node terms"),
            RelToGraphError::ValueConflict(n) => write!(f, "conflicting values for node {n}"),
        }
    }
}

impl std::error::Error for RelToGraphError {}

impl RelToGraphMapping {
    /// New mapping into the given target alphabet; `node_rel` is the
    /// source's `N(node, value)` relation, if it has one.
    pub fn new(target_alphabet: Alphabet, node_rel: Option<RelId>) -> RelToGraphMapping {
        RelToGraphMapping {
            target_alphabet,
            node_rel,
            rules: Vec::new(),
        }
    }

    /// Add a rule.
    pub fn add_rule(
        &mut self,
        query: ConjunctiveQuery,
        word: Vec<Label>,
    ) -> Result<&mut Self, RelToGraphError> {
        if query.head.len() != 2 {
            return Err(RelToGraphError::BadHeadArity);
        }
        if word.is_empty() {
            return Err(RelToGraphError::EmptyWord);
        }
        self.rules.push(RelToGraphRule { query, word });
        Ok(self)
    }

    /// The rules.
    pub fn rules(&self) -> &[RelToGraphRule] {
        &self.rules
    }

    /// The target alphabet.
    pub fn target_alphabet(&self) -> &Alphabet {
        &self.target_alphabet
    }

    /// Answer pairs of a rule's CQ over a source instance, as node ids.
    fn rule_pairs(
        &self,
        rule: &RelToGraphRule,
        src: &Instance,
    ) -> Result<Vec<(NodeId, NodeId)>, RelToGraphError> {
        let mut out = Vec::new();
        for tuple in rule.query.eval(src) {
            match (&tuple[0], &tuple[1]) {
                (Term::Node(u), Term::Node(v)) => out.push((*u, *v)),
                _ => return Err(RelToGraphError::NonNodeHead),
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Node values exported from the source's `N` relation.
    fn node_value(&self, src: &Instance, node: NodeId) -> Result<Value, RelToGraphError> {
        let Some(nrel) = self.node_rel else {
            return Ok(Value::Null);
        };
        let mut found: Option<Value> = None;
        for fact in src.facts(nrel) {
            if fact[0] == Term::Node(node) {
                let v = match &fact[1] {
                    Term::Val(v) => v.clone(),
                    Term::Null(_) => Value::Null,
                    Term::Node(_) => return Err(RelToGraphError::NonNodeHead),
                };
                match &found {
                    None => found = Some(v),
                    Some(existing) if *existing == v => {}
                    Some(_) => return Err(RelToGraphError::ValueConflict(node)),
                }
            }
        }
        Ok(found.unwrap_or(Value::Null))
    }

    /// Build the universal solution: exported nodes with their `N`-values,
    /// plus one fresh null-node path per rule match.
    pub fn universal_solution(&self, src: &Instance) -> Result<CanonicalSolution, RelToGraphError> {
        let mut gt = DataGraph::with_alphabet(self.target_alphabet.clone());
        // watermark above every node id mentioned anywhere in the source
        let mut watermark = 0u32;
        for (_, fact) in src.all_facts() {
            for t in fact {
                if let Term::Node(n) = t {
                    watermark = watermark.max(n.0 + 1);
                }
            }
        }
        gt.reserve_ids(watermark);

        let mut invented = Vec::new();
        for rule in &self.rules {
            for (u, v) in self.rule_pairs(rule, src)? {
                for id in [u, v] {
                    if !gt.has_node(id) {
                        let val = self.node_value(src, id)?;
                        gt.add_node(id, val).expect("fresh");
                    }
                }
                let mut cur = u;
                for (i, &label) in rule.word.iter().enumerate() {
                    let next = if i + 1 == rule.word.len() {
                        v
                    } else {
                        let id = gt.fresh_node(Value::Null);
                        invented.push(id);
                        id
                    };
                    gt.add_edge(cur, label, next).expect("nodes exist");
                    cur = next;
                }
            }
        }
        Ok(CanonicalSolution::new(gt, invented))
    }

    /// Is `gt` a solution for `src`? (Every rule match connected by its
    /// word, with matching node values where `N` defines them.)
    pub fn is_solution(&self, src: &Instance, gt: &DataGraph) -> Result<bool, RelToGraphError> {
        for rule in &self.rules {
            for (u, v) in self.rule_pairs(rule, src)? {
                for id in [u, v] {
                    let expected = self.node_value(src, id)?;
                    match gt.value(id) {
                        Some(actual) if !expected.is_null() && *actual != expected => {
                            return Ok(false)
                        }
                        Some(_) => {}
                        None => return Ok(false),
                    }
                }
                if !gde_datagraph::path::word_reachable(gt, u, &rule.word).contains(&v) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Certain answers `2ⁿ` for hom-closed data RPQs, via the universal
    /// solution (the §7 method, verbatim).
    pub fn certain_answers_nulls(
        &self,
        q: &DataQuery,
        src: &Instance,
    ) -> Result<CertainAnswers, RelToGraphError> {
        let sol = self.universal_solution(src)?;
        let invented: FxHashSet<NodeId> = sol.invented.iter().copied().collect();
        let mut pairs: Vec<(NodeId, NodeId)> = q
            .eval_pairs(&sol.graph)
            .into_iter()
            .filter(|(u, v)| !invented.contains(u) && !invented.contains(v))
            .collect();
        pairs.sort();
        Ok(CertainAnswers::Pairs(pairs.into()))
    }
}

/// Convenience conversion error wrapper so the engines line up in calling
/// code.
impl From<RelToGraphError> for SolveError {
    fn from(_: RelToGraphError) -> SolveError {
        SolveError::UnsupportedQuery("relational-to-graph rule error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_relational::{Atom, RelSchema};

    fn node(i: u32) -> Term {
        Term::Node(NodeId(i))
    }

    /// Source: N(node, name), WorksWith(x, y) — a relational HR database.
    fn source() -> (Instance, RelId, RelId) {
        let mut sch = RelSchema::new();
        let n = sch.relation("N", 2);
        let w = sch.relation("WorksWith", 2);
        let mut db = Instance::new(sch);
        for (i, name) in [(0, "ann"), (1, "bob"), (2, "ann")] {
            db.insert(n, vec![node(i), Term::Val(Value::str(name))]);
        }
        db.insert(w, vec![node(0), node(1)]);
        db.insert(w, vec![node(1), node(2)]);
        db.insert(w, vec![node(1), node(0)]);
        (db, n, w)
    }

    fn mapping(n: RelId, w: RelId) -> (RelToGraphMapping, Alphabet) {
        let ta = Alphabet::from_labels(["collab", "via"]);
        let mut m = RelToGraphMapping::new(ta.clone(), Some(n));
        // mutual colleagues become a collab·via path
        m.add_rule(
            ConjunctiveQuery {
                head: vec![0, 1],
                atoms: vec![Atom::vars(w, [0, 1]), Atom::vars(w, [1, 0])],
            },
            vec![ta.label("collab").unwrap(), ta.label("via").unwrap()],
        )
        .unwrap();
        // plain colleagues get a single collab edge
        m.add_rule(
            ConjunctiveQuery {
                head: vec![0, 1],
                atoms: vec![Atom::vars(w, [0, 1])],
            },
            vec![ta.label("collab").unwrap()],
        )
        .unwrap();
        (m, ta)
    }

    #[test]
    fn universal_solution_shape() {
        let (db, n, w) = source();
        let (m, _) = mapping(n, w);
        let sol = m.universal_solution(&db).unwrap();
        // mutual pairs: (0,1) and (1,0) → two invented middles
        assert_eq!(sol.invented.len(), 2);
        // exported nodes carry their N-values
        assert_eq!(sol.graph.value(NodeId(0)), Some(&Value::str("ann")));
        assert_eq!(sol.graph.value(NodeId(1)), Some(&Value::str("bob")));
        assert!(m.is_solution(&db, &sol.graph).unwrap());
    }

    #[test]
    fn certain_answers_over_the_graph_target() {
        let (db, n, w) = source();
        let (m, mut ta) = mapping(n, w);
        // same-name colleagues two hops apart: 0(ann) collab 1 collab 2(ann)
        let q: DataQuery = gde_dataquery::parse_ree("(collab collab)=", &mut ta)
            .unwrap()
            .into();
        let ans = m.certain_answers_nulls(&q, &db).unwrap().into_pairs();
        // includes the round-trips 0→1→0 and 1→0→1 (equal endpoints,
        // trivially) alongside the interesting ann→ann pair 0→2
        assert_eq!(
            ans,
            vec![
                (NodeId(0), NodeId(0)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(1))
            ]
        );
        // paths through invented middles never produce certain pairs
        let q: DataQuery = gde_dataquery::parse_ree("via", &mut ta).unwrap().into();
        assert!(m
            .certain_answers_nulls(&q, &db)
            .unwrap()
            .into_pairs()
            .is_empty());
    }

    #[test]
    fn bad_rules_rejected() {
        let (_, n, w) = source();
        let ta = Alphabet::from_labels(["collab"]);
        let mut m = RelToGraphMapping::new(ta.clone(), Some(n));
        let unary = ConjunctiveQuery {
            head: vec![0],
            atoms: vec![Atom::vars(w, [0, 1])],
        };
        assert_eq!(
            m.add_rule(unary, vec![ta.label("collab").unwrap()])
                .err()
                .map(|e| e.to_string()),
            Some("rule head must be binary".to_string())
        );
        let binary = ConjunctiveQuery {
            head: vec![0, 1],
            atoms: vec![Atom::vars(w, [0, 1])],
        };
        assert!(matches!(
            m.add_rule(binary, vec![]),
            Err(RelToGraphError::EmptyWord)
        ));
    }

    #[test]
    fn head_binding_values_rejected() {
        let (db, n, _) = source();
        let ta = Alphabet::from_labels(["x"]);
        let mut m = RelToGraphMapping::new(ta.clone(), Some(n));
        // head variable 1 ranges over the VALUE column of N
        m.add_rule(
            ConjunctiveQuery {
                head: vec![0, 1],
                atoms: vec![Atom::vars(n, [0, 1])],
            },
            vec![ta.label("x").unwrap()],
        )
        .unwrap();
        assert_eq!(
            m.universal_solution(&db).err(),
            Some(RelToGraphError::NonNodeHead)
        );
    }

    #[test]
    fn value_conflicts_detected() {
        let (mut db, n, w) = source();
        db.insert(n, vec![node(0), Term::Val(Value::str("imposter"))]);
        let (m, _) = mapping(n, w);
        assert_eq!(
            m.universal_solution(&db).err(),
            Some(RelToGraphError::ValueConflict(NodeId(0)))
        );
    }

    #[test]
    fn nodes_without_n_facts_get_nulls() {
        let mut sch = RelSchema::new();
        let w = sch.relation("W", 2);
        let mut db = Instance::new(sch);
        db.insert(w, vec![node(0), node(1)]);
        let ta = Alphabet::from_labels(["x"]);
        let mut m = RelToGraphMapping::new(ta.clone(), None);
        m.add_rule(
            ConjunctiveQuery {
                head: vec![0, 1],
                atoms: vec![Atom::vars(w, [0, 1])],
            },
            vec![ta.label("x").unwrap()],
        )
        .unwrap();
        let sol = m.universal_solution(&db).unwrap();
        assert!(sol.graph.value(NodeId(0)).unwrap().is_null());
        assert!(m.is_solution(&db, &sol.graph).unwrap());
    }
}
