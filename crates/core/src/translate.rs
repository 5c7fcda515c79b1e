//! Proposition 1, executable: a relational GSM `M` acts on the relational
//! representations `D_G` exactly like the relational schema mapping
//! `M_rel`.
//!
//! For each rule `(q, w)` with `w = a₁…a_k`, `M_rel` contains the st-tgd
//!
//! ```text
//! ∀x,y  Q_i(x,y) → ∃z₁…z_{k-1}  E_{a₁}(x,z₁) ∧ … ∧ E_{a_k}(z_{k-1},y)
//! ```
//!
//! plus value-transfer tgds `Q_i(x,y) ∧ Nˢ(x,v) → Nᵗ(x,v)` (and for `y`),
//! the key egd `Nᵗ(x,v) ∧ Nᵗ(x,v') → v = v'`, and node-valuation target
//! tgds `E_a(x,y) → ∃v,v' Nᵗ(x,v) ∧ Nᵗ(y,v')`.
//!
//! As in the paper, the source query `q` "need not be conjunctive": we
//! materialize `q(G_s)` into an auxiliary source relation `Q_i` (the paper
//! keeps `q` abstract for the same reason). [`verify_prop1`] machine-checks
//! the proposition: chasing `M_rel` over `D_{G_s}` and decoding yields the
//! universal solution of the direct graph-side construction, up to
//! renaming of invented nodes.

use crate::gsm::Gsm;
use crate::solution::{universal_solution, SolutionError};
use gde_datagraph::{hom, DataGraph, FxHashMap, HomMode};
use gde_relational::{
    chase_st, chase_target, decode_graph, encode_graph, Atom, Egd, GraphSchema, Instance, RelId,
    RelSchema, Term, Tgd, ValueNullStyle,
};

/// The relational rendering of a relational GSM, specialised to a source
/// graph (source queries are materialised into `Q_i` relations).
#[derive(Clone, Debug)]
pub struct RelationalMapping {
    /// Source schema: `Nˢ`, `E_a` per source label, and one `Q_i` per rule.
    pub source_schema: RelSchema,
    /// Materialised source instance `D_{G_s}` plus the `Q_i` facts.
    pub source_instance: Instance,
    /// The target-side graph schema (`Nᵗ`, `E_a` per target label).
    pub target: GraphSchema,
    /// Source-to-target tgds.
    pub st_tgds: Vec<Tgd>,
    /// Target tgds (node valuation).
    pub target_tgds: Vec<Tgd>,
    /// Target egds (the node-value key).
    pub egds: Vec<Egd>,
}

/// Errors of the translation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// Mapping not relational.
    NotRelational,
    /// A rule's target word is ε; the paper's translation needs at least one
    /// edge atom on the right-hand side.
    EpsilonTargetWord,
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::NotRelational => write!(f, "translation requires a relational GSM"),
            TranslateError::EpsilonTargetWord => {
                write!(f, "translation requires non-empty target words")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Build `M_rel` for `m` over the concrete source `gs`.
pub fn translate_to_relational(
    m: &Gsm,
    gs: &DataGraph,
) -> Result<RelationalMapping, TranslateError> {
    if !m.is_relational() {
        return Err(TranslateError::NotRelational);
    }
    // Source side: D_{G_s} extended with Q_i relations.
    let (src_graph_schema, mut source_instance) = {
        let (gsch, inst) = encode_graph(gs);
        (gsch, inst)
    };
    let mut source_schema = src_graph_schema.schema.clone();
    let source_n = src_graph_schema.node_rel;

    // We must rebuild the instance over the extended schema.
    let mut q_rels: Vec<RelId> = Vec::new();
    for i in 0..m.rules().len() {
        q_rels.push(source_schema.relation(&format!("Q_{i}"), 2));
    }
    let mut extended = Instance::new(source_schema.clone());
    for (rel, fact) in source_instance.all_facts() {
        let name = source_instance.schema().name(rel).to_string();
        let id = source_schema.lookup(&name).expect("copied relation");
        extended.insert(id, fact.to_vec());
    }
    for (i, pairs) in m.rule_answers(gs).into_iter().enumerate() {
        for (u, v) in pairs {
            extended.insert(q_rels[i], vec![Term::Node(u), Term::Node(v)]);
        }
    }
    source_instance = extended;

    // Target side.
    let target = GraphSchema::for_alphabet(m.target_alphabet());
    let t_n = target.node_rel;

    // st-tgds.
    let mut st_tgds = Vec::new();
    for (i, rule) in m.rules().iter().enumerate() {
        let word = rule.target.as_word().expect("relational");
        if word.is_empty() {
            return Err(TranslateError::EpsilonTargetWord);
        }
        // vars: 0 = x, 1 = y, 2.. = z's
        let mut head = Vec::new();
        let k = word.len();
        for (j, &label) in word.iter().enumerate() {
            let from = if j == 0 { 0 } else { 1 + j as u32 };
            let to = if j + 1 == k { 1 } else { 2 + j as u32 };
            head.push(Atom::vars(target.edge_rels[label.index()], [from, to]));
        }
        st_tgds.push(Tgd {
            body: vec![Atom::vars(q_rels[i], [0, 1])],
            head,
        });
        // value transfer for both endpoints
        st_tgds.push(Tgd {
            body: vec![Atom::vars(q_rels[i], [0, 1]), Atom::vars(source_n, [0, 9])],
            head: vec![Atom::vars(t_n, [0, 9])],
        });
        st_tgds.push(Tgd {
            body: vec![Atom::vars(q_rels[i], [0, 1]), Atom::vars(source_n, [1, 9])],
            head: vec![Atom::vars(t_n, [1, 9])],
        });
    }

    // target tgds: every node of an edge has some value.
    let mut target_tgds = Vec::new();
    for &erel in &target.edge_rels {
        target_tgds.push(Tgd {
            body: vec![Atom::vars(erel, [0, 1])],
            head: vec![Atom::vars(t_n, [0, 2])],
        });
        target_tgds.push(Tgd {
            body: vec![Atom::vars(erel, [0, 1])],
            head: vec![Atom::vars(t_n, [1, 2])],
        });
    }

    // key egd: node ids determine values.
    let egds = vec![Egd {
        body: vec![Atom::vars(t_n, [0, 1]), Atom::vars(t_n, [0, 2])],
        equalities: vec![(1, 2)],
    }];

    Ok(RelationalMapping {
        source_schema,
        source_instance,
        target,
        st_tgds,
        target_tgds,
        egds,
    })
}

/// Chase `M_rel` to its canonical universal solution (st chase, then node
/// valuation, then the key egd).
pub fn chase_universal(rm: &RelationalMapping) -> Result<Instance, gde_relational::ChaseError> {
    let mut target = chase_st(&rm.source_instance, &rm.st_tgds, rm.target.schema.clone());
    chase_target(&mut target, &rm.target_tgds, 1000)?;
    gde_relational::chase::chase_egds(&mut target, &rm.egds)?;
    Ok(target)
}

/// Machine-check Proposition 1 on one scenario: the chased relational
/// solution, decoded as a graph with SQL-null values, is isomorphic (over a
/// fixed `dom(M, G_s)`) to the direct universal solution.
pub fn verify_prop1(m: &Gsm, gs: &DataGraph) -> Result<bool, TranslateError> {
    let rm = translate_to_relational(m, gs)?;
    let chased = chase_universal(&rm).map_err(|_| TranslateError::NotRelational)?;
    let decoded = decode_graph(
        &chased,
        m.target_alphabet(),
        ValueNullStyle::SqlNull,
        gs.fresh_id_watermark(),
    )
    .map_err(|_| TranslateError::NotRelational)?;
    let direct = match universal_solution(m, gs) {
        Ok(s) => s,
        Err(SolutionError::NotRelational) => return Err(TranslateError::NotRelational),
        Err(SolutionError::NoSolution { .. }) => return Err(TranslateError::EpsilonTargetWord),
        // the chased side needs fresh ids just as much: nothing to compare
        Err(e @ SolutionError::IdSpaceExhausted) => panic!("{e}"),
    };
    // same sizes + homs both ways fixing dom ⇒ isomorphic for these shapes
    if decoded.node_count() != direct.graph.node_count()
        || decoded.edge_count() != direct.graph.edge_count()
    {
        return Ok(false);
    }
    let fixed: Vec<_> = direct.dom_nodes().into_iter().map(|n| (n, n)).collect();
    let fwd = hom::find_hom(&direct.graph, &decoded, &fixed, HomMode::Exact);
    let bwd = hom::find_hom(&decoded, &direct.graph, &fixed, HomMode::Exact);
    // Exact-mode homs treat Null values as equal-to-Null only, which is what
    // we want: null nodes must map to null nodes.
    let _: Option<&FxHashMap<_, _>> = fwd.as_ref();
    Ok(fwd.is_some() && bwd.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_automata::parse_regex;
    use gde_datagraph::{Alphabet, NodeId, Value};

    fn scenario() -> (Gsm, DataGraph) {
        let mut sa = Alphabet::from_labels(["a", "b"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex("x y", &mut ta).unwrap(),
        );
        m.add_rule(
            parse_regex("b+", &mut sa).unwrap(),
            parse_regex("y", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(10)).unwrap();
        gs.add_node(NodeId(1), Value::int(20)).unwrap();
        gs.add_node(NodeId(2), Value::int(30)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        gs.add_edge_str(NodeId(1), "b", NodeId(2)).unwrap();
        gs.add_edge_str(NodeId(2), "b", NodeId(0)).unwrap();
        (m, gs)
    }

    #[test]
    fn translation_shape() {
        let (m, gs) = scenario();
        let rm = translate_to_relational(&m, &gs).unwrap();
        // 3 tgds per rule
        assert_eq!(rm.st_tgds.len(), 6);
        assert_eq!(rm.egds.len(), 1);
        // Q_0 holds the single a-edge; Q_1 holds b+ pairs (3 on the cycle? b
        // edges 1→2→0 so b+ pairs: (1,2),(2,0),(1,0))
        let q0 = rm.source_schema.lookup("Q_0").unwrap();
        let q1 = rm.source_schema.lookup("Q_1").unwrap();
        assert_eq!(rm.source_instance.fact_count(q0), 1);
        assert_eq!(rm.source_instance.fact_count(q1), 3);
    }

    #[test]
    fn chase_satisfies_all_dependencies() {
        let (m, gs) = scenario();
        let rm = translate_to_relational(&m, &gs).unwrap();
        let chased = chase_universal(&rm).unwrap();
        for tgd in &rm.st_tgds {
            assert!(tgd.is_satisfied(&rm.source_instance, &chased));
        }
        for tgd in &rm.target_tgds {
            assert!(tgd.is_satisfied(&chased, &chased));
        }
        for egd in &rm.egds {
            assert!(egd.is_satisfied(&chased));
        }
    }

    #[test]
    fn prop1_holds_on_scenarios() {
        let (m, gs) = scenario();
        assert!(verify_prop1(&m, &gs).unwrap());
    }

    #[test]
    fn prop1_on_gav_mapping() {
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(
            parse_regex("a a", &mut sa).unwrap(),
            parse_regex("x", &mut ta).unwrap(),
        );
        let mut gs = DataGraph::new();
        for i in 0..4 {
            gs.add_node(NodeId(i), Value::int(i as i64)).unwrap();
        }
        for i in 0..3 {
            gs.add_edge_str(NodeId(i), "a", NodeId(i + 1)).unwrap();
        }
        assert!(verify_prop1(&m, &gs).unwrap());
    }

    #[test]
    fn epsilon_word_rejected() {
        let mut sa = Alphabet::from_labels(["a"]);
        let ta = Alphabet::from_labels(["x"]);
        let mut m = Gsm::new(sa.clone(), ta);
        m.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            gde_automata::Regex::Epsilon,
        );
        let mut gs = DataGraph::new();
        gs.add_node(NodeId(0), Value::int(1)).unwrap();
        gs.add_edge_str(NodeId(0), "a", NodeId(0)).unwrap();
        assert_eq!(
            translate_to_relational(&m, &gs).err(),
            Some(TranslateError::EpsilonTargetWord)
        );
    }

    #[test]
    fn non_relational_rejected() {
        let (m, gs) = scenario();
        let mut m2 = m;
        let reach = gde_automata::Regex::reachability(m2.target_alphabet());
        m2.add_rule(
            gde_automata::Regex::Atom(m2.source_alphabet().label("a").unwrap()),
            reach,
        );
        assert_eq!(
            translate_to_relational(&m2, &gs).err(),
            Some(TranslateError::NotRelational)
        );
    }
}
