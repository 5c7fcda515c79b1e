//! Served tuple answers checked against an oracle that knows nothing of
//! the prepared solution's row layout, and sources at the top of the node
//! id space.
//!
//! The serving engine reads a tuple answer off the layout the canonical
//! build leaves in every snapshot: rows `0..|dom|` are `dom(M, G_s)` in id
//! order and every later row is invented. A tuple answer keeps the rows
//! below `|dom|` and each row's columns up to its first invented one, in
//! row order, so it comes out sorted. The oracle evaluates the
//! query on the whole solution graph, drops every pair with an endpoint
//! in a hash set of the invented nodes, and sorts.
//!
//! Sources relabel their nodes to shuffled, sparse ids and insert them
//! out of id order, so insertion order, dense order and id order all
//! differ. The proptest shim does not shrink: every case is a pure
//! function of its seed, and a failure prints the seed, from which
//! `case(seed)` rebuilds the mapping, the source and the queries.

use gde_automata::parse_regex;
use gde_core::exact::ExactError;
use gde_core::integration::Integration;
use gde_core::{
    answer_once, certain_answers_exact, certain_boolean_exact, Answer, CertainAnswers,
    ExactOptions, Gsm, MappingService, Semantics, ServeError, SolveError,
};
use gde_datagraph::{Alphabet, DataGraph, FxHashSet, NodeId, Value};
use gde_dataquery::{CompiledQuery, DataQuery};
use gde_workload::{random_data_graph, random_ree, random_rem, GraphConfig, QueryConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SOURCE_QUERIES: [&str; 6] = ["a", "b", "a b", "a+", "a | b", "b a*"];
const TARGET_LABELS: [&str; 3] = ["x", "y", "z"];

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// One random relational mapping, a source over sparse ids inserted in
/// shuffled order, and equality-only queries over the target labels.
fn case(seed: u64) -> (Gsm, DataGraph, Vec<CompiledQuery>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1..24usize);
    let dense = random_data_graph(&GraphConfig {
        nodes: n,
        edges: rng.gen_range(0..3 * n),
        labels: vec!["a".into(), "b".into()],
        value_pool: 4,
        seed,
    });
    let mut ids: Vec<u32> = (0..8 * n as u32).collect();
    shuffle(&mut ids, &mut rng);
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, &mut rng);
    let relabel = |v: NodeId| NodeId(ids[v.0 as usize]);
    let mut source = DataGraph::with_alphabet(dense.alphabet().clone());
    for i in order {
        let v = NodeId(i as u32);
        let value = dense.value(v).expect("generated node").clone();
        source.add_node(relabel(v), value).expect("distinct ids");
    }
    for (u, l, v) in dense.edges() {
        source
            .add_edge(relabel(u), l, relabel(v))
            .expect("nodes exist");
    }

    let mut sa = dense.alphabet().clone();
    let mut ta = Alphabet::from_labels(TARGET_LABELS);
    let mut gsm = Gsm::new(sa.clone(), ta.clone());
    for _ in 0..rng.gen_range(1..4usize) {
        let from = SOURCE_QUERIES[rng.gen_range(0..SOURCE_QUERIES.len())];
        let word: Vec<&str> = (0..rng.gen_range(1..4usize))
            .map(|_| TARGET_LABELS[rng.gen_range(0..TARGET_LABELS.len())])
            .collect();
        gsm.add_rule(
            parse_regex(from, &mut sa).expect("source query parses"),
            parse_regex(&word.join(" "), &mut ta).expect("target word parses"),
        );
    }

    let mut queries: Vec<DataQuery> = ["x", "y", "z", "x y", "(x | y)+"]
        .iter()
        .map(|src| DataQuery::Rpq(parse_regex(src, &mut ta).expect("query parses")))
        .collect();
    let cfg = |seed| QueryConfig {
        labels: ta.labels().collect(),
        allow_inequality: false,
        seed,
        ..QueryConfig::default()
    };
    for s in 0..3 {
        queries.push(random_ree(&cfg(seed ^ s)).into());
        queries.push(random_rem(&cfg(seed ^ s)).into());
    }
    (
        gsm,
        source,
        queries.iter().map(DataQuery::compile).collect(),
    )
}

/// Serve every query of `case(seed)` under both tractable semantics,
/// cold and then from the cache, and compare each tuple answer with the
/// oracle on the solution that served it.
fn check(seed: u64) {
    let (gsm, source, queries) = case(seed);
    let svc = MappingService::new();
    let id = svc.register(gsm, source);
    for sem in [Semantics::nulls(), Semantics::least_informative()] {
        for pass in ["cold", "warm"] {
            let served: Vec<_> = svc
                .answer_batch(id, &queries, sem)
                .into_iter()
                .map(|a| a.map(|a| a.into_pairs()))
                .collect();
            let prep = svc.solution(id, sem).expect("relational, no ε-rule");
            let sol = prep.solution();
            let invented: FxHashSet<NodeId> = sol.invented.iter().copied().collect();
            let snap = sol.graph.snapshot();
            let oracle: Vec<Result<_, ServeError>> = queries
                .iter()
                .map(|q| {
                    let mut pairs: Vec<_> = q
                        .eval_pairs(&snap)
                        .into_iter()
                        .filter(|(u, v)| !invented.contains(u) && !invented.contains(v))
                        .collect();
                    pairs.sort();
                    pairs.dedup();
                    Ok(pairs)
                })
                .collect();
            assert_eq!(served, oracle, "seed {seed}: {pass} {sem:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn served_tuples_equal_the_dom_restricted_evaluation(seed in 0u64..u64::MAX) {
        check(seed);
    }
}

const TOP: u32 = u32::MAX;

/// Source node ids in insertion order, the source's `a`-edges, the rule
/// `a → word`'s target word, and the served answer to that word as an
/// RPQ (`None`: the ids run out).
type TopCase = (
    &'static [u32],
    &'static [(u32, u32)],
    &'static str,
    Option<&'static [(u32, u32)]>,
);

/// Invented ids rise from the source's id watermark. Every serve of a
/// source whose ids leave too little room above it returns a typed error
/// (never a panic, so nothing is quarantined or retried), and one that
/// fits answers correctly. The one-shot exact and integration APIs return
/// their own typed errors too. Debug and release builds behave alike.
#[test]
fn sources_at_the_top_of_the_id_space_serve_typed_errors_or_answers() {
    let mut integration_errors = 0;
    let cases: [TopCase; 5] = [
        // one invented node takes the last id
        (&[TOP - 1, 0], &[(0, TOP - 1)], "x y", Some(&[(0, TOP - 1)])),
        // the second invented node has no id left
        (&[0, 1, TOP - 1], &[(0, 1), (1, TOP - 1)], "x x x", None),
        // a source holding the last id leaves none to invent with
        (&[0, TOP], &[(0, TOP)], "x y", None),
        (&[TOP, 0, 5], &[(5, 0)], "x y", None),
        // ... but a rule that invents nothing needs none
        (
            &[TOP, 0],
            &[(TOP, 0), (0, TOP)],
            "x",
            Some(&[(0, TOP), (TOP, 0)]),
        ),
    ];
    for (nodes, edges, word, expected) in cases {
        let mut sa = Alphabet::from_labels(["a"]);
        let mut ta = Alphabet::from_labels(["x", "y"]);
        let mut gsm = Gsm::new(sa.clone(), ta.clone());
        gsm.add_rule(
            parse_regex("a", &mut sa).unwrap(),
            parse_regex(word, &mut ta).unwrap(),
        );
        let mut source = DataGraph::new();
        for &v in nodes {
            source.add_node(NodeId(v), Value::int(1)).unwrap();
        }
        for &(u, v) in edges {
            source.add_edge_str(NodeId(u), "a", NodeId(v)).unwrap();
        }
        let view = parse_regex(word, &mut ta).unwrap();
        let query = DataQuery::Rpq(view.clone());
        let q = query.compile();
        let expected: Result<Vec<_>, _> = match expected {
            Some(pairs) => Ok(pairs.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect()),
            None => Err(ServeError::IdSpaceExhausted),
        };
        // an RPQ is preserved under homomorphisms: its exact certain
        // answers are the served ones
        let opts = ExactOptions::default();
        let exact = expected.clone().map(|p| CertainAnswers::Pairs(p.into()));
        assert_eq!(
            certain_answers_exact(&gsm, &query, &source, opts),
            exact.clone().map_err(|_| ExactError::IdSpaceExhausted),
            "{nodes:?} {word}"
        );
        assert_eq!(
            certain_boolean_exact(&gsm, &query, &source, opts),
            exact
                .map(|a| a != CertainAnswers::Pairs(Vec::new().into()))
                .map_err(|_| ExactError::IdSpaceExhausted),
            "{nodes:?} {word}"
        );
        // an integration holds only the nodes its source tuples name, so
        // its reference is a serve of its own mapping and sources
        let mut task = Integration::new(ta.clone());
        let tuples: Vec<_> = edges
            .iter()
            .map(|&(u, v)| ((NodeId(u), Value::int(1)), (NodeId(v), Value::int(1))))
            .collect();
        task.add_source("a", view, &tuples).unwrap();
        let reference = answer_once(task.gsm(), task.sources(), &q, Semantics::nulls())
            .map(Answer::into_tuples)
            .map_err(|e| match e {
                ServeError::IdSpaceExhausted => SolveError::IdSpaceExhausted,
                other => panic!("{nodes:?} {word}: {other}"),
            });
        integration_errors += usize::from(reference.is_err());
        assert_eq!(task.certain_answers(&query), reference, "{nodes:?} {word}");
        let svc = MappingService::new();
        let id = svc.register(gsm, source);
        for sem in [Semantics::nulls(), Semantics::least_informative()] {
            for _ in 0..2 {
                let served = svc.answer(id, &q, sem).map(|a| a.into_pairs());
                assert_eq!(served, expected, "{nodes:?} {word} {sem:?}");
            }
        }
        let stats = svc.serving_stats(id).unwrap();
        assert_eq!(
            (stats.worker_panics, stats.retries),
            (0, 0),
            "{nodes:?} {word}"
        );
    }
    assert_eq!(integration_errors, 2, "two integrations run out of ids");
}
