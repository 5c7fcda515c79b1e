//! Cross-crate integration tests: full exchange scenarios exercised through
//! every certain-answer engine, checked for mutual consistency.

use gde_automata::parse_regex;
use gde_core::certain::CertainAnswers;
use gde_core::{
    answer_once, certain_answers_arbitrary, certain_answers_exact, certain_boolean_exact,
    universal_solution, ArbitraryOptions, ExactOptions, Gsm, MappingService, Semantics,
};
use gde_datagraph::{Alphabet, DataGraph, NodeId, Value};
use gde_dataquery::{parse_ree, DataQuery};
use gde_workload::{random_scenario, GraphConfig, ScenarioConfig};

fn small_scenario(seed: u64) -> gde_workload::ExchangeScenario {
    random_scenario(&ScenarioConfig {
        graph: GraphConfig {
            nodes: 6,
            edges: 6,
            labels: vec!["a".into(), "b".into()],
            value_pool: 2,
            seed,
        },
        target_labels: vec!["x".into(), "y".into()],
        max_word_len: 2,
        seed: seed.wrapping_mul(31) + 7,
    })
}

#[test]
fn nulls_is_contained_in_exact_on_random_scenarios() {
    for seed in 0..15u64 {
        let sc = small_scenario(seed);
        let mut ta = sc.gsm.target_alphabet().clone();
        for qsrc in [
            "x",
            "x y",
            "(x y)=",
            "(x | y)+",
            "((x | y)+)=",
            "((x | y)*)=",
            "(x y)!=",
        ] {
            let q: DataQuery = parse_ree(qsrc, &mut ta).unwrap().into();
            let nulls = answer_once(&sc.gsm, &sc.source, &q.compile(), Semantics::nulls())
                .unwrap()
                .into_pairs();
            let exact = certain_answers_exact(&sc.gsm, &q, &sc.source, ExactOptions::default())
                .unwrap()
                .into_pairs();
            for p in &nulls {
                assert!(
                    exact.contains(p),
                    "2ⁿ ⊄ 2 for seed {seed}, query {qsrc}: {p:?}"
                );
            }
        }
    }
}

#[test]
fn least_informative_equals_exact_for_equality_only() {
    for seed in 0..15u64 {
        let sc = small_scenario(seed);
        let mut ta = sc.gsm.target_alphabet().clone();
        for qsrc in [
            "x",
            "x y",
            "(x y)=",
            "((x | y)+)=",
            "((x | y)*)=",
            "(x= y)=",
        ] {
            let q: DataQuery = parse_ree(qsrc, &mut ta).unwrap().into();
            let li = answer_once(
                &sc.gsm,
                &sc.source,
                &q.compile(),
                Semantics::least_informative(),
            )
            .unwrap()
            .into_pairs();
            let exact = certain_answers_exact(&sc.gsm, &q, &sc.source, ExactOptions::default())
                .unwrap()
                .into_pairs();
            assert_eq!(li, exact, "seed {seed}, query {qsrc}");
        }
    }
}

/// Boolean answers of tests over closures, served through a
/// `MappingService`, against the Exact enumeration: a
/// Nulls `true` is an Exact `true`, and LI equals Exact on equality-only
/// queries. The Nulls Boolean also equals the one-shot full evaluation's
/// non-emptiness on the universal solution, which shares no code with
/// the early-exit walk that both the served Boolean and Exact run.
#[test]
fn boolean_tests_over_closures_agree_with_exact() {
    // `((x y)+)=` and `(x | y)=` are false on the universal solution of
    // some of these seeds, so a walk that ignores a test, or mixes up `=`
    // and `≠`, shows as a Nulls Boolean that differs from the full one
    let sources = [
        "(x y)=",
        "((x | y)+)=",
        "((x | y)*)=",
        "(x+)= | y",
        "(x+)= y",
        "(x y)!=",
        "((x | y)+)!=",
        "((x y)+)=",
        "(x | y)=",
    ];
    let mut seen = [0usize; 2];
    for seed in 0..15u64 {
        let sc = small_scenario(seed);
        let mut ta = sc.gsm.target_alphabet().clone();
        let queries: Vec<DataQuery> = sources
            .iter()
            .map(|q| parse_ree(q, &mut ta).unwrap().into())
            .collect();
        let exact: Vec<bool> = queries
            .iter()
            .map(|q| {
                certain_boolean_exact(&sc.gsm, q, &sc.source, ExactOptions::default()).unwrap()
            })
            .collect();
        for &e in &exact {
            seen[usize::from(e)] += 1;
        }
        let universal = universal_solution(&sc.gsm, &sc.source).unwrap().graph;
        let full: Vec<bool> = queries
            .iter()
            .map(|q| q.holds_somewhere(&universal))
            .collect();
        let svc = MappingService::new();
        let id = svc.register(sc.gsm.clone(), sc.source.clone());
        for (((qsrc, q), &exact), &full) in sources.iter().zip(&queries).zip(&exact).zip(&full) {
            let cq = q.compile();
            let nulls = svc.answer(id, &cq, Semantics::nulls_boolean()).unwrap();
            assert_eq!(
                nulls.boolean(),
                full,
                "Nulls vs full evaluation: seed {seed}, query {qsrc}"
            );
            assert!(
                !nulls.boolean() || exact,
                "Nulls true but Exact false: seed {seed}, query {qsrc}"
            );
            if q.is_equality_only() {
                let li = svc
                    .answer(id, &cq, Semantics::least_informative_boolean())
                    .unwrap();
                assert_eq!(li.boolean(), exact, "seed {seed}, query {qsrc}");
            }
        }
    }
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "Exact answers both ways: {seen:?}"
    );
}

#[test]
fn arbitrary_engine_matches_exact_on_relational_mappings() {
    for seed in 0..8u64 {
        let sc = small_scenario(seed);
        let mut ta = sc.gsm.target_alphabet().clone();
        for qsrc in ["x y", "(x y)=", "(x y)!="] {
            let q: DataQuery = parse_ree(qsrc, &mut ta).unwrap().into();
            let arb = certain_answers_arbitrary(
                &sc.gsm,
                &q,
                &sc.source,
                ArbitraryOptions {
                    max_word_len: 2,
                    ..ArbitraryOptions::default()
                },
            )
            .unwrap();
            let exact =
                certain_answers_exact(&sc.gsm, &q, &sc.source, ExactOptions::default()).unwrap();
            assert_eq!(arb.answers, exact, "seed {seed}, query {qsrc}");
            assert!(arb.exact, "iteration-free query must be flagged exact");
        }
    }
}

#[test]
fn universal_solutions_solve_random_scenarios() {
    for seed in 20..40u64 {
        let sc = small_scenario(seed);
        let sol = universal_solution(&sc.gsm, &sc.source).unwrap();
        assert!(
            sc.gsm.is_solution(&sc.source, &sol.graph),
            "universal solution fails |= M at seed {seed}"
        );
    }
}

/// The motivating end-to-end story: a two-step exchange chain
/// source → staging → warehouse, answered at the warehouse.
#[test]
fn two_step_exchange_chain() {
    // source: orders with customer names
    let mut src = DataGraph::new();
    for (i, name) in [(0, "zoe"), (1, "amir"), (2, "zoe")] {
        src.add_node(NodeId(i), Value::str(name)).unwrap();
    }
    src.add_edge_str(NodeId(0), "ordered_with", NodeId(1))
        .unwrap();
    src.add_edge_str(NodeId(1), "ordered_with", NodeId(2))
        .unwrap();

    // step 1: source → staging
    let mut sa = src.alphabet().clone();
    let mut staging_a = Alphabet::from_labels(["rel"]);
    let mut m1 = Gsm::new(sa.clone(), staging_a.clone());
    m1.add_rule(
        parse_regex("ordered_with", &mut sa).unwrap(),
        parse_regex("rel", &mut staging_a).unwrap(),
    );
    let staged = universal_solution(&m1, &src).unwrap();

    // step 2: staging → warehouse (inventing audit hops)
    let mut wa = Alphabet::from_labels(["audit", "link"]);
    let mut m2 = Gsm::new(staging_a.clone(), wa.clone());
    m2.add_rule(
        parse_regex("rel", &mut staging_a.clone()).unwrap(),
        parse_regex("audit link", &mut wa).unwrap(),
    );

    // same-name customers two hops apart survive both exchanges
    let q: DataQuery = parse_ree("(audit link audit link)=", &mut wa)
        .unwrap()
        .into();
    let answers = answer_once(&m2, &staged.graph, &q.compile(), Semantics::nulls())
        .unwrap()
        .into_pairs();
    assert_eq!(answers, vec![(NodeId(0), NodeId(2))]);
}

#[test]
fn vacuous_mapping_cases() {
    // a mapping with an ε-rule over distinct endpoints has no solutions
    let mut sa = Alphabet::from_labels(["a"]);
    let ta = Alphabet::from_labels(["x"]);
    let mut m = Gsm::new(sa.clone(), ta.clone());
    m.add_rule(
        parse_regex("a", &mut sa).unwrap(),
        gde_automata::Regex::Epsilon,
    );
    let mut gs = DataGraph::new();
    gs.add_node(NodeId(0), Value::int(1)).unwrap();
    gs.add_node(NodeId(1), Value::int(2)).unwrap();
    gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
    let mut ta2 = ta.clone();
    let q: DataQuery = parse_ree("x", &mut ta2).unwrap().into();
    assert_eq!(
        answer_once(&m, &gs, &q.compile(), Semantics::nulls())
            .unwrap()
            .into_tuples(),
        CertainAnswers::AllVacuously
    );
    assert_eq!(
        certain_answers_exact(&m, &q, &gs, ExactOptions::default()).unwrap(),
        CertainAnswers::AllVacuously
    );
}
