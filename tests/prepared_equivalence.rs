//! Engine equivalence: the owned `MappingService` (register once, answer
//! many) and the one-shot `answer_once` (rebuild everything per call)
//! must answer identically, across the workload generators' scenarios,
//! every query class and every `Semantics`.
//!
//! This is the contract that makes the service's caching safe: its cached
//! solutions, snapshots, compiled queries and sub-relation caches must be
//! observationally identical to rebuilding everything per call.
//!
//! Both sides share the snapshot-based evaluation code, so the
//! service-vs-one-shot checks alone would not catch a bug in the snapshot
//! layer itself (both sides would be identically wrong). The
//! `snapshot_eval_matches_naive_oracle` test closes that hole: it
//! re-implements REE/RPQ evaluation directly over the graph's adjacency
//! iterators — the pre-snapshot evaluation strategy — and compares the
//! production path against it on random graphs and queries.

use gde_core::{answer_once, certain_answers_exact, ExactOptions, MappingService, Mode, Semantics};
use gde_datagraph::{DataGraph, Relation};
use gde_dataquery::{DataQuery, Ree};
use gde_workload::{
    random_data_graph, random_ree, random_rem, random_scenario, social_serving_scenario,
    GraphConfig, QueryConfig, ScenarioConfig, SocialConfig,
};

/// A mixed query batch over the target labels of a random scenario.
fn random_query_batch(seed: u64) -> Vec<DataQuery> {
    let mut out: Vec<DataQuery> = Vec::new();
    for (i, allow_inequality) in [(0u64, false), (1, false), (2, true), (3, true)] {
        let cfg = QueryConfig {
            seed: seed.wrapping_mul(31).wrapping_add(i),
            allow_inequality,
            depth: 2,
            ..QueryConfig::default()
        };
        out.push(random_ree(&cfg).into());
        out.push(random_rem(&cfg).into());
    }
    out
}

/// The canonical-solution semantics, tuple and Boolean.
const CANONICAL: [Semantics; 4] = [
    Semantics::Nulls(Mode::Tuples),
    Semantics::Nulls(Mode::Boolean),
    Semantics::LeastInformative(Mode::Tuples),
    Semantics::LeastInformative(Mode::Boolean),
];

#[test]
fn service_matches_answer_once_on_random_scenarios() {
    for seed in 0..12u64 {
        let sc = random_scenario(&ScenarioConfig {
            graph: GraphConfig {
                nodes: 10,
                edges: 18,
                value_pool: 3,
                seed,
                ..GraphConfig::default()
            },
            max_word_len: 3,
            seed: seed ^ 0xA11CE,
            ..ScenarioConfig::default()
        });
        let svc = MappingService::new();
        let id = svc.register(sc.gsm.clone(), sc.source.clone());
        for (qi, q) in random_query_batch(seed).into_iter().enumerate() {
            let compiled = q.compile();
            // errors included: an out-of-fragment rejection must match too
            for sem in CANONICAL {
                assert_eq!(
                    svc.answer(id, &compiled, sem),
                    answer_once(&sc.gsm, &sc.source, &compiled, sem),
                    "{sem:?} mismatch: seed {seed} query {qi} {q:?}"
                );
            }
            // serving dispatch agrees with whichever engine it routes to
            let preferred = Semantics::preferred_for(&compiled);
            let routed_to = if q.is_equality_only() {
                Semantics::least_informative()
            } else {
                Semantics::nulls()
            };
            assert_eq!(
                svc.answer(id, &compiled, preferred),
                answer_once(&sc.gsm, &sc.source, &compiled, routed_to),
                "dispatch: seed {seed} query {qi}"
            );
        }
    }
}

/// Every `Semantics` variant, the bounded exact enumeration included, on
/// small random scenarios: the service and the one-shot path agree, and
/// so does the exact one-shot free function.
#[test]
fn service_matches_answer_once_on_every_semantics() {
    for seed in 0..5u64 {
        let sc = random_scenario(&ScenarioConfig {
            graph: GraphConfig {
                nodes: 7,
                edges: 9,
                value_pool: 3,
                seed,
                ..GraphConfig::default()
            },
            max_word_len: 2,
            seed: seed ^ 0x5EC7,
            ..ScenarioConfig::default()
        });
        let svc = MappingService::new();
        let id = svc.register(sc.gsm.clone(), sc.source.clone());
        for (qi, q) in random_query_batch(seed).into_iter().enumerate() {
            let c = q.compile();
            let ctx = format!("seed {seed} query {qi}");
            for sem in CANONICAL {
                assert_eq!(
                    svc.answer(id, &c, sem),
                    answer_once(&sc.gsm, &sc.source, &c, sem),
                    "{sem:?} {ctx}"
                );
            }
            // bounded exact comparisons on a query subset (the enumeration
            // is exponential; both sides must agree on TooComplex too)
            if qi >= 3 {
                continue;
            }
            let opts = ExactOptions {
                max_invented: 10,
                max_patterns: 5_000,
            };
            for mode in [Mode::Tuples, Mode::Boolean] {
                let sem = Semantics::Exact(mode, opts);
                assert_eq!(
                    svc.answer(id, &c, sem),
                    answer_once(&sc.gsm, &sc.source, &c, sem),
                    "{sem:?} {ctx}"
                );
            }
            // the one-shot exact free function agrees too
            assert_eq!(
                svc.answer(id, &c, Semantics::Exact(Mode::Tuples, opts))
                    .map(|a| a.into_tuples())
                    .map_err(|e| e.to_string()),
                certain_answers_exact(&sc.gsm, &q, &sc.source, opts).map_err(|e| e.to_string()),
                "Exact one-shot {ctx}"
            );
        }
    }
}

#[test]
fn service_matches_answer_once_on_social_serving_scenario() {
    let sv = social_serving_scenario(&SocialConfig {
        persons: 25,
        knows_per_person: 3,
        posts: 15,
        cities: 3,
        seed: 0xBEE,
    });
    let gsm = &sv.scenario.gsm;
    let source = &sv.scenario.source;
    let svc = MappingService::new();
    let id = svc.register(gsm.clone(), source.clone());
    let mut nonempty = 0;
    for (name, q) in &sv.queries {
        let compiled = q.compile();
        let once = answer_once(gsm, source, &compiled, Semantics::nulls()).unwrap();
        let served = svc.answer(id, &compiled, Semantics::nulls()).unwrap();
        assert_eq!(once, served, "2ⁿ mismatch on {name}");
        if !once.clone().into_pairs().is_empty() {
            nonempty += 1;
        }
        if q.is_equality_only() {
            let sem = Semantics::least_informative();
            assert_eq!(
                answer_once(gsm, source, &compiled, sem).unwrap(),
                svc.answer(id, &compiled, sem).unwrap(),
                "2 mismatch on {name}"
            );
        }
    }
    assert!(
        nonempty >= 3,
        "serving workload should produce non-trivial answers, got {nonempty}"
    );
}

/// Independent REE oracle: the relation-algebra semantics evaluated
/// directly over [`DataGraph`]'s adjacency iterators and `Value`
/// comparisons — no `GraphSnapshot`, no interned vids, no cached label
/// relations. This mirrors the pre-snapshot evaluation strategy.
fn naive_ree_eval(e: &Ree, g: &DataGraph) -> Relation {
    let n = g.n();
    match e {
        Ree::Epsilon => Relation::identity(n),
        Ree::Atom(l) => {
            let mut r = Relation::empty(n);
            for u in g.node_ids() {
                for (el, v) in g.out_edges(u) {
                    if el == *l {
                        r.insert(g.idx(u).unwrap() as usize, g.idx(v).unwrap() as usize);
                    }
                }
            }
            r
        }
        Ree::Concat(es) => {
            let mut acc = Relation::identity(n);
            for e in es {
                acc = acc.compose(&naive_ree_eval(e, g));
            }
            acc
        }
        Ree::Union(es) => {
            let mut acc = Relation::empty(n);
            for e in es {
                acc.union_with(&naive_ree_eval(e, g));
            }
            acc
        }
        Ree::Plus(e) => naive_ree_eval(e, g).transitive_closure(),
        Ree::Star(e) => naive_ree_eval(e, g).reflexive_transitive_closure(),
        Ree::Eq(e) => {
            naive_ree_eval(e, g).filter(|i, j| g.value_at(i as u32).sql_eq(g.value_at(j as u32)))
        }
        Ree::Neq(e) => {
            naive_ree_eval(e, g).filter(|i, j| g.value_at(i as u32).sql_ne(g.value_at(j as u32)))
        }
    }
}

#[test]
fn snapshot_eval_matches_naive_oracle() {
    for seed in 0..30u64 {
        let g = random_data_graph(&GraphConfig {
            nodes: 9,
            edges: 16,
            value_pool: 3,
            seed,
            ..GraphConfig::default()
        });
        let snap = g.snapshot();
        for (qi, allow_inequality) in [(0u64, false), (1, true), (2, true)] {
            let e = random_ree(&QueryConfig {
                seed: seed.wrapping_mul(101).wrapping_add(qi),
                allow_inequality,
                depth: 3,
                ..QueryConfig::default()
            });
            let expected = naive_ree_eval(&e, &g);
            // production paths: direct, snapshot-shared, and compiled
            assert_eq!(e.eval(&g), expected, "Ree::eval seed {seed} q{qi} {e:?}");
            assert_eq!(
                e.eval_snapshot(&snap),
                expected,
                "Ree::eval_snapshot seed {seed} q{qi}"
            );
            let q: DataQuery = e.clone().into();
            let mut expected_pairs: Vec<_> = expected
                .iter()
                .map(|(i, j)| (g.id_at(i as u32), g.id_at(j as u32)))
                .collect();
            expected_pairs.sort();
            assert_eq!(
                q.compile().eval_pairs(&snap),
                expected_pairs,
                "CompiledQuery seed {seed} q{qi}"
            );
        }
    }
}

#[test]
fn repeated_serving_is_stable() {
    // answering the same compiled query many times must be idempotent
    let sv = social_serving_scenario(&SocialConfig {
        persons: 15,
        knows_per_person: 2,
        posts: 10,
        cities: 2,
        seed: 7,
    });
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    for (name, q) in &sv.queries {
        let compiled = q.compile();
        let first = svc.answer(id, &compiled, Semantics::nulls()).unwrap();
        for _ in 0..3 {
            assert_eq!(
                svc.answer(id, &compiled, Semantics::nulls()).unwrap(),
                first,
                "unstable answers for {name}"
            );
        }
    }
}
