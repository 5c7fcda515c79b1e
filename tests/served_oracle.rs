//! Ground truth for the served stack: seeded small exchange cases driven
//! through one `MappingService` each, with every tuple and Boolean answer
//! checked against the Exact enumeration (`certain_answers_exact`,
//! `certain_boolean_exact`) computed from scratch on the current source.
//!
//! A case is a random LAV mapping (`gde_workload::random_scenario`), a
//! random source graph, random REE and REM queries, and a seeded delta
//! sequence. One service serves it through every entry point in turn:
//!
//! * ad-hoc `answer`, which routes each query onto its canonical template;
//! * `answer_bound` on the query's template;
//! * `answer_batch` of every query;
//! * the same three after each delta of the sequence;
//! * the same three after `register_queries` prunes the rules the
//!   registered queries cannot see (the last query is left out, so its
//!   serve re-expands the workload).
//!
//! The checks are the paper's: a Nulls answer is contained in the Exact
//! one (Theorem 4; a Nulls `true` is an Exact `true`), and a
//! LeastInformative answer equals the Exact one on equality-only queries
//! (Theorem 5). A case whose instance exceeds [`OPTS`] is counted and
//! skipped; at least three quarters of the cases must be checked. Every
//! assertion names the case seed, which replays the case on its own.

use gde_core::certain::CertainAnswers;
use gde_core::exact::ExactError;
use gde_core::{
    certain_answers_exact, certain_boolean_exact, Answer, ExactOptions, Gsm, MappingId,
    MappingService, Mode, Semantics, ServeError,
};
use gde_datagraph::{DataGraph, GraphDelta, Label, NodeId, Value};
use gde_dataquery::{canonicalize, CompiledQuery, DataQuery};
use gde_workload::{random_ree, random_rem, random_scenario, GraphConfig, QueryConfig};
use gde_workload::{ExchangeScenario, ScenarioConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeded cases, one service each.
const CASES: u64 = 24;

/// The Exact enumeration's bounds: small enough that the oracle stays
/// fast in a debug build; a case beyond them is skipped, not failed.
const OPTS: ExactOptions = ExactOptions {
    max_invented: 8,
    max_patterns: 10_000,
};

/// Delta steps per case.
const STEPS: u64 = 2;

/// The canonical-solution semantics, tuple and Boolean.
const SEMANTICS: [Semantics; 4] = [
    Semantics::Nulls(Mode::Tuples),
    Semantics::Nulls(Mode::Boolean),
    Semantics::LeastInformative(Mode::Tuples),
    Semantics::LeastInformative(Mode::Boolean),
];

/// A mapping onto target labels `x`, `y`, `z` from a 5–7-node source over
/// `a`, `b` with two data values, so equality tests both hold and fail.
fn scenario(seed: u64) -> ExchangeScenario {
    let size = 5 + (seed % 3) as usize;
    random_scenario(&ScenarioConfig {
        graph: GraphConfig {
            nodes: size,
            edges: size,
            labels: vec!["a".into(), "b".into()],
            value_pool: 2,
            seed,
        },
        target_labels: vec!["x".into(), "y".into(), "z".into()],
        max_word_len: 2,
        seed: seed.wrapping_mul(0x9E37).wrapping_add(1),
    })
}

/// Two REEs and two REMs, half of them equality-only. Every query but the
/// last reads only `x` and `y`, so registering them prunes the rules that
/// produce `z` alone; the last one reads `z` too.
fn queries(seed: u64) -> Vec<DataQuery> {
    let (x, y, z) = (Label(0), Label(1), Label(2));
    (0..4u64)
        .map(|i| {
            let cfg = QueryConfig {
                labels: if i == 3 { vec![x, y, z] } else { vec![x, y] },
                depth: 2,
                test_prob: 0.5,
                allow_inequality: i % 2 == 1,
                seed: seed.wrapping_mul(131).wrapping_add(i),
            };
            if i < 2 {
                random_ree(&cfg).into()
            } else {
                random_rem(&cfg).into()
            }
        })
        .collect()
}

/// A seeded delta: remove one existing edge and add a fresh node with
/// one edge to or from an existing node, so the instance keeps its size.
fn delta(source: &DataGraph, seed: u64, step: u64) -> GraphDelta {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xD1B5).wrapping_add(step));
    let mut d = GraphDelta::new();
    let edges: Vec<_> = source.edges().collect();
    if !edges.is_empty() {
        let (u, l, v) = edges[rng.gen_range(0..edges.len())];
        d = d.without_edge(u, source.alphabet().name(l), v);
    }
    let nodes: Vec<NodeId> = source.node_ids().collect();
    let old = nodes[rng.gen_range(0..nodes.len())];
    let fresh = NodeId(1000 + step as u32);
    let (u, v) = if rng.gen_bool(0.5) {
        (old, fresh)
    } else {
        (fresh, old)
    };
    let label = ["a", "b"][rng.gen_range(0..2usize)];
    d.with_node(fresh, Value::int(rng.gen_range(0..2)))
        .with_edge(u, label, v)
}

/// The Exact answers of one query on one source.
struct Truth {
    tuples: CertainAnswers,
    holds: bool,
}

/// An Exact result, or `None` when the instance exceeds [`OPTS`].
fn bounded<T>(seed: u64, r: Result<T, ExactError>) -> Option<T> {
    match r {
        Ok(t) => Some(t),
        Err(ExactError::TooComplex { .. }) => None,
        Err(e) => panic!("seed {seed}: Exact failed: {e:?}"),
    }
}

/// Exact answers for every query, or `None` when the instance exceeds
/// [`OPTS`].
fn truth(seed: u64, gsm: &Gsm, source: &DataGraph, qs: &[DataQuery]) -> Option<Vec<Truth>> {
    qs.iter()
        .map(|q| {
            Some(Truth {
                tuples: bounded(seed, certain_answers_exact(gsm, q, source, OPTS))?,
                holds: bounded(seed, certain_boolean_exact(gsm, q, source, OPTS))?,
            })
        })
        .collect()
}

/// Check one served answer against the truth.
fn check(seed: u64, at: &str, q: &DataQuery, sem: Semantics, got: &Answer, want: &Truth) {
    let ctx = || format!("seed {seed}, {at}, {sem:?}, query {q:?}");
    match (sem, got) {
        (Semantics::Nulls(_), Answer::Tuples(CertainAnswers::Pairs(pairs))) => {
            for &(u, v) in pairs.iter() {
                assert!(
                    want.tuples.contains(u, v),
                    "Nulls pair ({u}, {v}) is not an Exact answer: {}",
                    ctx()
                );
            }
        }
        (Semantics::Nulls(_), Answer::Boolean(holds)) => {
            assert!(!holds || want.holds, "Nulls true, Exact false: {}", ctx());
        }
        (Semantics::LeastInformative(_), Answer::Tuples(tuples)) => {
            assert_eq!(tuples, &want.tuples, "LeastInformative vs Exact: {}", ctx());
        }
        (Semantics::LeastInformative(_), Answer::Boolean(holds)) => {
            assert_eq!(*holds, want.holds, "LeastInformative vs Exact: {}", ctx());
        }
        _ => panic!("unexpected answer {got:?}: {}", ctx()),
    }
}

/// Serve every query through ad-hoc `answer`, `answer_bound` and
/// `answer_batch` under every canonical semantics, and check each answer.
/// LeastInformative serves only the equality-only queries and refuses
/// the rest.
fn serve_all(
    seed: u64,
    at: &str,
    svc: &MappingService,
    id: MappingId,
    qs: &[DataQuery],
    truth: &[Truth],
) {
    let compiled: Vec<CompiledQuery> = qs.iter().map(DataQuery::compile).collect();
    for sem in SEMANTICS {
        let verify = |how: &str, qi: usize, got: Result<Answer, ServeError>| {
            let at = format!("{at}, {how}");
            let got = got.unwrap_or_else(|e| panic!("seed {seed}, {at}, {sem:?}: {e}"));
            check(seed, &at, &qs[qi], sem, &got, &truth[qi]);
        };
        let li = matches!(sem, Semantics::LeastInformative(_));
        let served: Vec<usize> = (0..qs.len())
            .filter(|&qi| !li || qs[qi].is_equality_only())
            .collect();
        for (qi, q) in qs.iter().enumerate() {
            let got = svc.answer(id, &compiled[qi], sem);
            if !served.contains(&qi) {
                assert!(
                    matches!(got, Err(ServeError::UnsupportedQuery(_))),
                    "seed {seed}, {at}: an inequality reached {sem:?}: {got:?}"
                );
                continue;
            }
            verify("answer", qi, got);
            let (skeleton, bindings) = canonicalize(q);
            let tid = svc.register_template(id, &skeleton).unwrap();
            verify(
                "answer_bound",
                qi,
                svc.answer_bound(id, tid, bindings.labels(), sem),
            );
        }
        let batch: Vec<CompiledQuery> = served.iter().map(|&qi| compiled[qi].clone()).collect();
        for (&qi, got) in served.iter().zip(svc.answer_batch(id, &batch, sem)) {
            verify("batch", qi, got);
        }
    }
}

/// Run one case: the number of rules pruning dropped, or `None` when the
/// case was skipped because some state of it exceeds the Exact bounds.
fn run_case(seed: u64) -> Option<usize> {
    let sc = scenario(seed);
    let qs = queries(seed);
    // the oracle's own sources, built by applying each delta to a copy
    let mut sources = vec![sc.source.clone()];
    let mut deltas = Vec::new();
    for step in 0..STEPS {
        let mut next = sources[sources.len() - 1].clone();
        let d = delta(&next, seed, step);
        next.apply_delta(&d)
            .unwrap_or_else(|e| panic!("seed {seed}: delta {step}: {e}"));
        deltas.push(d);
        sources.push(next);
    }
    let truths = sources
        .iter()
        .map(|s| truth(seed, &sc.gsm, s, &qs))
        .collect::<Option<Vec<_>>>()?;
    let svc = MappingService::new();
    let id = svc.register(sc.gsm.clone(), sc.source.clone());
    serve_all(seed, "initial", &svc, id, &qs, &truths[0]);
    for (step, d) in deltas.iter().enumerate() {
        svc.apply_delta(id, d).unwrap();
        let at = format!("after delta {step}");
        serve_all(seed, &at, &svc, id, &qs, &truths[step + 1]);
    }
    // the covered queries serve from the pruned rules; the last one reads
    // `z`, so its first serve re-expands them
    let (covered, last) = (qs.len() - 1, &truths[truths.len() - 1]);
    let registered: Vec<CompiledQuery> = qs[..covered].iter().map(DataQuery::compile).collect();
    svc.register_queries(id, &registered).unwrap();
    let pruned = sc.gsm.rules().len() - svc.serve_gsm(id).unwrap().rules().len();
    serve_all(seed, "pruned", &svc, id, &qs[..covered], &last[..covered]);
    serve_all(seed, "re-expanded", &svc, id, &qs, last);
    Some(pruned)
}

#[test]
fn served_answers_agree_with_the_exact_enumeration() {
    let pruned: Vec<usize> = (0..CASES).filter_map(run_case).collect();
    let checked = pruned.len() as u64;
    assert!(
        4 * checked >= 3 * CASES,
        "only {checked} of {CASES} cases fit the Exact bounds"
    );
    assert!(
        pruned.iter().any(|&p| p > 0),
        "no checked case pruned a rule: {pruned:?}"
    );
}
