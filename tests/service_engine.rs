//! `MappingService` lifecycle tests: LRU eviction and the byte ledger
//! under a budget, concurrent serving from scoped threads, the ignored
//! stripe-count surface, and deltas (generation stamps; every delta shape
//! checked against a one-shot serve of the mutated source and the exact
//! engine).

use gde_automata::{parse_regex, Regex};
use gde_core::certain::CertainAnswers;
use gde_core::engine::ShardSpec;
use gde_core::{
    answer_once, certain_answers_exact, Answer, ExactOptions, Gsm, MappingId, MappingService,
    Semantics, ServeError,
};
use gde_datagraph::{Alphabet, DataGraph, GraphDelta, Label, NodeId, Value};
use gde_dataquery::{parse_ree, CompiledQuery, DataQuery};
use gde_workload::{
    random_scenario, sharded_serving_scenario, social_serving_scenario, GraphConfig,
    ScenarioConfig, ServingScenario, SocialConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};

fn scenario(seed: u64) -> ServingScenario {
    social_serving_scenario(&SocialConfig {
        persons: 20,
        knows_per_person: 3,
        posts: 12,
        cities: 3,
        seed,
    })
}

fn compiled_batch(sv: &ServingScenario) -> Vec<CompiledQuery> {
    sv.queries.iter().map(|(_, q)| q.compile()).collect()
}

/// Answer every query under both canonical semantics and collect the
/// results — the fingerprint used to compare service states.
fn fingerprint(svc: &MappingService, id: MappingId, qs: &[CompiledQuery]) -> Vec<Answer> {
    let mut out = Vec::new();
    for q in qs {
        out.push(svc.answer(id, q, Semantics::nulls()).unwrap());
        out.push(svc.answer(id, q, Semantics::nulls_boolean()).unwrap());
        if q.is_equality_only() {
            out.push(svc.answer(id, q, Semantics::least_informative()).unwrap());
        }
    }
    out
}

#[test]
fn lru_evicts_least_recently_served_under_byte_budget() {
    let svc = MappingService::new();
    let svs: Vec<ServingScenario> = (0..3).map(|i| scenario(0xE0 + i)).collect();
    let ids: Vec<MappingId> = svs
        .iter()
        .map(|sv| svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone()))
        .collect();
    let q = svs[0].queries[0].1.compile();
    // measure what one serving solution occupies, then budget for about
    // two of them: the ledger charges the solution, its snapshot and every
    // cache entry as the serve inserts it, so one serve's bytes are exact
    svc.answer(ids[0], &q, Semantics::nulls()).unwrap();
    let one = svc.cached_bytes();
    assert!(one > 0);
    svc.set_cache_budget(one * 5 / 2);
    svc.answer(ids[1], &q, Semantics::nulls()).unwrap();
    assert_eq!(svc.stats().cached_solutions, 2, "two fit the budget");
    // third build must evict the least-recently-served: mapping 0
    svc.answer(ids[2], &q, Semantics::nulls()).unwrap();
    assert!(!svc.is_cached(ids[0], Semantics::nulls()), "LRU evicted");
    assert!(svc.is_cached(ids[1], Semantics::nulls()));
    assert!(svc.is_cached(ids[2], Semantics::nulls()));
    assert!(svc.stats().evictions >= 1);
    assert!(svc.cached_bytes() <= one * 5 / 2);
    // touch order decides the next victim: serve 1, then rebuild 0 ⇒ 2 goes
    svc.answer(ids[1], &q, Semantics::nulls()).unwrap();
    svc.answer(ids[0], &q, Semantics::nulls()).unwrap();
    assert!(svc.is_cached(ids[1], Semantics::nulls()));
    assert!(svc.is_cached(ids[0], Semantics::nulls()));
    assert!(!svc.is_cached(ids[2], Semantics::nulls()));
    // eviction is invisible in the answers
    let before = fingerprint(&svc, ids[2], &compiled_batch(&svs[2]));
    svc.set_cache_budget(0);
    assert_eq!(before, fingerprint(&svc, ids[2], &compiled_batch(&svs[2])));
}

/// The closure-heavy `sharded_serving_scenario` workload every ledger
/// test below serves, with its tuple batch and what one mapping of it
/// weighs on an unbudgeted twin.
struct Heavy {
    sv: ServingScenario,
    batch: Vec<CompiledQuery>,
    /// The batch's answers on the twin.
    answers: Vec<Answer>,
    /// Solution and snapshot bytes, charged when the build finishes.
    base: usize,
    /// The snapshot's bytes right after the build.
    snapshot: usize,
    /// Everything charged once the batch has filled the cache.
    full: usize,
}

/// The workload at 8,192 nodes: one batch fills its sub-relation cache
/// with about seven times the solution's and snapshot's bytes, so one
/// mapping's full footprint is far above the budgets the tests set.
fn heavy() -> &'static Heavy {
    static HEAVY: OnceLock<Heavy> = OnceLock::new();
    HEAVY.get_or_init(measure_heavy)
}

fn measure_heavy() -> Heavy {
    let sv = sharded_serving_scenario(8192, 0x5AD5);
    let batch = compiled_batch(&sv);
    let twin = MappingService::new();
    let id = register_heavy(&twin, &sv);
    twin.prepare(id, Semantics::nulls()).unwrap();
    let base = twin.cached_bytes();
    let snapshot = twin
        .solution(id, Semantics::nulls())
        .unwrap()
        .snapshot()
        .approx_bytes();
    let answers = serve_batch(&twin, id, &batch);
    // a warm repeat inserts nothing, so the ledger reads the whole fill
    assert_eq!(serve_batch(&twin, id, &batch), answers);
    let full = twin.cached_bytes();
    assert!(full > base + 4 * snapshot, "the batch fills {full} B");
    Heavy {
        sv,
        batch,
        answers,
        base,
        snapshot,
        full,
    }
}

fn register_heavy(svc: &MappingService, sv: &ServingScenario) -> MappingId {
    svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone())
}

fn serve_batch(svc: &MappingService, id: MappingId, batch: &[CompiledQuery]) -> Vec<Answer> {
    svc.answer_batch(id, batch, Semantics::nulls())
        .into_iter()
        .map(|r| r.unwrap())
        .collect()
}

/// Every cache insert reserves its bytes against the one ledger, so a
/// budget below one batch's fill bounds what is charged after every
/// batch, not one serve later; inserts that find no room are served
/// without being kept, and the answers do not change.
#[test]
fn a_budget_below_one_batch_bounds_every_charge() {
    let h = heavy();
    let budget = h.base + 2 * h.snapshot;
    let svc = MappingService::with_cache_budget(budget);
    let id = register_heavy(&svc, &h.sv);
    for pass in 0..3 {
        assert_eq!(serve_batch(&svc, id, &h.batch), h.answers, "pass {pass}");
        let charged = svc.cached_bytes();
        assert!(charged <= budget, "pass {pass}: {charged} B > {budget} B");
    }
    let degraded = svc.serving_stats(id).unwrap().degraded;
    assert!(degraded > 0, "no insert ever found the ledger full");
}

/// A conjunctive query's full relation is its phase-1 artifact, and its
/// tuple answer and its verdict sit under the same plan hash and binding.
/// They are three entries: tuple and Boolean serves alternated three
/// times miss only in the first round.
#[test]
fn alternating_tuple_and_boolean_serves_of_a_conjunctive_query_stop_missing() {
    let sv = scenario(0xC0);
    let (_, query) = sv
        .queries
        .iter()
        .find(|(name, _)| *name == "endorses-a-contacts-post")
        .expect("the social workload has the conjunctive query");
    assert!(matches!(query, DataQuery::Conjunctive(_)));
    let q = query.compile();
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let tuples = svc.answer(id, &q, Semantics::nulls()).unwrap();
    let verdict = svc.answer(id, &q, Semantics::nulls_boolean()).unwrap();
    for round in 1..3 {
        let before = svc.serving_stats(id).unwrap();
        assert_eq!(svc.answer(id, &q, Semantics::nulls()).unwrap(), tuples);
        let boolean = svc.answer(id, &q, Semantics::nulls_boolean()).unwrap();
        assert_eq!(boolean, verdict);
        let after = svc.serving_stats(id).unwrap();
        assert_eq!(
            after.cache_misses, before.cache_misses,
            "round {round}: a kind evicted another"
        );
        assert_eq!(after.cache_hits - before.cache_hits, 2, "round {round}");
    }
}

/// A repeated batch whose fill outgrows the budget still hits: each
/// query is one whole-answer entry, so the entries the ledger keeps are
/// whole answers, and every pass after the first reads some of them back
/// instead of recomputing every artifact.
#[test]
fn a_batch_over_budget_still_hits_on_every_repeat() {
    let h = heavy();
    let budget = h.base + 2 * h.snapshot;
    let svc = MappingService::with_cache_budget(budget);
    let id = register_heavy(&svc, &h.sv);
    for pass in 0..3 {
        let before = svc.serving_stats(id).unwrap();
        assert_eq!(serve_batch(&svc, id, &h.batch), h.answers, "pass {pass}");
        let after = svc.serving_stats(id).unwrap();
        let (hits, misses) = (
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses,
        );
        if pass > 0 {
            assert!(hits > 0, "pass {pass}: {hits} hits / {misses} misses");
        }
        assert!(svc.cached_bytes() <= budget, "pass {pass}");
    }
}

/// Four threads serve two registrations of the workload, whose fills
/// cannot both fit. A sampler never sees the ledger above the budget,
/// and neither mapping evicts the other: each one's own bytes plus its
/// shortfall exceed the budget, so its serves keep what fits instead.
#[test]
fn concurrent_serves_of_two_mappings_stay_within_the_budget() {
    let h = heavy();
    let budget = 2 * h.base + 4 * h.snapshot;
    let svc = MappingService::with_cache_budget(budget);
    let ids = [register_heavy(&svc, &h.sv), register_heavy(&svc, &h.sv)];
    for &id in &ids {
        svc.prepare(id, Semantics::nulls()).unwrap();
    }
    let (done, start) = (AtomicBool::new(false), Barrier::new(4));
    let (svc, done, start) = (&svc, &done, &start);
    let (served, high) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut high = 0;
            while !done.load(Ordering::Relaxed) {
                high = high.max(svc.cached_bytes());
                std::thread::yield_now();
            }
            high
        });
        let servers: Vec<_> = (0..4)
            .map(|t| {
                scope.spawn(move || {
                    start.wait();
                    (0..3).all(|_| serve_batch(svc, ids[t % 2], &h.batch) == h.answers)
                })
            })
            .collect();
        let served: Vec<_> = servers.into_iter().map(|s| s.join()).collect();
        done.store(true, Ordering::Relaxed);
        (served, sampler.join().unwrap())
    });
    for (t, exact) in served.into_iter().enumerate() {
        assert!(exact.unwrap(), "thread {t} served a wrong answer");
    }
    assert!(high <= budget, "high-water {high} B > {budget} B");
    assert!(svc.cached_bytes() <= budget);
    assert_eq!(
        svc.stats().evictions,
        0,
        "the two mappings evicted each other"
    );
}

/// When traffic moves from one mapping to another, the budget moves with
/// it: a serve whose inserts found no room evicts the colder solution
/// when its own full footprint fits, so the newly hot mapping's repeats
/// become all hits.
#[test]
fn a_popularity_shift_moves_the_budget_to_the_hot_mapping() {
    let h = heavy();
    let budget = h.full * 3 / 2;
    let svc = MappingService::with_cache_budget(budget);
    let (a, b) = (register_heavy(&svc, &h.sv), register_heavy(&svc, &h.sv));
    for _ in 0..2 {
        assert_eq!(serve_batch(&svc, a, &h.batch), h.answers);
    }
    for pass in 0..4 {
        let before = svc.serving_stats(b).unwrap();
        assert_eq!(serve_batch(&svc, b, &h.batch), h.answers, "pass {pass}");
        let after = svc.serving_stats(b).unwrap();
        if pass >= 2 {
            assert_eq!(
                after.cache_misses, before.cache_misses,
                "pass {pass} missed"
            );
            assert!(after.cache_hits > before.cache_hits, "pass {pass}");
        }
        assert!(svc.cached_bytes() <= budget, "pass {pass}");
    }
    assert!(
        !svc.is_cached(a, Semantics::nulls()),
        "the cold mapping stayed"
    );
    assert!(svc.stats().evictions >= 1);
}

/// The stripe-count surface kept for callers that still send a count:
/// any spec is accepted for a registered mapping and changes nothing,
/// `shard_count` reads 1, and an unknown mapping is refused.
#[test]
fn any_stripe_count_is_accepted_and_reads_one() {
    let sv = sharded_serving_scenario(256, 0x5AD5);
    let batch = compiled_batch(&sv);
    let svc = MappingService::new();
    let plain = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let asked = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
        svc.answer_batch(asked, &batch, sem);
    }
    let cached = svc.cached_bytes();
    for spec in [
        ShardSpec::Fixed(0),
        ShardSpec::Fixed(4),
        ShardSpec::from(5_000_000),
        ShardSpec::Auto,
    ] {
        svc.set_shard_count(asked, spec).unwrap();
        assert_eq!(svc.shard_count(asked), Some(1), "{spec:?}");
    }
    // nothing was released: the cached answers are still there
    assert_eq!(svc.cached_bytes(), cached);
    for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
        assert_eq!(
            svc.answer_batch(asked, &batch, sem),
            svc.answer_batch(plain, &batch, sem),
            "{sem:?}"
        );
    }
    svc.unregister(plain);
    assert_eq!(
        svc.set_shard_count(plain, 2),
        Err(ServeError::UnknownMapping(plain))
    );
    assert_eq!(svc.shard_count(plain), None);
}

#[test]
fn scoped_threads_get_identical_answers() {
    let sv = scenario(0xC0);
    let queries = compiled_batch(&sv);
    // reference: a fresh service served single-threaded
    let single = MappingService::new();
    let sid = single.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let expected = fingerprint(&single, sid, &queries);
    // fresh service, four scoped readers racing the first build too
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| fingerprint(&svc, id, &queries)))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
    });
    // the batch entry point agrees as well
    for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
        let batch = svc.answer_batch(id, &queries, sem);
        for (q, got) in queries.iter().zip(batch) {
            assert_eq!(got.unwrap(), svc.answer(id, q, sem).unwrap());
        }
    }
}

/// The delta shapes the oracle test applies, in this order, each built
/// against the source as the shapes before it left it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Shape {
    /// A new edge on a label some rule reads.
    EdgeAdd,
    /// Removal of an edge whose rule has a one-letter target word.
    WordOneRemoval,
    /// Removal of an edge whose rule invents a chain (target word ≥ 2,
    /// `likes/src` in the social mapping).
    ChainRemoval,
    /// A new node with a rule-read edge into it.
    NewNodeWithEdge,
    /// An edge added and removed by the same delta: no net change.
    AddAndRemove,
    /// An edge on a label no rule reads.
    UnreadLabel,
}

const SHAPES: [Shape; 6] = [
    Shape::EdgeAdd,
    Shape::WordOneRemoval,
    Shape::ChainRemoval,
    Shape::NewNodeWithEdge,
    Shape::AddAndRemove,
    Shape::UnreadLabel,
];

/// The delta of one shape against `src`, or `None` when the graph has
/// nothing the shape needs (say, no edge under a chain-inventing rule).
fn shape_delta(shape: Shape, gsm: &Gsm, src: &DataGraph) -> Option<GraphDelta> {
    // (source label, target word length) of every rule reading an atom
    let rules: Vec<(Label, usize)> = gsm
        .rules()
        .iter()
        .filter_map(|r| Some((r.source.as_atom()?, r.target.as_word()?.len())))
        .collect();
    let read = rules.first()?.0;
    let name = |l: Label| src.alphabet().name(l).to_string();
    let mut nodes: Vec<NodeId> = src.node_ids().collect();
    nodes.sort();
    let mut edges: Vec<_> = src.edges().collect();
    edges.sort();
    let absent = || {
        let mut pairs = nodes
            .iter()
            .flat_map(|&u| nodes.iter().map(move |&v| (u, v)));
        pairs.find(|&(u, v)| u != v && !src.contains_edge(u, read, v))
    };
    let removal = |chain: bool| {
        let wanted = |l| {
            rules
                .iter()
                .any(|&(a, len)| a == l && (len >= 2) == chain && len > 0)
        };
        let &(u, l, v) = edges.iter().find(|e| wanted(e.1))?;
        Some(GraphDelta::new().without_edge(u, &name(l), v))
    };
    match shape {
        Shape::EdgeAdd => absent().map(|(u, v)| GraphDelta::new().with_edge(u, &name(read), v)),
        Shape::WordOneRemoval => removal(false),
        Shape::ChainRemoval => removal(true),
        Shape::NewNodeWithEdge => {
            let (anchor, fresh) = (*nodes.first()?, NodeId(src.fresh_id_watermark()));
            let value = src.value(anchor)?.clone();
            Some(
                GraphDelta::new()
                    .with_node(fresh, value)
                    .with_edge(anchor, &name(read), fresh),
            )
        }
        Shape::AddAndRemove => absent().map(|(u, v)| {
            GraphDelta::new()
                .with_edge(u, &name(read), v)
                .without_edge(u, &name(read), v)
        }),
        Shape::UnreadLabel => {
            Some(GraphDelta::new().with_edge(*nodes.first()?, "unread", *nodes.last()?))
        }
    }
}

/// One mapping the oracle test drives through every delta shape.
struct OracleCase {
    name: String,
    gsm: Gsm,
    source: DataGraph,
    queries: Vec<DataQuery>,
    /// Small cases must be answerable by the exact engine; on the social
    /// scenario it may give up as too complex.
    exact_required: bool,
}

/// Ten random LAV scenarios sized like `tests/end_to_end.rs`'s, each also
/// with a join rule `a b → y` added (so not LAV), plus the social scenario.
fn oracle_cases() -> Vec<OracleCase> {
    let mut cases = Vec::new();
    for seed in 0..10u64 {
        let sc = random_scenario(&ScenarioConfig {
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
        });
        let mut ta = sc.gsm.target_alphabet().clone();
        let queries: Vec<DataQuery> = ["x", "x y", "(x y)=", "(x | y)+", "((x | y)+)=", "(x y)!="]
            .iter()
            .map(|s| parse_ree(s, &mut ta).unwrap().into())
            .collect();
        let mut joined = sc.gsm.clone();
        let mut sa = joined.source_alphabet().clone();
        joined.add_rule(
            parse_regex("a b", &mut sa).unwrap(),
            parse_regex("y", &mut ta).unwrap(),
        );
        assert!(!joined.classify().lav);
        cases.push(OracleCase {
            name: format!("lav seed {seed}"),
            gsm: sc.gsm,
            source: sc.source.clone(),
            queries: queries.clone(),
            exact_required: true,
        });
        cases.push(OracleCase {
            name: format!("join seed {seed}"),
            gsm: joined,
            source: sc.source,
            queries,
            exact_required: true,
        });
    }
    let sv = scenario(0xD0);
    cases.push(OracleCase {
        name: "social".into(),
        queries: sv.query_batch(),
        gsm: sv.scenario.gsm,
        source: sv.scenario.source,
        exact_required: false,
    });
    cases
}

/// Is every certain tuple of `sub` certain in `sup` too?
fn contained(sub: &CertainAnswers, sup: &CertainAnswers) -> bool {
    match (sub, sup) {
        (_, CertainAnswers::AllVacuously) => true,
        (CertainAnswers::AllVacuously, CertainAnswers::Pairs(_)) => false,
        (CertainAnswers::Pairs(a), CertainAnswers::Pairs(b)) => a.iter().all(|p| b.contains(p)),
    }
}

/// Serve every query and check the answers against a one-shot serve of
/// the current source, and against the exact engine: Nulls ⊆ Exact, and
/// LI = Exact on equality-only queries.
fn check_against_oracle(case: &OracleCase, svc: &MappingService, id: MappingId, at: &str) {
    let src = svc.source(id).unwrap();
    for q in &case.queries {
        let cq = q.compile();
        let nulls = answer_once(&case.gsm, &src, &cq, Semantics::nulls()).unwrap();
        let li = cq
            .is_equality_only()
            .then(|| answer_once(&case.gsm, &src, &cq, Semantics::least_informative()).unwrap());
        let got = svc.answer(id, &cq, Semantics::nulls()).unwrap();
        assert_eq!(got, nulls, "{} {at}: nulls {q:?}", case.name);
        if let Some(li) = &li {
            let got = svc.answer(id, &cq, Semantics::least_informative()).unwrap();
            assert_eq!(&got, li, "{} {at}: LI {q:?}", case.name);
        }
        match certain_answers_exact(&case.gsm, q, &src, ExactOptions::default()) {
            Ok(exact) => {
                let nulls = nulls.into_tuples();
                assert!(
                    contained(&nulls, &exact),
                    "{} {at}: Nulls ⊄ Exact on {q:?}",
                    case.name
                );
                if let Some(li) = li {
                    assert_eq!(
                        li.into_tuples(),
                        exact,
                        "{} {at}: LI ≠ Exact on {q:?}",
                        case.name
                    );
                }
            }
            Err(e) => assert!(
                !case.exact_required,
                "{} {at}: exact on {q:?}: {e}",
                case.name
            ),
        }
    }
}

/// Drive one case through every delta shape; returns how many times each
/// shape applied.
fn run_oracle_case(case: &OracleCase) -> [usize; SHAPES.len()] {
    let mut applied = [0; SHAPES.len()];
    let svc = MappingService::new();
    let id = svc.register(case.gsm.clone(), case.source.clone());
    // the check serves both flavours, so every delta meets warm caches
    check_against_oracle(case, &svc, id, "before any delta");
    let lav = case.gsm.classify().lav;
    for (si, &shape) in SHAPES.iter().enumerate() {
        let src = svc.source(id).unwrap();
        let Some(delta) = shape_delta(shape, &case.gsm, &src) else {
            continue;
        };
        applied[si] += 1;
        let generation = svc.generation(id).unwrap();
        let report = svc.apply_delta(id, &delta).unwrap();
        assert_eq!(report.generation, generation + 1, "{} {shape:?}", case.name);
        if lav {
            let keeps = matches!(shape, Shape::AddAndRemove | Shape::UnreadLabel);
            assert_eq!(report.patched, keeps, "{} {shape:?}", case.name);
            assert_eq!(svc.is_cached(id, Semantics::nulls()), keeps);
        }
        check_against_oracle(case, &svc, id, &format!("after {shape:?}"));
    }
    // a delta that changes nothing bumps nothing and keeps the caches
    let generation = svc.generation(id).unwrap();
    let noop = GraphDelta::new().without_edge(NodeId(0), "unread", NodeId(0));
    let report = svc.apply_delta(id, &noop).unwrap();
    assert_eq!(report.generation, generation);
    assert!(report.patched && svc.is_cached(id, Semantics::nulls()));
    applied
}

/// Every delta shape, on LAV and non-LAV mappings: answers
/// after the delta equal a one-shot serve of the mutated source and pass
/// the exact oracle, and on LAV mappings only the two shapes no rule can
/// see keep the cached solutions (`patched`). The cases are independent,
/// so they run on scoped threads (the exact engine dominates the time).
#[test]
fn delta_shapes_match_answer_once_and_the_exact_oracle() {
    let cases = oracle_cases();
    let per_case: Vec<[usize; SHAPES.len()]> = std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|case| scope.spawn(|| run_oracle_case(case)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (si, shape) in SHAPES.iter().enumerate() {
        let runs: usize = per_case.iter().map(|a| a[si]).sum();
        assert!(runs > 0, "{shape:?} never applied");
    }
}

/// An ε-rule makes any non-loop match unsatisfiable: a delta adding one
/// turns every answer vacuous, and removing it makes the mapping
/// solvable again.
#[test]
fn epsilon_rule_deltas_toggle_solvability() {
    let mut sa = Alphabet::from_labels(["a", "b"]);
    let mut ta = Alphabet::from_labels(["x", "y"]);
    let mut m = Gsm::new(sa.clone(), ta.clone());
    m.add_rule(
        parse_regex("a", &mut sa).unwrap(),
        parse_regex("x y", &mut ta).unwrap(),
    );
    m.add_rule(parse_regex("b", &mut sa).unwrap(), Regex::Epsilon);
    let mut gs = DataGraph::with_alphabet(sa);
    for i in 0..3u32 {
        gs.add_node(NodeId(i), Value::int(i64::from(i % 2)))
            .unwrap();
    }
    gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
    gs.add_edge_str(NodeId(2), "b", NodeId(2)).unwrap();
    let q = DataQuery::from(parse_ree("x y", &mut ta).unwrap()).compile();
    let svc = MappingService::new();
    let id = svc.register(m.clone(), gs.clone());
    let solvable = svc.answer(id, &q, Semantics::nulls()).unwrap();
    assert_eq!(solvable.clone().into_pairs(), vec![(NodeId(0), NodeId(1))]);
    let report = svc
        .apply_delta(id, &GraphDelta::new().with_edge(NodeId(1), "b", NodeId(2)))
        .unwrap();
    assert!(!report.patched);
    for sem in [Semantics::nulls(), Semantics::least_informative()] {
        assert_eq!(
            svc.answer(id, &q, sem).unwrap().into_tuples(),
            CertainAnswers::AllVacuously,
            "{sem:?}"
        );
    }
    assert!(svc
        .answer(id, &q, Semantics::nulls_boolean())
        .unwrap()
        .boolean());
    assert!(!svc.prepare(id, Semantics::nulls()).unwrap(), "no solution");
    let report = svc
        .apply_delta(
            id,
            &GraphDelta::new().without_edge(NodeId(1), "b", NodeId(2)),
        )
        .unwrap();
    assert!(!report.patched, "the failed slot is dropped, not kept");
    assert_eq!(svc.answer(id, &q, Semantics::nulls()).unwrap(), solvable);
    let src = svc.source(id).unwrap();
    assert_eq!(
        svc.answer(id, &q, Semantics::least_informative()).unwrap(),
        answer_once(&m, &src, &q, Semantics::least_informative()).unwrap()
    );
}

#[test]
fn delta_validation_and_unknown_mappings() {
    let sv = scenario(0x11);
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    // invalid delta: unknown endpoint
    let bad = GraphDelta::new().with_edge(NodeId(0), "knows", NodeId(9999));
    assert!(matches!(
        svc.apply_delta(id, &bad),
        Err(ServeError::InvalidDelta(_))
    ));
    assert_eq!(svc.generation(id), Some(0), "failed deltas bump nothing");
    // node additions alone are additive and keep caches warm
    let q = sv.queries[0].1.compile();
    svc.answer(id, &q, Semantics::nulls()).unwrap();
    let watermark = svc.source(id).unwrap().fresh_id_watermark();
    let grow = GraphDelta::new().with_node(NodeId(watermark), Value::str("zoe"));
    let report = svc.apply_delta(id, &grow).unwrap();
    assert!(report.patched);
    assert_eq!(report.added_nodes, 1);
    assert!(svc.is_cached(id, Semantics::nulls()));
    // unknown mapping: a handle that was unregistered stays invalid
    let dangling: MappingId = {
        let tmp = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
        svc.unregister(tmp);
        tmp
    };
    assert!(matches!(
        svc.apply_delta(dangling, &GraphDelta::new()),
        Err(ServeError::UnknownMapping(_))
    ));
}

#[test]
fn tenant_labels_stick_and_unknown_mappings_refuse_them() {
    let sv = scenario(0x21);
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    assert_eq!(svc.tenant_label(id).as_deref(), Some(""), "unlabelled");
    svc.set_tenant_label(id, "acme").unwrap();
    assert_eq!(svc.tenant_label(id).as_deref(), Some("acme"));
    let stats = svc.serving_stats(id).unwrap();
    assert_eq!(stats.tenant, "acme", "stats carry the label");
    // relabelling is allowed (tenant rename); stats follow
    svc.set_tenant_label(id, "zenith").unwrap();
    assert_eq!(svc.serving_stats(id).unwrap().tenant, "zenith");
    let dangling = {
        let tmp = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
        svc.unregister(tmp);
        tmp
    };
    assert!(matches!(
        svc.set_tenant_label(dangling, "acme"),
        Err(ServeError::UnknownMapping(_))
    ));
    assert_eq!(svc.tenant_label(dangling), None);
}

#[test]
fn absorb_aggregates_within_a_tenant_and_refuses_cross_tenant_bleed() {
    use gde_core::engine::ServingStats;

    let sv = scenario(0x22);
    let queries = compiled_batch(&sv);
    let svc = MappingService::new();
    let a1 = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let a2 = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let b = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    svc.set_tenant_label(a1, "acme").unwrap();
    svc.set_tenant_label(a2, "acme").unwrap();
    svc.set_tenant_label(b, "zenith").unwrap();
    for id in [a1, a2, b] {
        for q in &queries {
            svc.answer(id, q, Semantics::nulls()).unwrap();
            svc.answer(id, q, Semantics::nulls_boolean()).unwrap();
        }
    }
    let s1 = svc.serving_stats(a1).unwrap();
    let s2 = svc.serving_stats(a2).unwrap();
    let sb = svc.serving_stats(b).unwrap();
    assert!(s1.tuple_evals > 0 && s2.tuple_evals > 0 && sb.tuple_evals > 0);

    // same-tenant aggregation sums every counter
    let mut acme = ServingStats {
        tenant: "acme".to_string(),
        ..ServingStats::default()
    };
    assert!(acme.absorb(&s1));
    assert!(acme.absorb(&s2));
    assert_eq!(acme.tuple_evals, s1.tuple_evals + s2.tuple_evals);
    assert_eq!(acme.boolean_evals, s1.boolean_evals + s2.boolean_evals);
    assert_eq!(acme.tuples, s1.tuples + s2.tuples);
    assert_eq!(acme.cache_bytes, s1.cache_bytes + s2.cache_bytes);

    // cross-tenant absorption is refused and absorbs nothing
    let snapshot = acme.clone();
    assert!(!acme.absorb(&sb), "zenith stats must not fold into acme");
    assert_eq!(acme.tuple_evals, snapshot.tuple_evals);
    assert_eq!(acme.boolean_evals, snapshot.boolean_evals);
    assert_eq!(acme.cache_bytes, snapshot.cache_bytes);

    // an unlabelled accumulator with no recorded work adopts the first
    // label it sees, then defends it
    let mut fresh = ServingStats::default();
    assert!(fresh.absorb(&sb));
    assert_eq!(fresh.tenant, "zenith");
    assert!(!fresh.absorb(&s1));
    assert_eq!(fresh.tuple_evals, sb.tuple_evals);
}
