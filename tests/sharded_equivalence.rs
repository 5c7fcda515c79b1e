//! Serving equivalence on the social serving workload: a
//! `MappingService` must serve, for **every** `Semantics` × `Mode` and
//! through both `answer` and `answer_batch`, exactly what a one-shot
//! serve (`answer_once`, a fresh service per query) answers; and it must
//! stay identical across churn deltas (each drops the warm solution and
//! its sub-relation cache, so no pre-delta entry may ever serve), across
//! worker-thread budgets, and with the sub-relation cache warm.

use gde_core::{
    answer_once, Answer, ExactOptions, Gsm, MappingId, MappingService, Mode, Semantics, ServeError,
    ServeOptions,
};
use gde_datagraph::{Alphabet, DataGraph, NodeId, Value};
use gde_dataquery::{canonicalize, parse_ree, CompiledQuery, DataQuery};
use gde_workload::{
    sharded_serving_scenario, social_churn_deltas, social_serving_scenario, ServingScenario,
    SocialConfig,
};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn all_semantics() -> Vec<Semantics> {
    let mut out = Vec::new();
    for mode in [Mode::Tuples, Mode::Boolean] {
        out.push(Semantics::Nulls(mode));
        out.push(Semantics::LeastInformative(mode));
        out.push(Semantics::Exact(mode, ExactOptions::default()));
    }
    out
}

/// Answer every query under every semantics (errors included — an
/// out-of-fragment rejection must be identical too).
fn fingerprint(
    svc: &MappingService,
    id: gde_core::MappingId,
    queries: &[CompiledQuery],
) -> Vec<Result<Answer, ServeError>> {
    let mut out = Vec::new();
    for sem in all_semantics() {
        for q in queries {
            out.push(svc.answer(id, q, sem));
        }
        out.extend(svc.answer_batch(id, queries, sem));
    }
    out
}

/// [`fingerprint`]'s answers from one-shot serves: a private service per
/// query, so no answer is ever read back from a cache.
fn one_shot_fingerprint(
    gsm: &Gsm,
    source: &DataGraph,
    queries: &[CompiledQuery],
) -> Vec<Result<Answer, ServeError>> {
    let mut out = Vec::new();
    for sem in all_semantics() {
        let once: Vec<_> = queries
            .iter()
            .map(|q| answer_once(gsm, source, q, sem))
            .collect();
        out.extend(once.iter().cloned());
        out.extend(once);
    }
    out
}

#[test]
fn served_answers_match_one_shot_for_all_semantics_and_modes() {
    let sv: ServingScenario = social_serving_scenario(&SocialConfig {
        persons: 30,
        knows_per_person: 3,
        posts: 18,
        cities: 4,
        seed: 0x5A4D,
    });
    let queries: Vec<CompiledQuery> = sv.queries.iter().map(|(_, q)| q.compile()).collect();
    let expected = one_shot_fingerprint(&sv.scenario.gsm, &sv.scenario.source, &queries);
    assert!(
        expected.iter().any(|a| a.is_ok()),
        "workload must produce real answers"
    );
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    assert_eq!(fingerprint(&svc, id, &queries), expected, "cold");
    assert_eq!(fingerprint(&svc, id, &queries), expected, "warm");
}

#[test]
fn served_answers_survive_incremental_deltas() {
    let cfg = SocialConfig {
        persons: 24,
        knows_per_person: 3,
        posts: 14,
        cities: 3,
        seed: 0xDE17A,
    };
    let sv = social_serving_scenario(&cfg);
    let queries: Vec<CompiledQuery> = sv.queries.iter().map(|(_, q)| q.compile()).collect();
    let deltas = social_churn_deltas(&cfg, 3, 4, 0xBEEF);
    // the churned service against a fresh one registered on each mutated
    // source, which has never seen a pre-delta state
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let mut source = sv.scenario.source.clone();
    let fresh = |source: &DataGraph| {
        let reference = MappingService::new();
        let rid = reference.register(sv.scenario.gsm.clone(), source.clone());
        fingerprint(&reference, rid, &queries)
    };
    for (step, delta) in deltas.iter().enumerate() {
        // warm caches so every delta meets a resident solution
        let expected = fresh(&source);
        assert_eq!(
            fingerprint(&svc, id, &queries),
            expected,
            "pre-delta {step}"
        );
        svc.apply_delta(id, delta).unwrap();
        source.apply_delta(delta).unwrap();
    }
    assert_eq!(
        fingerprint(&svc, id, &queries),
        fresh(&source),
        "post-churn"
    );
    assert!(
        svc.stats().invalidating_deltas >= 1,
        "churn must invalidate warm caches"
    );
    // the batch half of every fingerprint reuses cached answers; the
    // equivalence asserts above prove no pre-delta entry ever served
    assert!(
        svc.serving_stats(id).unwrap().cache_hits > 0,
        "churned serving must reuse the sub-relation cache"
    );
}

#[test]
fn served_answers_identical_across_thread_counts() {
    // `par::set_max_threads` is process-global; this is the only test in
    // the binary that moves it, and answers must be identical at every
    // setting anyway, so concurrent tests cannot observe a difference.
    let sv: ServingScenario = social_serving_scenario(&SocialConfig {
        persons: 24,
        knows_per_person: 3,
        posts: 12,
        cities: 3,
        seed: 0xC0DE,
    });
    let queries: Vec<CompiledQuery> = sv.queries.iter().map(|(_, q)| q.compile()).collect();
    let reference = MappingService::new();
    let rid = reference.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let expected = fingerprint(&reference, rid, &queries);
    for threads in [1usize, 2, 4] {
        gde_datagraph::par::set_max_threads(threads);
        let svc = MappingService::new();
        let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
        assert_eq!(
            fingerprint(&svc, id, &queries),
            expected,
            "cold, {threads} thread(s)"
        );
        // second pass serves out of the warm sub-relation cache and
        // must still be byte-identical
        assert_eq!(
            fingerprint(&svc, id, &queries),
            expected,
            "warm, {threads} thread(s)"
        );
    }
    gde_datagraph::par::set_max_threads(0); // restore the env default
}

#[test]
fn repeated_batches_hit_the_sub_relation_cache() {
    let sv = sharded_serving_scenario(900, 0xCAFE);
    let queries: Vec<CompiledQuery> = sv.queries.iter().map(|(_, q)| q.compile()).collect();
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let cold = svc.answer_batch(id, &queries, Semantics::nulls());
    assert!(cold.iter().any(|a| a.is_ok()));
    let stats = svc.serving_stats(id).unwrap();
    let (hits0, misses0) = (stats.cache_hits, stats.cache_misses);
    assert!(misses0 > 0, "cold batch must populate the cache");
    assert!(
        stats.memo_build_ns > 0,
        "phase-1 memo construction runs (and is timed) in each miss's task"
    );
    let warm = svc.answer_batch(id, &queries, Semantics::nulls());
    assert_eq!(warm, cold, "warm batch must be byte-identical");
    let stats = svc.serving_stats(id).unwrap();
    assert!(
        stats.cache_hits > hits0,
        "repeated batch must hit the cache"
    );
    assert_eq!(
        stats.cache_misses, misses0,
        "steady-state serving takes no new misses"
    );
    assert!(stats.cache_hit_rate() > 0.0);
}

#[test]
fn batch_scenario_is_consistent_at_small_scale() {
    // the bench workload itself, shrunk: a cold batch, whose misses share
    // phase-1 artifacts through the cache, against single serves, plus
    // class coverage sanity — including the high-cardinality merge-bound
    // batch
    let sv = sharded_serving_scenario(900, 0x77);
    let mut queries: Vec<CompiledQuery> = sv.queries.iter().map(|(_, q)| q.compile()).collect();
    assert!(queries.len() >= 10);
    assert!(queries.iter().any(|q| !q.is_equality_only()));
    let mut ta = sv.scenario.gsm.target_alphabet().clone();
    queries.extend(
        gde_workload::merge_bound_queries(&mut ta)
            .iter()
            .map(|(_, q)| q.compile()),
    );
    let reference = MappingService::new();
    let rid = reference.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference.answer(rid, q, sem))
            .collect();
        let svc = MappingService::new();
        let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
        assert_eq!(svc.answer_batch(id, &queries, sem), expected, "{sem:?}");
    }
}

/// Run one serve; return its result and how far it moved the door
/// counters (`rejected`, `static_empty`, `template_hits`).
fn metered<T>(svc: &MappingService, id: MappingId, serve: impl FnOnce() -> T) -> (T, [u64; 3]) {
    let counters = || {
        let s = svc.serving_stats(id).unwrap();
        [s.rejected, s.static_empty, s.template_hits]
    };
    let before = counters();
    let out = serve();
    let after = counters();
    (out, [0, 1, 2].map(|i| after[i] - before[i]))
}

/// Source 0(v5) -a-> 1(v5) -a-> 2(v7) under three mappings over target
/// labels {x, y, z}: a normal one, (a, x y); one with no solution, which
/// adds the ε-rule (a, ε) that a non-loop a-edge violates; and one that is
/// not relational, which adds (a, Σ*).
fn door_mappings() -> (DataGraph, Vec<(&'static str, Gsm)>) {
    let mut sa = Alphabet::from_labels(["a"]);
    let mut ta = Alphabet::from_labels(["x", "y", "z"]);
    let mut normal = Gsm::new(sa.clone(), ta.clone());
    normal.add_rule(
        gde_automata::parse_regex("a", &mut sa).unwrap(),
        gde_automata::parse_regex("x y", &mut ta).unwrap(),
    );
    let a = gde_automata::Regex::Atom(sa.label("a").unwrap());
    let mut no_solution = normal.clone();
    no_solution.add_rule(a.clone(), gde_automata::Regex::Epsilon);
    let mut not_relational = normal.clone();
    not_relational.add_rule(a, gde_automata::Regex::reachability(&ta));
    let mut gs = DataGraph::new();
    for (i, v) in [5, 5, 7].into_iter().enumerate() {
        gs.add_node(NodeId(i as u32), Value::int(v)).unwrap();
    }
    gs.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
    gs.add_edge_str(NodeId(1), "a", NodeId(2)).unwrap();
    let mappings = vec![
        ("normal", normal),
        ("no-solution", no_solution),
        ("not-relational", not_relational),
    ];
    (gs, mappings)
}

/// The one serve door, pinned as a table: a query gets the same `Result`
/// and moves the door counters (`rejected`, `static_empty`,
/// `template_hits`) by the same amounts whichever entry point it comes
/// through — `answer`, `answer_bound` on its template, a batch of one, or
/// its slot in a mixed batch. The table is every `Semantics` × {an
/// ordinary query, an inequality query (out of fragment under LI), a
/// statically-empty one} × {unbounded, already cancelled}, on a normal, a
/// NoSolution and a NotRelational mapping.
#[test]
fn every_entry_point_passes_the_same_door() {
    let (gs, mappings) = door_mappings();
    for (name, gsm) in mappings {
        let mut ta = gsm.target_alphabet().clone();
        let queries: Vec<CompiledQuery> = ["(x y)=", "(x y)!=", "z"]
            .iter()
            .map(|s| DataQuery::from(parse_ree(s, &mut ta).unwrap()).compile())
            .collect();
        let svc = MappingService::new();
        let id = svc.register(gsm.clone(), gs.clone());
        // intern every template up front, so each routed serve counts
        // the same hit a bound serve does
        let bound: Vec<_> = queries
            .iter()
            .map(|q| {
                let (skeleton, bindings) = canonicalize(q.source());
                let tid = svc.register_template(id, &skeleton).unwrap();
                (tid, bindings.labels().to_vec())
            })
            .collect();
        for sem in all_semantics() {
            for cancelled in [false, true] {
                let opts = ServeOptions::new().with_cancel(Arc::new(AtomicBool::new(cancelled)));
                let ctx = format!("{name} {sem:?} cancelled={cancelled}");
                let mut singles = Vec::new();
                let mut total = [0u64; 3];
                for (qi, q) in queries.iter().enumerate() {
                    let (single, moved) = metered(&svc, id, || svc.answer_with(id, q, sem, &opts));
                    let (tid, labels) = &bound[qi];
                    assert_eq!(
                        metered(&svc, id, || {
                            svc.answer_bound_with(id, *tid, labels, sem, &opts)
                        }),
                        (single.clone(), moved),
                        "answer_bound, query {qi}, {ctx}"
                    );
                    assert_eq!(
                        metered(&svc, id, || {
                            svc.answer_batch_with(id, std::slice::from_ref(q), sem, &opts)
                        }),
                        (vec![single.clone()], moved),
                        "batch of one, query {qi}, {ctx}"
                    );
                    singles.push(single);
                    for (t, m) in total.iter_mut().zip(moved) {
                        *t += m;
                    }
                }
                assert_eq!(
                    metered(&svc, id, || svc.answer_batch_with(id, &queries, sem, &opts)),
                    (singles, total),
                    "mixed batch, {ctx}"
                );
            }
        }
        // the table reaches every counter it pins
        let stats = svc.serving_stats(id).unwrap();
        assert!(stats.rejected > 0 && stats.template_hits > 0, "{name}");
        assert!(name != "normal" || stats.static_empty > 0, "{name}");
    }
}
