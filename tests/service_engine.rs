//! `MappingService` lifecycle tests: LRU eviction under a byte budget,
//! concurrent serving from scoped threads, and delta-aware invalidation
//! (generation stamps, LAV in-place patching, full-rebuild fallbacks).

use gde_core::{Answer, MappingId, MappingService, Semantics, ServeError};
use gde_datagraph::{GraphDelta, NodeId, Value};
use gde_dataquery::CompiledQuery;
use gde_workload::{social_churn_deltas, social_serving_scenario, ServingScenario, SocialConfig};

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
    // two of them: its resident bytes once a repeat serve has settled the
    // sub-relation cache charge, plus the headroom admission control
    // reserves for the cache a serve may fill (the snapshot's size)
    svc.answer(ids[0], &q, Semantics::nulls()).unwrap();
    svc.answer(ids[0], &q, Semantics::nulls()).unwrap();
    let snapshot = svc
        .solution(ids[0], Semantics::nulls())
        .unwrap()
        .snapshot()
        .approx_bytes();
    let one = svc.cached_bytes() + snapshot;
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

#[test]
fn additive_lav_delta_patches_and_matches_full_rebuild() {
    let sv = scenario(0xD0);
    let queries = compiled_batch(&sv);
    let cfg = SocialConfig {
        persons: 20,
        knows_per_person: 3,
        posts: 12,
        cities: 3,
        seed: 0xD0,
    };
    let deltas = social_churn_deltas(&cfg, 3, 5, 0xFEED);

    let patching = MappingService::new();
    let pid = patching.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let rebuilding = MappingService::new();
    rebuilding.set_delta_patching(false);
    let rid = rebuilding.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());

    assert_eq!(patching.generation(pid), Some(0));
    let mut expected_gen = 0;
    for delta in &deltas {
        // warm caches so the delta actually has something to patch
        fingerprint(&patching, pid, &queries);
        fingerprint(&rebuilding, rid, &queries);
        let rp = patching.apply_delta(pid, delta).unwrap();
        let rr = rebuilding.apply_delta(rid, delta).unwrap();
        assert_eq!(rp.added_edges, rr.added_edges);
        if rp.added_edges > 0 {
            expected_gen += 1;
            assert!(rp.patched, "additive LAV delta must patch in place");
            assert!(!rr.patched, "patching disabled ⇒ invalidate");
            assert!(!rebuilding.is_cached(rid, Semantics::nulls()));
        }
        assert_eq!(patching.generation(pid), Some(expected_gen));
        // both routes agree with each other after the delta
        assert_eq!(
            fingerprint(&patching, pid, &queries),
            fingerprint(&rebuilding, rid, &queries)
        );
    }
    assert!(patching.stats().patched_deltas >= 1);
    // the exact engine consumes the patched skeleton identically too (on
    // this workload both typically hit the same TooComplex bound — the
    // point is that patched and rebuilt skeletons behave the same)
    for (_, q) in sv.queries.iter().take(2) {
        let c = q.compile();
        assert_eq!(
            patching.answer(pid, &c, Semantics::exact()),
            rebuilding.answer(rid, &c, Semantics::exact())
        );
    }
}

#[test]
fn lav_removals_unpatch_in_place_and_match_rebuild() {
    let sv = scenario(0xA7);
    let queries = compiled_batch(&sv);
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    fingerprint(&svc, id, &queries);
    assert!(svc.is_cached(id, Semantics::nulls()));
    let gen0 = svc.generation(id).unwrap();

    // remove an existing knows edge (target word length 1): the matching
    // contact edge is deleted from the cached solutions in place
    let src = svc.source(id).unwrap();
    let (u, _, v) = src
        .edges()
        .find(|&(_, l, _)| src.alphabet().name(l) == "knows")
        .expect("social graph has knows edges");
    let delta = GraphDelta::new().without_edge(u, "knows", v);
    let report = svc.apply_delta(id, &delta).unwrap();
    assert_eq!(report.removed_edges, 1);
    assert!(report.patched, "bounded LAV removals are absorbed in place");
    assert_eq!(report.generation, gen0 + 1);
    assert_eq!(svc.generation(id), Some(gen0 + 1));

    // unpatched answers match a fresh service over the mutated graph
    let fresh = MappingService::new();
    let fid = fresh.register(sv.scenario.gsm.clone(), svc.source(id).unwrap());
    assert_eq!(
        fingerprint(&svc, id, &queries),
        fingerprint(&fresh, fid, &queries)
    );

    // a removal whose fresh path carries an invented middle (likes/src →
    // endorses·via, target word length 2) unpatches too: the chain and its
    // invented node disappear exactly as a rebuild would drop them
    let src = svc.source(id).unwrap();
    let (lu, _, lv) = src
        .edges()
        .find(|&(_, l, _)| src.alphabet().name(l) == "likes/src")
        .expect("social graph has likes edges");
    let report = svc
        .apply_delta(id, &GraphDelta::new().without_edge(lu, "likes/src", lv))
        .unwrap();
    assert!(report.patched, "chain removals are absorbed in place");
    let fresh2 = MappingService::new();
    let fid2 = fresh2.register(sv.scenario.gsm.clone(), svc.source(id).unwrap());
    assert_eq!(
        fingerprint(&svc, id, &queries),
        fingerprint(&fresh2, fid2, &queries)
    );
    assert!(svc.stats().patched_deltas >= 2);

    // with patching disabled the same removal shape invalidates instead
    let rebuilding = MappingService::new();
    rebuilding.set_delta_patching(false);
    let rid = rebuilding.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    fingerprint(&rebuilding, rid, &queries);
    let report = rebuilding
        .apply_delta(rid, &GraphDelta::new().without_edge(u, "knows", v))
        .unwrap();
    assert!(!report.patched);
    assert!(
        !rebuilding.is_cached(rid, Semantics::nulls()),
        "generation bump invalidates the stale cache"
    );

    // a delta that changes nothing bumps nothing
    let gen = svc.generation(id).unwrap();
    fingerprint(&svc, id, &queries); // refreeze so the cache is resident
    let noop = GraphDelta::new().without_edge(u, "knows", v);
    let report = svc.apply_delta(id, &noop).unwrap();
    assert_eq!(report.generation, gen);
    assert!(svc.is_cached(id, Semantics::nulls()));
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
    assert_eq!(
        acme.per_stripe.len(),
        s1.per_stripe.len().max(s2.per_stripe.len())
    );

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
