//! Prepared-template equivalence: `answer_bound` must serve answers
//! byte-identical to ad-hoc `answer` for **every** `Semantics` × `Mode`,
//! cold and warm, against a reference service that serves ad-hoc queries
//! without canonicalisation (so it shares no template or cache key with
//! the bound path), stay identical across churn deltas (each drops the
//! cached solutions, templates stay interned), and survive the
//! seeded fault-injection soak. Alpha-equivalent ad-hoc requests must
//! transparently collapse onto one interned template.
//!
//! The fault plan ([`gde_core::faults`]) is process-global, so every test
//! in this binary serialises on one mutex — an armed plan would otherwise
//! leak injected panics into a neighbouring test's serves.

use std::sync::{Mutex, MutexGuard, Once};
use std::time::Duration;

use gde_core::faults::{self, FaultPlan};
use gde_core::{
    Answer, ExactOptions, MappingId, MappingService, Mode, Semantics, ServeError, TemplateId,
};
use gde_datagraph::{GraphDelta, Label, NodeId};
use gde_dataquery::{canonicalize, DataQuery, PlanSkeleton};
use gde_workload::{param_family_scenario, param_request, ParamConfig, ParamScenario};

/// Serialises every test here: fault plans are process-global.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Swallow injected-fault panic messages; forward everything else.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !msg.is_some_and(faults::is_injected) {
                default(info);
            }
        }));
    });
}

fn all_semantics() -> Vec<Semantics> {
    let mut out = Vec::new();
    for mode in [Mode::Tuples, Mode::Boolean] {
        out.push(Semantics::Nulls(mode));
        out.push(Semantics::LeastInformative(mode));
        out.push(Semantics::Exact(mode, ExactOptions::default()));
    }
    out
}

/// The family scenario plus everything the prepared path needs: one
/// exemplar request per variant, the shared skeleton, and the per-variant
/// binding vectors.
struct Family {
    ps: ParamScenario,
    exemplars: Vec<DataQuery>,
    skeleton: PlanSkeleton,
    bindings: Vec<Vec<Label>>,
}

fn family(variants: usize, nodes: usize, seed: u64) -> Family {
    let ps = param_family_scenario(&ParamConfig {
        variants,
        nodes,
        seed,
        ..ParamConfig::default()
    });
    let mut ta = ps.scenario.gsm.target_alphabet().clone();
    let exemplars: Vec<DataQuery> = ps
        .variants
        .iter()
        .enumerate()
        .map(|(i, name)| param_request(&mut ta, name, i as u64))
        .collect();
    let (skeleton, _) = canonicalize(&exemplars[0]);
    let bindings: Vec<Vec<Label>> = exemplars
        .iter()
        .map(|q| {
            let (s, b) = canonicalize(q);
            assert_eq!(s.hash(), skeleton.hash(), "one family, one skeleton");
            b.labels().to_vec()
        })
        .collect();
    Family {
        ps,
        exemplars,
        skeleton,
        bindings,
    }
}

/// A service for the family, its template interned; `canonical` turns
/// the routing of ad-hoc queries onto templates on or off.
fn register(fam: &Family, canonical: bool) -> (MappingService, MappingId, TemplateId) {
    let svc = MappingService::new();
    svc.set_canonicalisation(canonical);
    let id = svc.register(fam.ps.scenario.gsm.clone(), fam.ps.scenario.source.clone());
    let tpl = svc
        .register_template(id, &fam.skeleton)
        .expect("registered mapping interns the template");
    (svc, id, tpl)
}

/// One serve outcome per variant × semantics, errors included.
type Serves = Vec<Result<Answer, ServeError>>;

/// Ad-hoc and bound serves of every variant under every semantics,
/// errors included — an out-of-fragment rejection must be identical on
/// both paths too.
fn fingerprints(
    fam: &Family,
    svc: &MappingService,
    id: MappingId,
    tpl: TemplateId,
) -> (Serves, Serves) {
    let mut adhoc = Vec::new();
    let mut bound = Vec::new();
    for sem in all_semantics() {
        for (v, q) in fam.exemplars.iter().enumerate() {
            adhoc.push(svc.answer(id, &q.compile(), sem));
            bound.push(svc.answer_bound(id, tpl, &fam.bindings[v], sem));
        }
    }
    (adhoc, bound)
}

#[test]
fn bound_answers_identical_for_all_semantics_and_modes() {
    let _serial = serial();
    let fam = family(5, 48, 0xB0);
    let (reference, rid, rtpl) = register(&fam, false);
    let (expected, expected_bound) = fingerprints(&fam, &reference, rid, rtpl);
    assert_eq!(expected, expected_bound, "reference bound == ad-hoc");
    assert!(
        expected
            .iter()
            .any(|a| matches!(a, Ok(ans) if !ans.clone().into_pairs().is_empty())),
        "workload must produce real answers"
    );
    let (svc, id, tpl) = register(&fam, true);
    let (adhoc, bound) = fingerprints(&fam, &svc, id, tpl);
    assert_eq!(adhoc, expected, "ad-hoc must match the reference");
    assert_eq!(bound, expected, "bound must match the reference");
    // warm pass: the second serve comes out of the sub-relation cache
    // and must still be byte-identical
    let (adhoc, bound) = fingerprints(&fam, &svc, id, tpl);
    assert_eq!(adhoc, expected, "warm ad-hoc");
    assert_eq!(bound, expected, "warm bound");
}

#[test]
fn bound_answers_survive_churn_deltas() {
    let _serial = serial();
    let fam = family(4, 40, 0xC4);
    let nodes = 40u32;
    // additive contact churn: a delta a served rule reads drops the
    // cached solutions, and the next serve rebuilds
    let deltas: Vec<GraphDelta> = (0..3)
        .map(|round| {
            let mut d = GraphDelta::new();
            for i in 0..4u32 {
                let u = (round * 11 + i * 7) % nodes;
                let v = (round * 17 + i * 13 + 1) % nodes;
                if u != v {
                    d = d.with_edge(NodeId(u), "contact", NodeId(v));
                }
            }
            d
        })
        .collect();
    let (reference, rid, rtpl) = register(&fam, false);
    let (svc, id, tpl) = register(&fam, true);
    for (step, delta) in deltas.iter().enumerate() {
        // warm caches so every delta meets a resident solution
        let (expected, expected_bound) = fingerprints(&fam, &reference, rid, rtpl);
        assert_eq!(expected, expected_bound);
        let (adhoc, bound) = fingerprints(&fam, &svc, id, tpl);
        assert_eq!(adhoc, expected, "pre-delta {step}");
        assert_eq!(bound, expected, "pre-delta {step} bound");
        reference.apply_delta(rid, delta).expect("delta applies");
        svc.apply_delta(id, delta).expect("delta applies");
    }
    let (expected, expected_bound) = fingerprints(&fam, &reference, rid, rtpl);
    assert_eq!(expected, expected_bound);
    let (adhoc, bound) = fingerprints(&fam, &svc, id, tpl);
    assert_eq!(adhoc, expected, "post-churn");
    assert_eq!(bound, expected, "post-churn bound");
}

#[test]
fn bound_answers_identical_under_fault_soak_seeds() {
    let _serial = serial();
    quiet_injected_panics();
    let fam = family(3, 36, 0xFA);
    let (svc, id, tpl) = register(&fam, true);
    let sems = [Semantics::nulls(), Semantics::nulls_boolean()];
    let mut reference = Vec::new();
    for sem in sems {
        for (v, q) in fam.exemplars.iter().enumerate() {
            let a = svc.answer(id, &q.compile(), sem).expect("fault-free serve");
            assert_eq!(
                svc.answer_bound(id, tpl, &fam.bindings[v], sem)
                    .expect("fault-free bound serve"),
                a
            );
            reference.push(a);
        }
    }
    let mut contained = 0u64;
    for seed in 0..16u64 {
        let armed = faults::arm(FaultPlan::seeded(seed).delay(Duration::from_micros(20)));
        let mut i = 0;
        for sem in sems {
            for (v, q) in fam.exemplars.iter().enumerate() {
                for r in [
                    svc.answer(id, &q.compile(), sem),
                    svc.answer_bound(id, tpl, &fam.bindings[v], sem),
                ] {
                    match r {
                        Ok(ans) => assert_eq!(ans, reference[i], "seed {seed} variant {v}"),
                        Err(ServeError::StripePanicked { message, .. }) => {
                            assert!(
                                faults::is_injected(&message),
                                "seed {seed}: contained a non-injected panic: {message}"
                            );
                            contained += 1;
                        }
                        Err(e) => panic!("seed {seed}: unexpected serve error: {e}"),
                    }
                }
                i += 1;
            }
        }
        drop(armed);
        // recovery: disarmed, both paths must serve the exact fault-free
        // answers again from whatever the faults left behind
        let mut i = 0;
        for sem in sems {
            for (v, q) in fam.exemplars.iter().enumerate() {
                assert_eq!(
                    svc.answer(id, &q.compile(), sem).expect("recovered"),
                    reference[i],
                    "seed {seed} recovery"
                );
                assert_eq!(
                    svc.answer_bound(id, tpl, &fam.bindings[v], sem)
                        .expect("recovered"),
                    reference[i],
                    "seed {seed} bound recovery"
                );
                i += 1;
            }
        }
    }
    assert!(contained > 0, "soak never saw a contained panic");
}

#[test]
fn alpha_equivalent_adhoc_requests_share_one_template() {
    let _serial = serial();
    let fam = family(3, 36, 0xA1);
    let svc = MappingService::new();
    let id = svc.register(fam.ps.scenario.gsm.clone(), fam.ps.scenario.source.clone());
    let mut ta = fam.ps.scenario.gsm.target_alphabet().clone();
    // first encounter interns the skeleton and pays the compile: no hit
    let q1 = param_request(&mut ta, &fam.ps.variants[0], 501).compile();
    let a1 = svc.answer(id, &q1, Semantics::nulls()).expect("serves");
    let s = svc.serving_stats(id).expect("registered");
    assert_eq!(s.template_hits, 0, "the first encounter pays the compile");
    // an alpha-renamed repeat and a re-bound sibling both hit it
    let q2 = param_request(&mut ta, &fam.ps.variants[0], 502).compile();
    assert_ne!(q1.plan_hash(), q2.plan_hash(), "raw plan hashes differ");
    assert_eq!(svc.answer(id, &q2, Semantics::nulls()).expect("serves"), a1);
    let q3 = param_request(&mut ta, &fam.ps.variants[1], 503).compile();
    svc.answer(id, &q3, Semantics::nulls()).expect("serves");
    let s = svc.serving_stats(id).expect("registered");
    assert_eq!(
        s.template_hits, 2,
        "alpha variants and re-bindings share the template"
    );
    assert!(
        s.compile_skipped_ns > 0,
        "skipped compile time is accounted"
    );
    // with canonicalisation off the same traffic shares nothing
    let off = MappingService::new();
    let oid = off.register(fam.ps.scenario.gsm.clone(), fam.ps.scenario.source.clone());
    off.set_canonicalisation(false);
    let b1 = off.answer(oid, &q1, Semantics::nulls()).expect("serves");
    assert_eq!(b1, a1, "canonicalisation must never change answers");
    assert_eq!(
        off.answer(oid, &q2, Semantics::nulls()).expect("serves"),
        a1
    );
    let s = off.serving_stats(oid).expect("registered");
    assert_eq!(s.template_hits, 0, "routing is off");
}
