//! Seeded fault-injection soak and recovery-invariant tests for the
//! serving engine.
//!
//! The fault plan ([`gde_core::faults`]) is process-global, so every test
//! in this binary serialises on one mutex — an armed plan would otherwise
//! leak injected panics into a neighbouring test's serves. Injected panic
//! messages are swallowed by a quiet hook (they are deliberate and would
//! flood the output); anything else still prints through the default
//! hook, so a *real* bug surfacing mid-soak stays visible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

use gde_core::faults::{self, FaultPlan, FaultSite};
use gde_core::{
    Answer, MappingId, MappingService, Semantics, ServeError, ServeOptions, ServingStats,
};
use gde_dataquery::{CompiledQuery, DataQuery};
use gde_workload::{social_churn_deltas, social_serving_scenario, ServingScenario, SocialConfig};

/// Serialises every test here: fault plans and the panic hook are
/// process-global.
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

fn scenario(seed: u64) -> ServingScenario {
    social_serving_scenario(&SocialConfig {
        persons: 14,
        knows_per_person: 3,
        posts: 10,
        cities: 3,
        seed,
    })
}

fn compiled_batch(sv: &ServingScenario) -> Vec<CompiledQuery> {
    sv.queries.iter().map(|(_, q)| q.compile()).collect()
}

/// Answer every query under tuple and Boolean nulls semantics — the
/// byte-level fingerprint recovery is checked against.
fn fingerprint(svc: &MappingService, id: MappingId, qs: &[CompiledQuery]) -> Vec<Answer> {
    let mut out = Vec::new();
    for q in qs {
        out.push(svc.answer(id, q, Semantics::nulls()).unwrap());
        out.push(svc.answer(id, q, Semantics::nulls_boolean()).unwrap());
    }
    out
}

/// The soak: across ≥32 seeds (plus an optional `GDE_FAULT_SEED` smoke
/// seed from the environment), drive a service through batch and
/// single serves while panics and delays fire at every injection site.
/// The process must never abort, every error must be a typed contained
/// one, and after each seed disarms the same service must return
/// byte-identical answers with a consistent cache charge.
#[test]
fn seeded_soak_never_aborts_and_recovers_byte_identical() {
    let _serial = serial();
    quiet_injected_panics();
    let sv = scenario(0xFA);
    let qs: Vec<CompiledQuery> = compiled_batch(&sv).into_iter().take(6).collect();
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let reference = fingerprint(&svc, id, &qs);
    let ref_batch: Vec<Answer> = svc
        .answer_batch(id, &qs, Semantics::nulls())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let baseline_bytes = svc.cached_bytes();
    assert!(baseline_bytes > 0);

    let mut seeds: Vec<u64> = (0..32).collect();
    if let Some(s) = smoke_seed() {
        eprintln!("fault soak: extra smoke seed {s}");
        seeds.push(s);
    }

    let (mut contained, mut total_hits) = (0u64, 0u64);
    for seed in seeds {
        let armed = faults::arm(FaultPlan::seeded(seed).delay(Duration::from_micros(20)));
        for (i, r) in svc
            .answer_batch(id, &qs, Semantics::nulls())
            .into_iter()
            .enumerate()
        {
            match r {
                Ok(ans) => assert_eq!(ans, ref_batch[i], "seed {seed} query {i}"),
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
        for (qi, q) in qs.iter().enumerate() {
            for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
                match svc.answer(id, q, sem) {
                    Ok(ans) => assert_eq!(ans, reference[qi * 2 + sem_index(sem)]),
                    Err(ServeError::StripePanicked { message, .. }) => {
                        assert!(faults::is_injected(&message), "seed {seed}: {message}");
                        contained += 1;
                    }
                    Err(e) => panic!("seed {seed}: unexpected serve error: {e}"),
                }
            }
        }
        total_hits += FaultSite::ALL.iter().map(|&s| faults::hits(s)).sum::<u64>();
        drop(armed);
        // recovery: disarmed, the same service must serve the exact
        // fault-free answers again from whatever the faults left behind
        assert_eq!(fingerprint(&svc, id, &qs), reference, "seed {seed}");
        // ... and the cache charge must settle back to the fault-free
        // baseline: a quarantine that leaked a phantom charge would
        // drift these bytes upward seed over seed
        assert_eq!(svc.cached_bytes(), baseline_bytes, "seed {seed}");
    }
    assert!(contained > 0, "soak never saw a contained panic");
    assert!(total_hits > 0, "injection points were never exercised");
    let stats = svc.serving_stats(id).unwrap();
    assert!(stats.worker_panics > 0, "no worker panic was counted");
    assert!(stats.retries > 0, "no quarantine retry was counted");
}

/// The soak's extra `GDE_FAULT_SEED` smoke seed, when the environment
/// sets one.
fn smoke_seed() -> Option<u64> {
    let s = std::env::var("GDE_FAULT_SEED").ok()?;
    Some(s.parse().expect("GDE_FAULT_SEED must be a u64"))
}

/// The delta path under faults: across 16 seeds (plus the optional
/// `GDE_FAULT_SEED` smoke seed), apply a churn delta, then serve the batch
/// with panics and delays armed. Every answer must equal a fresh
/// service's answer on the mutated source or be a contained injected
/// panic; once disarmed, the service must match a twin that ran the same
/// sequence fault-free, answers and cache charge alike.
#[test]
fn seeded_soak_delta_then_batch_matches_a_fault_free_twin() {
    let _serial = serial();
    quiet_injected_panics();
    let cfg = SocialConfig {
        persons: 14,
        knows_per_person: 3,
        posts: 10,
        cities: 3,
        seed: 0xDE,
    };
    let sv = social_serving_scenario(&cfg);
    let qs: Vec<CompiledQuery> = compiled_batch(&sv).into_iter().take(6).collect();
    let mut seeds: Vec<u64> = (0..16).collect();
    seeds.extend(smoke_seed());
    let deltas = social_churn_deltas(&cfg, seeds.len(), 4, 0xFA17);
    let [(svc, id), (twin, tid)] = [(); 2].map(|_| {
        let svc = MappingService::new();
        let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
        (svc, id)
    });
    assert_eq!(fingerprint(&svc, id, &qs), fingerprint(&twin, tid, &qs));

    let (mut served, mut contained) = (0u64, 0u64);
    for (&seed, delta) in seeds.iter().zip(&deltas) {
        twin.apply_delta(tid, delta).unwrap();
        let twin_batch = twin.answer_batch(tid, &qs, Semantics::nulls());
        let fresh = MappingService::new();
        let fid = fresh.register(sv.scenario.gsm.clone(), twin.source(tid).unwrap());
        let expected: Vec<Answer> = fresh
            .answer_batch(fid, &qs, Semantics::nulls())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        for (got, want) in twin_batch.into_iter().zip(&expected) {
            assert_eq!(&got.unwrap(), want, "seed {seed}: fault-free twin");
        }

        // the cold serve after a delta rebuilds and refills the cache,
        // crossing dozens of fault points: at the default 1-in-7 panic
        // rate both attempts of every batch would fail, so a sparser rate
        // mixes served answers with contained panics
        let plan = FaultPlan::seeded(seed).panic_one_in(40);
        let armed = faults::arm(plan.delay(Duration::from_micros(20)));
        svc.apply_delta(id, delta).unwrap();
        for (i, r) in svc
            .answer_batch(id, &qs, Semantics::nulls())
            .into_iter()
            .enumerate()
        {
            match r {
                Ok(ans) => {
                    assert_eq!(ans, expected[i], "seed {seed} query {i}");
                    served += 1;
                }
                Err(ServeError::StripePanicked { message, .. }) => {
                    assert!(faults::is_injected(&message), "seed {seed}: {message}");
                    contained += 1;
                }
                Err(e) => panic!("seed {seed}: unexpected serve error: {e}"),
            }
        }
        drop(armed);
        assert_eq!(
            fingerprint(&svc, id, &qs),
            fingerprint(&twin, tid, &qs),
            "seed {seed}"
        );
        assert_eq!(svc.cached_bytes(), twin.cached_bytes(), "seed {seed}");
    }
    assert!(
        svc.stats().invalidating_deltas > 0,
        "churn never reached a warm cache"
    );
    assert!(
        served > 0 && contained > 0,
        "{served} served, {contained} contained"
    );
    assert!(
        svc.serving_stats(id).unwrap().retries > 0,
        "no quarantine retry ran"
    );
}

fn sem_index(sem: Semantics) -> usize {
    usize::from(sem == Semantics::nulls_boolean())
}

/// A panicking serve quarantines only its own mapping: a sibling
/// mapping's cached solution, counters and answers are untouched.
#[test]
fn a_panicking_serve_quarantines_only_that_mapping() {
    let _serial = serial();
    quiet_injected_panics();
    let (sva, svb) = (scenario(0xA1), scenario(0xB2));
    let (qa, qb) = (sva.queries[0].1.compile(), svb.queries[0].1.compile());
    let svc = MappingService::new();
    let ida = svc.register(sva.scenario.gsm.clone(), sva.scenario.source.clone());
    let idb = svc.register(svb.scenario.gsm.clone(), svb.scenario.source.clone());
    let ref_a = svc.answer(ida, &qa, Semantics::nulls()).unwrap();
    let ref_b = svc.answer(idb, &qb, Semantics::nulls()).unwrap();
    assert!(svc.is_cached(ida, Semantics::nulls()));
    assert!(svc.is_cached(idb, Semantics::nulls()));
    // mapping A's other flavour is resident too: an equality-only query
    // served under the least-informative semantics
    let qa_eq = compiled_batch(&sva)
        .into_iter()
        .find(CompiledQuery::is_equality_only)
        .expect("the social workload has an equality-only query");
    svc.answer(ida, &qa_eq, Semantics::least_informative())
        .unwrap();
    let li_a = svc.solution(ida, Semantics::least_informative()).unwrap();

    // every hit panics: the warm serve's answer hand-out panics, the
    // quarantine retry's rebuild panics at the freeze, and the serve
    // surfaces the typed error after both contained attempts
    let armed = faults::arm(FaultPlan::seeded(9).panic_one_in(1).delay_one_in(0));
    match svc.answer(ida, &qa, Semantics::nulls()) {
        Err(ServeError::StripePanicked { message, .. }) => {
            assert!(faults::is_injected(&message), "{message}")
        }
        other => panic!("expected StripePanicked, got {other:?}"),
    }
    drop(armed);

    // only mapping A was quarantined
    assert!(!svc.is_cached(ida, Semantics::nulls()), "A is quarantined");
    assert!(svc.is_cached(idb, Semantics::nulls()), "B is untouched");
    let sa = svc.serving_stats(ida).unwrap();
    assert!(sa.worker_panics >= 1);
    assert!(sa.retries >= 1);
    let sb = svc.serving_stats(idb).unwrap();
    assert_eq!(sb.worker_panics, 0);
    assert_eq!(sb.retries, 0);
    // the quarantine dropped A's Nulls flavour alone: its least-
    // informative solution is the same resident one, and with no delta
    // applied the generation never moved
    assert!(svc.is_cached(ida, Semantics::least_informative()));
    let li_after = svc.solution(ida, Semantics::least_informative()).unwrap();
    assert!(Arc::ptr_eq(&li_a, &li_after));
    assert_eq!(svc.generation(ida), Some(0));
    // both recover to byte-identical answers
    assert_eq!(svc.answer(ida, &qa, Semantics::nulls()).unwrap(), ref_a);
    assert_eq!(svc.answer(idb, &qb, Semantics::nulls()).unwrap(), ref_b);
}

/// Cancelling mid-batch leaves every cache consistent: a retry of the
/// same batch is byte-identical, whether the cancel lands on a warm batch
/// or a deadline stops a cold one between the tasks of its queries.
#[test]
fn cancel_mid_batch_then_retry_is_byte_identical() {
    let _serial = serial();
    quiet_injected_panics();
    let sv = scenario(0xC3);
    let qs = compiled_batch(&sv);
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let reference: Vec<Answer> = svc
        .answer_batch(id, &qs, Semantics::nulls())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    // raised before the call: refused at the door, every query gets the
    // typed cancel error and the rejected counter moves
    let cancel = Arc::new(AtomicBool::new(true));
    let opts = ServeOptions::new().with_cancel(cancel);
    for r in svc.answer_batch_with(id, &qs, Semantics::nulls(), &opts) {
        assert!(matches!(r, Err(ServeError::Cancelled { .. })));
    }
    assert!(svc.serving_stats(id).unwrap().rejected >= qs.len() as u64);

    // raised from another thread mid-flight: each query either finished
    // with the exact reference answer or was cancelled
    let cancel = Arc::new(AtomicBool::new(false));
    let opts = ServeOptions::new().with_cancel(cancel.clone());
    let flipper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_micros(150));
        cancel.store(true, Ordering::SeqCst);
    });
    let midway = svc.answer_batch_with(id, &qs, Semantics::nulls(), &opts);
    flipper.join().unwrap();
    for (i, r) in midway.into_iter().enumerate() {
        match r {
            Ok(ans) => assert_eq!(ans, reference[i], "query {i}"),
            Err(ServeError::Cancelled { .. }) => {}
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
    // the retry must reproduce the reference bytes exactly
    let retry: Vec<Answer> = svc
        .answer_batch(id, &qs, Semantics::nulls())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(retry, reference);

    // cold: the first tasks stall at the evaluation fault point past the
    // deadline, so the batch stops between its queries; a stopped batch
    // keeps no answer, so the retry misses on every query it stopped and
    // still returns the reference bytes
    let cold = MappingService::new();
    let cid = cold.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    cold.prepare(cid, Semantics::nulls()).unwrap();
    let plan = FaultPlan::seeded(0xC3)
        .panic_one_in(0)
        .delay_one_in(1)
        .delay(Duration::from_millis(20));
    let armed = faults::arm(plan);
    let opts = ServeOptions::new().with_deadline(Instant::now() + Duration::from_millis(5));
    let stopped = cold.answer_batch_with(cid, &qs, Semantics::nulls(), &opts);
    drop(armed);
    let mut expired = 0u64;
    for (i, r) in stopped.into_iter().enumerate() {
        match r {
            // a statically empty query is answered at the door
            Ok(ans) => assert_eq!(ans, reference[i], "cold query {i}"),
            Err(ServeError::DeadlineExceeded {
                completed_stripes,
                total_stripes,
            }) => {
                assert!(completed_stripes < total_stripes, "cold query {i}");
                expired += 1;
            }
            Err(e) => panic!("cold: unexpected serve error: {e}"),
        }
    }
    assert!(expired > 0, "the deadline stopped no query");
    let before = cold.serving_stats(cid).unwrap();
    let retry: Vec<Answer> = cold
        .answer_batch(cid, &qs, Semantics::nulls())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(retry, reference, "cold retry");
    let after = cold.serving_stats(cid).unwrap();
    assert!(
        after.tuple_evals - before.tuple_evals >= expired,
        "a stopped query's answer was kept"
    );
}

/// Deadline expiry — at the door and mid-serve — never leaves a stale
/// generation servable: the next unbounded serve is byte-identical.
#[test]
fn deadline_expiry_never_leaves_stale_answers() {
    let _serial = serial();
    quiet_injected_panics();
    let sv = scenario(0xD4);
    let q = sv.queries[0].1.compile();
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let reference = svc.answer(id, &q, Semantics::nulls()).unwrap();

    // already expired: refused at the door with zero completed tasks
    let opts = ServeOptions::new().with_deadline(Instant::now());
    match svc.answer_with(id, &q, Semantics::nulls(), &opts) {
        Err(ServeError::DeadlineExceeded {
            completed_stripes, ..
        }) => assert_eq!(completed_stripes, 0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(svc.serving_stats(id).unwrap().rejected >= 1);

    // a spread of horizons that may expire mid-serve: success must be
    // exact, expiry must be typed, and the follow-up unbounded serve must
    // always return the reference bytes
    for micros in [1u64, 50, 200, 1000] {
        let opts =
            ServeOptions::new().with_deadline(Instant::now() + Duration::from_micros(micros));
        match svc.answer_with(id, &q, Semantics::nulls(), &opts) {
            Ok(ans) => assert_eq!(ans, reference),
            Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(e) => panic!("unexpected serve error: {e}"),
        }
        assert_eq!(svc.answer(id, &q, Semantics::nulls()).unwrap(), reference);
    }
}

/// A cold serve whose deadline fires mid-evaluation caches no answer and
/// no verdict: the next unbounded serve misses and answers exactly, and a
/// repeat after it reads the whole answer or verdict back without
/// evaluating or inserting anything.
/// (`cancel_mid_batch_then_retry_is_byte_identical` cancels on a warm
/// cache, where every query is a hit, so it never reaches the first
/// path.)
#[test]
fn deadline_mid_evaluation_caches_no_run() {
    let _serial = serial();
    quiet_injected_panics();
    let sv = scenario(0xD5);
    // a tuple RPQ builds nothing in phase 1, so the serve's only cache
    // lookup is its answer's, and its evaluation sits behind the
    // evaluation fault site
    let q = sv
        .queries
        .iter()
        .find(|(_, q)| matches!(q, DataQuery::Rpq(_)))
        .expect("the social workload has an RPQ")
        .1
        .compile();
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    svc.prepare(id, Semantics::nulls()).unwrap();
    for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
        let reference = {
            let svc = MappingService::new();
            let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
            svc.answer(id, &q, sem).unwrap()
        };

        // every fault hit stalls far past the deadline, and none panics
        let plan = FaultPlan::seeded(0xD5)
            .panic_one_in(0)
            .delay_one_in(1)
            .delay(Duration::from_millis(400));
        let armed = faults::arm(plan);
        let opts = ServeOptions::new().with_deadline(Instant::now() + Duration::from_millis(50));
        match svc.answer_with(id, &q, sem, &opts) {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("{sem:?}: expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            faults::hits(FaultSite::StripeEval) >= 1,
            "{sem:?}: the serve never reached an evaluation"
        );
        drop(armed);

        let before = svc.serving_stats(id).unwrap();
        assert_eq!(svc.answer(id, &q, sem).unwrap(), reference, "{sem:?}");
        let after = svc.serving_stats(id).unwrap();
        assert!(
            after.cache_misses - before.cache_misses >= 1,
            "{sem:?}: an answer survived the fired deadline: {} misses",
            after.cache_misses - before.cache_misses
        );

        // a plan that neither panics nor stalls only counts the sites
        let counting = faults::arm(FaultPlan::seeded(0xD5).panic_one_in(0).delay_one_in(0));
        assert_eq!(svc.answer(id, &q, sem).unwrap(), reference, "{sem:?}");
        assert_eq!(faults::hits(FaultSite::StripeEval), 0, "{sem:?}");
        assert_eq!(
            faults::hits(FaultSite::CacheInsert),
            0,
            "{sem:?}: a warm serve inserted an answer"
        );
        assert_eq!(faults::hits(FaultSite::Answer), 1, "{sem:?}");
        drop(counting);
    }
}

/// A stop counts a serve's missed queries as its tasks: when every
/// evaluation of a cold batch stalls past the deadline, the warm query
/// still answers from the cache, and each missed query gets the same stop
/// error, none completed out of as many tasks as there were misses.
#[test]
fn a_stopped_batch_counts_its_missed_queries_as_tasks() {
    let _serial = serial();
    quiet_injected_panics();
    let sv = scenario(0xE6);
    let qs = compiled_batch(&sv);
    let reference: Vec<Answer> = {
        let svc = MappingService::new();
        let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
        svc.answer_batch(id, &qs, Semantics::nulls())
            .into_iter()
            .map(|r| r.unwrap())
            .collect()
    };
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    svc.prepare(id, Semantics::nulls()).unwrap();
    assert_eq!(
        svc.answer(id, &qs[0], Semantics::nulls()).unwrap(),
        reference[0]
    );
    let warmed = svc.serving_stats(id).unwrap();
    assert_eq!(
        (warmed.static_empty, warmed.tuple_evals),
        (0, 1),
        "the warm query must reach the cache"
    );

    let plan = FaultPlan::seeded(0xE6)
        .panic_one_in(0)
        .delay_one_in(1)
        .delay(Duration::from_millis(300));
    let armed = faults::arm(plan);
    let opts = ServeOptions::new().with_deadline(Instant::now() + Duration::from_millis(100));
    let stopped = svc.answer_batch_with(id, &qs, Semantics::nulls(), &opts);
    drop(armed);
    assert!(stopped[0].is_ok(), "the warm query was evaluated");
    let mut stops = Vec::new();
    for (i, r) in stopped.into_iter().enumerate() {
        match r {
            // a hit, or a statically empty query answered at the door
            Ok(ans) => assert_eq!(ans, reference[i], "query {i}"),
            Err(ServeError::DeadlineExceeded {
                completed_stripes,
                total_stripes,
            }) => stops.push((completed_stripes, total_stripes)),
            Err(e) => panic!("query {i}: unexpected serve error: {e}"),
        }
    }
    let misses = stops.len();
    assert!(misses > 1, "the batch missed {misses} queries");
    assert!(stops.iter().all(|&s| s == (0, misses)), "{stops:?}");
    let retry: Vec<Answer> = svc
        .answer_batch(id, &qs, Semantics::nulls())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(retry, reference);
}

/// A warm repeat is one cache hit per query on the serving thread:
/// repeating a tuple batch and a Boolean batch misses nothing, builds no
/// phase-1 state, evaluates nothing and inserts nothing, and every answer
/// still passes the answer fault point.
#[test]
fn warm_repeats_are_one_hit_per_query() {
    let _serial = serial();
    quiet_injected_panics();
    let sv = scenario(0xB7);
    let qs = compiled_batch(&sv);
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
        let cold = svc.answer_batch(id, &qs, sem);
        assert!(cold.iter().all(Result::is_ok), "{sem:?}");
        let before = svc.serving_stats(id).unwrap();
        let counting = faults::arm(FaultPlan::seeded(0xB7).panic_one_in(0).delay_one_in(0));
        let warm = svc.answer_batch(id, &qs, sem);
        let [evals, inserts, answers] = [
            FaultSite::StripeEval,
            FaultSite::CacheInsert,
            FaultSite::Answer,
        ]
        .map(faults::hits);
        drop(counting);
        let after = svc.serving_stats(id).unwrap();
        assert_eq!(warm, cold, "{sem:?}");
        // statically empty queries are answered at the door, before
        // any lookup
        let looked_up = (qs.len() as u64) - (after.static_empty - before.static_empty);
        assert!(looked_up > 0, "{sem:?}");
        let hits = after.cache_hits - before.cache_hits;
        assert_eq!(hits, looked_up, "{sem:?}: one hit per query");
        assert_eq!(after.cache_misses, before.cache_misses, "{sem:?}");
        assert_eq!(after.memo_build_ns, before.memo_build_ns, "{sem:?}");
        let evaluated = |s: &ServingStats| (s.tuple_evals, s.boolean_evals, s.eval_ns);
        assert_eq!(evaluated(&after), evaluated(&before), "{sem:?}");
        assert_eq!((evals, inserts), (0, 0), "{sem:?}");
        assert_eq!(answers, looked_up, "{sem:?}");
    }
}

/// The byte ledger degrades rather than refuses: under a budget no cache
/// entry fits, every sub-relation cache insert is declined, the serve
/// still answers exactly, and the degraded counter moves.
#[test]
fn over_budget_serve_degrades_to_uncached_and_stays_exact() {
    let _serial = serial();
    quiet_injected_panics();
    let sv = scenario(0xE5);
    let q = sv.queries[0].1.compile();
    let svc = MappingService::new();
    let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let reference = svc.answer(id, &q, Semantics::nulls()).unwrap();
    assert_eq!(svc.serving_stats(id).unwrap().degraded, 0);

    // a budget no sub-relation cache can fit under
    svc.set_cache_budget(1);
    assert_eq!(svc.answer(id, &q, Semantics::nulls()).unwrap(), reference);
    assert!(svc.serving_stats(id).unwrap().degraded >= 1);

    // back to unlimited: serving recovers the cached path
    svc.set_cache_budget(0);
    assert_eq!(svc.answer(id, &q, Semantics::nulls()).unwrap(), reference);
}
