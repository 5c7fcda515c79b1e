//! Seeded fault soak under concurrent socket traffic.
//!
//! The engine's injection sites ([`gde_core::faults`]) fire while real
//! clients hammer the server over TCP. The invariants, per seed:
//!
//! * the process never aborts — a panicking serving task is contained by
//!   the engine and surfaces as a typed 503 (`worker-panicked`), never as a
//!   dead worker or a torn response;
//! * every successful response is **byte-identical** to the fault-free
//!   reference;
//! * after disarming, a quiescent sweep returns the exact reference bytes
//!   and the tenant's cache charge settles: a budget squeeze evicts every
//!   resident byte (a quarantine that leaked a phantom charge would leave
//!   an unevictable residue), and a re-warmed sweep lands exactly on the
//!   baseline. Concurrent serving may legitimately leave extra resident
//!   sub-relation entries behind, so the squeeze canonicalises the state
//!   before the strict-equality check.
//!
//! The fault plan and panic hook are process-global, so tests in this
//! binary serialise on one mutex (same pattern as the engine's own
//! `fault_injection` suite).

use gde_core::faults::{self, FaultPlan, FaultSite};
use gde_dataquery::parser::{display_ree, display_rem};
use gde_dataquery::DataQuery;
use gde_server::json::Json;
use gde_server::protocol::graph_to_json;
use gde_server::{Client, ServerConfig, ServerHandle};
use gde_workload::{social_serving_scenario, ServingScenario, SocialConfig};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::time::Duration;

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

fn scenario() -> ServingScenario {
    social_serving_scenario(&SocialConfig {
        persons: 12,
        knows_per_person: 3,
        posts: 8,
        cities: 3,
        seed: 0x50AC,
    })
}

/// The scenario queries expressible as wire text (kind, text).
fn wire_queries(sv: &ServingScenario) -> Vec<(String, String)> {
    let ta = sv.scenario.gsm.target_alphabet();
    sv.queries
        .iter()
        .filter_map(|(_, q)| match q {
            DataQuery::Rpq(r) => Some(("rpq".to_string(), r.display(ta))),
            DataQuery::Ree(e) => Some(("ree".to_string(), display_ree(e, ta))),
            DataQuery::Rem(m) => Some(("rem".to_string(), display_rem(m, ta))),
            _ => None,
        })
        .take(6)
        .collect()
}

fn upload(c: &mut Client, sv: &ServingScenario) {
    assert_eq!(c.put("/tenants/soak", &Json::obj([])).unwrap().status, 201);
    let gsm = &sv.scenario.gsm;
    let (sa, ta) = (gsm.source_alphabet(), gsm.target_alphabet());
    let rules: Vec<Json> = gsm
        .rules()
        .iter()
        .map(|r| {
            Json::obj([
                ("source", Json::Str(r.source.display(sa))),
                ("target", Json::Str(r.target.display(ta))),
            ])
        })
        .collect();
    let body = Json::obj([
        ("name", Json::str("social")),
        ("source", graph_to_json(&sv.scenario.source)),
        ("rules", Json::Arr(rules)),
    ]);
    let r = c.post("/tenants/soak/mappings", &body).unwrap();
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.raw_body));
}

fn query_body(kind: &str, text: &str) -> Json {
    Json::obj([("query", Json::str(text)), ("kind", Json::str(kind))])
}

/// The tenant's resident cache bytes as reported over the wire.
fn tenant_cached_bytes(c: &mut Client) -> u64 {
    let r = c.get("/tenants/soak/stats").unwrap();
    assert_eq!(r.status, 200);
    r.json()
        .unwrap()
        .get("service")
        .and_then(|s| s.get("cached_bytes"))
        .and_then(Json::as_u64)
        .expect("stats carry cached_bytes")
}

/// Squeeze the tenant's budget to a single byte (evicting everything
/// resident), then restore it. Returns the bytes still charged at the
/// bottom of the squeeze — nonzero means a phantom charge survived
/// eviction, i.e. a quarantine leaked accounting without an entry.
fn squeeze_cache(c: &mut Client) -> u64 {
    let put = |c: &mut Client, budget: f64| {
        let body = Json::obj([("cache_budget_bytes", Json::num(budget))]);
        assert_eq!(c.put("/tenants/soak", &body).unwrap().status, 200);
    };
    put(c, 1.0);
    let residue = tenant_cached_bytes(c);
    put(c, ServerConfig::default().default_cache_budget as f64);
    residue
}

#[test]
fn socket_soak_under_injected_faults_never_aborts_and_settles() {
    let _serial = serial();
    quiet_injected_panics();
    let sv = scenario();
    let queries = wire_queries(&sv);
    assert!(queries.len() >= 5);

    let handle: ServerHandle = gde_server::start(ServerConfig {
        workers: 6,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();
    let mut main = Client::connect(addr).unwrap();
    upload(&mut main, &sv);

    // fault-free reference bytes + settled cache baseline
    let reference: Arc<Vec<String>> = Arc::new(
        queries
            .iter()
            .map(|(kind, text)| {
                let r = main
                    .post(
                        "/tenants/soak/mappings/social/query",
                        &query_body(kind, text),
                    )
                    .unwrap();
                assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.raw_body));
                String::from_utf8_lossy(&r.raw_body).to_string()
            })
            .collect(),
    );
    let baseline_bytes = tenant_cached_bytes(&mut main);
    assert!(baseline_bytes > 0, "reference sweep warms the caches");
    assert_eq!(squeeze_cache(&mut main), 0, "cold cache must evict clean");
    for (kind, text) in &queries {
        let r = main
            .post(
                "/tenants/soak/mappings/social/query",
                &query_body(kind, text),
            )
            .unwrap();
        assert_eq!(r.status, 200);
    }
    assert_eq!(
        tenant_cached_bytes(&mut main),
        baseline_bytes,
        "re-warming from empty reproduces the baseline charge"
    );

    let queries = Arc::new(queries);
    let mut contained = 0u64;
    let mut total_hits = 0u64;
    for seed in 0..32u64 {
        let armed = faults::arm(FaultPlan::seeded(seed).delay(Duration::from_micros(20)));
        // three concurrent clients sweep the queries while faults fire
        let workers: Vec<_> = (0..3)
            .map(|ti| {
                let queries = Arc::clone(&queries);
                let reference = Arc::clone(&reference);
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let mut contained = 0u64;
                    for pass in 0..2usize {
                        for (qi, (kind, text)) in queries.iter().enumerate() {
                            let r = c
                                .post(
                                    "/tenants/soak/mappings/social/query",
                                    &query_body(kind, text),
                                )
                                .unwrap();
                            match r.status {
                                200 => assert_eq!(
                                    String::from_utf8_lossy(&r.raw_body),
                                    reference[qi].as_str(),
                                    "client {ti} pass {pass} query {qi}"
                                ),
                                503 => {
                                    assert_eq!(
                                        r.error_code().as_deref(),
                                        Some("worker-panicked"),
                                        "5xx must be the typed containment error"
                                    );
                                    contained += 1;
                                }
                                other => panic!(
                                    "client {ti} query {qi}: unexpected status {other}: {}",
                                    String::from_utf8_lossy(&r.raw_body)
                                ),
                            }
                        }
                    }
                    contained
                })
            })
            .collect();
        for w in workers {
            contained += w.join().expect("soak client must not panic");
        }
        total_hits += FaultSite::ALL.iter().map(|&s| faults::hits(s)).sum::<u64>();
        drop(armed);

        // disarmed: no phantom charge survives eviction, and a re-warmed
        // quiescent sweep is byte-identical with exactly the baseline charge
        assert_eq!(
            squeeze_cache(&mut main),
            0,
            "seed {seed}: a quarantine leaked an unevictable cache charge"
        );
        for (qi, (kind, text)) in queries.iter().enumerate() {
            let r = main
                .post(
                    "/tenants/soak/mappings/social/query",
                    &query_body(kind, text),
                )
                .unwrap();
            assert_eq!(r.status, 200, "seed {seed} recovery query {qi}");
            assert_eq!(
                String::from_utf8_lossy(&r.raw_body),
                reference[qi].as_str(),
                "seed {seed}: recovery bytes for query {qi}"
            );
        }
        assert_eq!(
            tenant_cached_bytes(&mut main),
            baseline_bytes,
            "seed {seed}: cache charge must settle to the baseline"
        );
    }
    assert!(total_hits > 0, "injection points were never exercised");

    // the server's own accounting: engine containment (typed 503s) is NOT
    // a handler panic — catch_unwind never fired
    assert_eq!(
        handle.state().contained_panics.load(Ordering::Relaxed),
        0,
        "faults must be contained by the engine, not the transport backstop"
    );
    let http_5xx = handle.state().http_5xx.load(Ordering::Relaxed);
    assert_eq!(http_5xx, contained, "every 5xx is an accounted containment");

    // the tenant's serving stats saw the panics and retries (if any fired
    // — containment shows up as worker_panics whenever contained > 0)
    let r = main.get("/tenants/soak/stats").unwrap();
    let j = r.json().unwrap();
    let worker_panics = j
        .get("serving")
        .and_then(|s| s.get("worker_panics"))
        .and_then(Json::as_u64)
        .unwrap();
    if contained > 0 {
        assert!(worker_panics > 0, "containment must be visible in stats");
    }
}
