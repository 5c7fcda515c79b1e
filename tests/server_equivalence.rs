//! Wire equivalence: every answer served over a real socket is
//! **byte-identical** to the in-process engine's answer for the same
//! query — across Semantics × Mode, ad-hoc and bound-template serving,
//! and under churn deltas applied mid-traffic.
//!
//! The comparison works because both sides share one deterministic
//! encoder ([`gde_server::protocol::encode_answer`]): the mirror encodes
//! the engine's `Answer` locally and the test compares it to the exact
//! bytes the server put on the wire ([`gde_server::Response::raw_body`]).
//! When the engine refuses a query (e.g. exact semantics on a query
//! outside the tractable class), the wire must carry the matching typed
//! error instead.

use gde_core::engine::TemplateId;
use gde_core::{Answer, MappingId, MappingService, Semantics, ServeError};
use gde_datagraph::Alphabet;
use gde_dataquery::parser::{display_ree, display_rem};
use gde_dataquery::{canonicalize, DataQuery};
use gde_server::json::Json;
use gde_server::protocol::{delta_to_json, encode_answer, graph_to_json, ApiError};
use gde_server::{Client, ServerConfig, ServerHandle};
use gde_workload::{
    merge_bound_queries, sharded_serving_scenario, social_churn_deltas, social_serving_scenario,
    ServingScenario, SocialConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn small_cfg(seed: u64) -> SocialConfig {
    SocialConfig {
        persons: 14,
        knows_per_person: 3,
        posts: 10,
        cities: 3,
        seed,
    }
}

/// The six Semantics × Mode combinations, as wire strings and engine
/// values.
fn semantics_grid() -> Vec<(&'static str, &'static str, Semantics)> {
    use gde_core::engine::Mode;
    use gde_core::ExactOptions;
    vec![
        ("nulls", "tuples", Semantics::Nulls(Mode::Tuples)),
        ("nulls", "boolean", Semantics::Nulls(Mode::Boolean)),
        (
            "least-informative",
            "tuples",
            Semantics::LeastInformative(Mode::Tuples),
        ),
        (
            "least-informative",
            "boolean",
            Semantics::LeastInformative(Mode::Boolean),
        ),
        (
            "exact",
            "tuples",
            Semantics::Exact(Mode::Tuples, ExactOptions::default()),
        ),
        (
            "exact",
            "boolean",
            Semantics::Exact(Mode::Boolean, ExactOptions::default()),
        ),
    ]
}

/// Render a scenario query as wire text. Conjunctive queries have no text
/// syntax and are not expressible over this protocol — they are skipped.
fn wire_query(q: &DataQuery, ta: &Alphabet) -> Option<(&'static str, String)> {
    match q {
        DataQuery::Rpq(r) => Some(("rpq", r.display(ta))),
        DataQuery::Ree(e) => Some(("ree", display_ree(e, ta))),
        DataQuery::Rem(m) => Some(("rem", display_rem(m, ta))),
        _ => None,
    }
}

/// The queries of a scenario that can travel over the wire, with their
/// kinds and texts.
fn expressible(sv: &ServingScenario) -> Vec<(&'static str, String, DataQuery)> {
    let ta = sv.scenario.gsm.target_alphabet();
    sv.queries
        .iter()
        .filter_map(|(_, q)| wire_query(q, ta).map(|(kind, text)| (kind, text, q.clone())))
        .collect()
}

/// Start a server, create a tenant and upload the scenario's mapping
/// (graph + rules as text) under `name`.
fn serve_scenario(sv: &ServingScenario, tenant: &str, name: &str, workers: usize) -> ServerHandle {
    let handle = gde_server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr()).unwrap();
    let r = c
        .put(&format!("/tenants/{tenant}"), &Json::obj([]))
        .unwrap();
    assert_eq!(r.status, 201, "tenant creation");
    upload_mapping(&mut c, sv, tenant, name);
    handle
}

fn upload_mapping(c: &mut Client, sv: &ServingScenario, tenant: &str, name: &str) {
    let gsm = &sv.scenario.gsm;
    let sa = gsm.source_alphabet();
    let ta = gsm.target_alphabet();
    let target_labels: Vec<Json> = ta.labels().map(|l| Json::str(ta.name(l))).collect();
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
        ("name", Json::str(name)),
        ("source", graph_to_json(&sv.scenario.source)),
        ("rules", Json::Arr(rules)),
        ("target_labels", Json::Arr(target_labels)),
    ]);
    let r = c
        .post(&format!("/tenants/{tenant}/mappings"), &body)
        .unwrap();
    assert_eq!(
        r.status,
        201,
        "mapping upload: {}",
        String::from_utf8_lossy(&r.raw_body)
    );
}

/// What the wire must carry for an in-process result: the exact answer
/// bytes on success, or the mapped (status, code) on a typed refusal.
enum Expected {
    Bytes(String),
    Error(u16, String),
}

fn expected(result: Result<Answer, ServeError>) -> Expected {
    match result {
        Ok(a) => Expected::Bytes(encode_answer(&a).encode()),
        Err(e) => {
            let ae = ApiError::from_serve_error(&e);
            Expected::Error(ae.status, ae.code.to_string())
        }
    }
}

fn assert_matches_wire(exp: &Expected, r: &gde_server::Response, ctx: &str) {
    match exp {
        Expected::Bytes(bytes) => {
            assert_eq!(
                r.status,
                200,
                "{ctx}: {}",
                String::from_utf8_lossy(&r.raw_body)
            );
            assert_eq!(
                String::from_utf8_lossy(&r.raw_body),
                bytes.as_str(),
                "{ctx}: wire bytes differ from in-process answer"
            );
        }
        Expected::Error(status, code) => {
            assert_eq!(r.status, *status, "{ctx}: status");
            assert_eq!(
                r.error_code().as_deref(),
                Some(code.as_str()),
                "{ctx}: code"
            );
        }
    }
}

#[test]
fn wire_answers_match_in_process_across_semantics_and_modes() {
    let sv = social_serving_scenario(&small_cfg(0xA1));
    let queries = expressible(&sv);
    assert!(queries.len() >= 8, "scenario expresses most queries");

    let handle = serve_scenario(&sv, "acme", "social", 4);
    let mut c = Client::connect(handle.addr()).unwrap();

    let mirror = MappingService::new();
    let mid = mirror.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());

    for (kind, text, q) in &queries {
        let compiled = q.compile();
        for (sem_str, mode_str, sem) in semantics_grid() {
            let exp = expected(mirror.answer(mid, &compiled, sem));
            let body = Json::obj([
                ("query", Json::str(text)),
                ("kind", Json::str(kind)),
                ("semantics", Json::str(sem_str)),
                ("mode", Json::str(mode_str)),
            ]);
            // the first response renders a cached answer's body, the
            // second sends the text it kept: both are the in-process bytes
            for fetch in ["rendered", "kept"] {
                let r = c
                    .post("/tenants/acme/mappings/social/query", &body)
                    .unwrap();
                let ctx = format!("{fetch}: {sem_str}/{mode_str} {kind} {text}");
                assert_matches_wire(&exp, &r, &ctx);
            }
        }
    }
    assert_eq!(
        handle.state().http_5xx.load(Ordering::Relaxed),
        0,
        "no 5xx during equivalence sweep"
    );
}

#[test]
fn bound_template_answers_match_in_process() {
    let sv = social_serving_scenario(&small_cfg(0xB0));
    let queries = expressible(&sv);
    let handle = serve_scenario(&sv, "acme", "social", 4);
    let mut c = Client::connect(handle.addr()).unwrap();

    let mirror = MappingService::new();
    let mid = mirror.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let ta = sv.scenario.gsm.target_alphabet();

    for (kind, text, q) in &queries {
        // wire: register the template, read back id + canonical bindings
        let r = c
            .post(
                "/tenants/acme/mappings/social/templates",
                &Json::obj([("query", Json::str(text)), ("kind", Json::str(kind))]),
            )
            .unwrap();
        assert_eq!(r.status, 201, "template registration for {text}");
        let j = r.json().unwrap();
        let wire_id = j
            .get("template")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let wire_bindings: Vec<String> = j
            .get("bindings")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|b| b.as_str().unwrap().to_string())
            .collect();

        // mirror: same canonicalisation, in process
        let (skeleton, bindings) = canonicalize(q);
        let tid: TemplateId = mirror.register_template(mid, &skeleton).unwrap();
        assert_eq!(wire_id, format!("{:032x}", tid.skeleton_hash()));
        let names: Vec<String> = bindings
            .labels()
            .iter()
            .map(|l| ta.name(*l).to_string())
            .collect();
        assert_eq!(wire_bindings, names, "canonical binding order for {text}");

        for (sem_str, mode_str, sem) in semantics_grid() {
            let exp = expected(mirror.answer_bound(mid, tid, bindings.labels(), sem));
            let body = Json::obj([
                (
                    "bindings",
                    Json::Arr(wire_bindings.iter().map(Json::str).collect()),
                ),
                ("semantics", Json::str(sem_str)),
                ("mode", Json::str(mode_str)),
            ]);
            for fetch in ["rendered", "kept"] {
                let r = c
                    .post(
                        &format!("/tenants/acme/mappings/social/templates/{wire_id}/query"),
                        &body,
                    )
                    .unwrap();
                let ctx = format!("{fetch}: bound {sem_str}/{mode_str} {text}");
                assert_matches_wire(&exp, &r, &ctx);
            }
        }
    }

    // a bad arity must come back typed, not as a panic
    let (_, text, _) = &queries[0];
    let r = c
        .post(
            "/tenants/acme/mappings/social/templates",
            &Json::obj([("query", Json::str(text))]),
        )
        .unwrap();
    let wire_id = r
        .json()
        .unwrap()
        .get("template")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let r = c
        .post(
            &format!("/tenants/acme/mappings/social/templates/{wire_id}/query"),
            &Json::obj([(
                "bindings",
                Json::Arr(vec![
                    Json::str("contact"),
                    Json::str("contact"),
                    Json::str("contact"),
                    Json::str("contact"),
                    Json::str("contact"),
                    Json::str("contact"),
                    Json::str("contact"),
                ]),
            )]),
        )
        .unwrap();
    assert_eq!(r.status, 422);
    assert_eq!(r.error_code().as_deref(), Some("binding-arity"));
}

#[test]
fn churn_deltas_under_live_traffic_stay_equivalent() {
    let cfg = small_cfg(0xC4);
    let sv = social_serving_scenario(&cfg);
    let queries = expressible(&sv);
    let rounds = 4usize;
    let deltas = social_churn_deltas(&cfg, rounds, 5, 0xD1);
    assert_eq!(deltas.len(), rounds);

    // precompute the expected bytes for every (generation, query): a
    // response observed while a delta is in flight must equal one of the
    // generations' answers — never a torn in-between
    let mirror = MappingService::new();
    let mid: MappingId = mirror.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let compiled: Vec<_> = queries.iter().map(|(_, _, q)| q.compile()).collect();
    let mut by_generation: Vec<Vec<String>> = Vec::with_capacity(rounds + 1);
    let fingerprint = |svc: &MappingService, id| -> Vec<String> {
        compiled
            .iter()
            .map(|q| encode_answer(&svc.answer(id, q, Semantics::nulls()).unwrap()).encode())
            .collect()
    };
    by_generation.push(fingerprint(&mirror, mid));
    for d in &deltas {
        mirror.apply_delta(mid, d).unwrap();
        by_generation.push(fingerprint(&mirror, mid));
    }

    let handle = serve_scenario(&sv, "acme", "live", 8);

    // live traffic: three clients hammer the query endpoints while the
    // main thread applies churn deltas over the wire
    let stop = Arc::new(AtomicBool::new(false));
    let addr = handle.addr();
    let valid: Arc<Vec<Vec<String>>> = Arc::new(
        (0..queries.len())
            .map(|qi| by_generation.iter().map(|g| g[qi].clone()).collect())
            .collect(),
    );
    let texts: Arc<Vec<(String, String)>> = Arc::new(
        queries
            .iter()
            .map(|(k, t, _)| (k.to_string(), t.clone()))
            .collect(),
    );
    let traffic: Vec<_> = (0..3)
        .map(|ti| {
            let stop = Arc::clone(&stop);
            let valid = Arc::clone(&valid);
            let texts = Arc::clone(&texts);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut served = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let qi = (served + ti) % texts.len();
                    let (kind, text) = &texts[qi];
                    let body = Json::obj([("query", Json::str(text)), ("kind", Json::str(kind))]);
                    let r = c.post("/tenants/acme/mappings/live/query", &body).unwrap();
                    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.raw_body));
                    let got = String::from_utf8_lossy(&r.raw_body).to_string();
                    assert!(
                        valid[qi].contains(&got),
                        "mid-churn answer for query {qi} matches no generation: {got}"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();

    let mut c = Client::connect(addr).unwrap();
    for (round, d) in deltas.iter().enumerate() {
        let r = c
            .post("/tenants/acme/mappings/live/delta", &delta_to_json(d))
            .unwrap();
        assert_eq!(
            r.status,
            200,
            "delta round {round}: {}",
            String::from_utf8_lossy(&r.raw_body)
        );
        let gen = r.json().unwrap().get("generation").and_then(Json::as_u64);
        assert!(gen.is_some(), "delta reports its generation");
        // quiescent check: with the delta applied, every query must now be
        // byte-identical to the mirror at this generation
        for (qi, (kind, text, _)) in queries.iter().enumerate() {
            let body = Json::obj([("query", Json::str(text)), ("kind", Json::str(kind))]);
            let r = c.post("/tenants/acme/mappings/live/query", &body).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(
                String::from_utf8_lossy(&r.raw_body),
                by_generation[round + 1][qi].as_str(),
                "post-delta generation {} query {qi}",
                round + 1
            );
        }
    }

    stop.store(true, Ordering::Relaxed);
    let mut total = 0usize;
    for t in traffic {
        total += t.join().expect("traffic thread must not panic");
    }
    assert!(total > 0, "traffic actually ran mid-churn");
    assert_eq!(
        handle.state().http_5xx.load(Ordering::Relaxed),
        0,
        "no 5xx under churn"
    );
}

/// The answer body built from public `Json` constructors, independently
/// of the answer encoder the server uses.
fn pairs_body(a: &Answer) -> String {
    let pairs = match a {
        Answer::Tuples(gde_core::CertainAnswers::Pairs(pairs)) => pairs,
        other => panic!("expected a pair answer, got {other:?}"),
    };
    Json::obj([(
        "pairs",
        Json::Arr(
            pairs
                .iter()
                .map(|(u, v)| Json::Arr(vec![Json::num(u.0), Json::num(v.0)]))
                .collect(),
        ),
    )])
    .encode()
}

#[test]
fn multi_segment_answer_is_byte_identical_ad_hoc_and_bound() {
    // an answer of tens of thousands of pairs: its body spans many TCP
    // segments, as analytics-sized answers do
    let sv = sharded_serving_scenario(1024, 0x10AD);
    let mut ta = sv.scenario.gsm.target_alphabet().clone();
    let (_, q) = merge_bound_queries(&mut ta)
        .into_iter()
        .find(|(name, _)| name == "four-hop-contact")
        .expect("merge-bound batch has four-hop-contact");
    let (kind, text) = wire_query(&q, &ta).expect("an RPQ has wire text");

    let mirror = MappingService::new();
    let mid = mirror.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let answer = mirror
        .answer(mid, &q.compile(), Semantics::nulls())
        .unwrap();
    let expected = pairs_body(&answer);
    assert!(
        expected.len() > 64 * 1024,
        "answer spans many segments: {} bytes",
        expected.len()
    );

    let handle = serve_scenario(&sv, "acme", "big", 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let body = Json::obj([("query", Json::str(&text)), ("kind", Json::str(kind))]);
    let r = c.post("/tenants/acme/mappings/big/query", &body).unwrap();
    assert_eq!(r.status, 200);
    assert!(
        r.raw_body == expected.as_bytes(),
        "ad-hoc: wire body ({} bytes) differs from the expected {} bytes",
        r.raw_body.len(),
        expected.len()
    );

    let r = c
        .post("/tenants/acme/mappings/big/templates", &body)
        .unwrap();
    assert_eq!(r.status, 201);
    let j = r.json().unwrap();
    let wire_id = j
        .get("template")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let bindings = j.get("bindings").cloned().unwrap();
    let r = c
        .post(
            &format!("/tenants/acme/mappings/big/templates/{wire_id}/query"),
            &Json::obj([("bindings", bindings)]),
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert!(
        r.raw_body == expected.as_bytes(),
        "bound: wire body ({} bytes) differs from the expected {} bytes",
        r.raw_body.len(),
        expected.len()
    );
}

/// The tenant's charged bytes as its stats report them.
fn tenant_cached_bytes(c: &mut Client, tenant: &str) -> u64 {
    c.get(&format!("/tenants/{tenant}/stats"))
        .unwrap()
        .json()
        .unwrap()
        .get("service")
        .and_then(|s| s.get("cached_bytes"))
        .and_then(Json::as_u64)
        .expect("stats carry cached_bytes")
}

/// A tenant budget with room for an answer's pairs but not for its text,
/// sized on an in-process twin. Every repeat is rendered again,
/// byte-identical to an unbudgeted tenant's kept text; nothing is kept,
/// so the tenant's charge stays where the first serve left it, inside
/// the budget, while the unbudgeted tenant's is one text higher.
#[test]
fn a_budget_without_room_for_the_text_renders_every_repeat() {
    let sv = sharded_serving_scenario(1024, 0x10AD);
    let mut ta = sv.scenario.gsm.target_alphabet().clone();
    let (_, q) = merge_bound_queries(&mut ta)
        .into_iter()
        .find(|(name, _)| name == "four-hop-contact")
        .expect("merge-bound batch has four-hop-contact");
    let (kind, text) = wire_query(&q, &ta).expect("an RPQ has wire text");
    let twin = MappingService::new();
    let tid = twin.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    let answer = twin.answer(tid, &q.compile(), Semantics::nulls()).unwrap();
    let fill = twin.cached_bytes() as u64;
    let expected = encode_answer(&answer).encode();
    let text_len = expected.len() as u64;
    let budget = fill + text_len / 2;

    let handle = serve_scenario(&sv, "open", "m", 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let body = Json::obj([("cache_budget_bytes", Json::num(budget as f64))]);
    assert_eq!(c.put("/tenants/tight", &body).unwrap().status, 201);
    upload_mapping(&mut c, &sv, "tight", "m");
    let query = Json::obj([("query", Json::str(&text)), ("kind", Json::str(kind))]);
    let mut first = None;
    for fetch in 0..4 {
        let open = c.post("/tenants/open/mappings/m/query", &query).unwrap();
        let tight = c.post("/tenants/tight/mappings/m/query", &query).unwrap();
        assert_eq!((open.status, tight.status), (200, 200), "fetch {fetch}");
        assert!(open.raw_body == expected.as_bytes(), "fetch {fetch}: open");
        assert!(
            tight.raw_body == expected.as_bytes(),
            "fetch {fetch}: tight"
        );
        let cached = tenant_cached_bytes(&mut c, "tight");
        assert!(cached <= budget, "fetch {fetch}: {cached} B > {budget} B");
        assert!(cached + text_len > budget, "the text never fits");
        assert_eq!(*first.get_or_insert(cached), cached, "fetch {fetch} kept");
        assert_eq!(tenant_cached_bytes(&mut c, "open"), cached + text_len);
    }
}

/// A tenant budget between one solution's base bytes (plus twice its
/// snapshot) and the batch's full fill, sized on an in-process twin.
/// Every cache insert reserves against the tenant's one ledger, so the
/// tenant's stats report at most its budget after every batch, and its
/// answers stay byte-identical to an unbudgeted tenant's.
#[test]
fn a_tenant_budget_bounds_cached_bytes_after_every_batch() {
    let sv = sharded_serving_scenario(2048, 0x5AD5);
    let queries = expressible(&sv);
    let twin = MappingService::new();
    let tid = twin.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
    twin.prepare(tid, Semantics::nulls()).unwrap();
    let base = twin.cached_bytes();
    let snapshot = twin
        .solution(tid, Semantics::nulls())
        .unwrap()
        .snapshot()
        .approx_bytes();
    let compiled: Vec<_> = queries.iter().map(|(_, _, q)| q.compile()).collect();
    // the second, warm pass inserts nothing: the ledger reads the fill
    for _ in 0..2 {
        twin.answer_batch(tid, &compiled, Semantics::nulls());
    }
    let budget = base + 2 * snapshot;
    assert!(
        budget < twin.cached_bytes(),
        "the batch outgrows the budget"
    );

    let handle = serve_scenario(&sv, "open", "m", 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let body = Json::obj([("cache_budget_bytes", Json::num(budget as f64))]);
    assert_eq!(c.put("/tenants/tight", &body).unwrap().status, 201);
    upload_mapping(&mut c, &sv, "tight", "m");
    let batch = Json::obj([(
        "queries",
        Json::Arr(
            queries
                .iter()
                .map(|(kind, text, _)| {
                    Json::obj([("query", Json::str(text)), ("kind", Json::str(kind))])
                })
                .collect(),
        ),
    )]);
    for pass in 0..3 {
        let open = c.post("/tenants/open/mappings/m/batch", &batch).unwrap();
        let tight = c.post("/tenants/tight/mappings/m/batch", &batch).unwrap();
        assert_eq!(open.status, 200, "pass {pass}");
        assert!(
            tight.raw_body == open.raw_body,
            "pass {pass}: answers differ"
        );
        let stats = c.get("/tenants/tight/stats").unwrap().json().unwrap();
        let cached = stats
            .get("service")
            .and_then(|s| s.get("cached_bytes"))
            .and_then(Json::as_u64)
            .expect("stats carry cached_bytes");
        let reported = stats.get("cache_budget_bytes").and_then(Json::as_u64);
        assert_eq!(reported, Some(budget as u64));
        assert!(
            cached <= budget as u64,
            "pass {pass}: {cached} B > {budget} B"
        );
    }
    let stats = c.get("/tenants/tight/stats").unwrap().json().unwrap();
    let degraded = stats
        .get("serving")
        .and_then(|s| s.get("degraded"))
        .and_then(Json::as_u64);
    assert!(degraded > Some(0), "no insert found the budget full");
}
