//! Request handlers: the thin, transport-independent layer between the
//! wire protocol and the engine.
//!
//! Every route is a small function from [`ApiRequest`] to
//! [`ApiResponse`]; [`handle`] is the dispatcher. Nothing here knows
//! about sockets or HTTP framing — a binary protocol would reuse this
//! module unchanged. This file is gated by the xtask serve-path lint
//! (no bare `unwrap`, `expect` messages must state invariants, locks go
//! through the recover helpers): a handler runs inside a worker that
//! must never die on hostile input or a poisoned lock.
//!
//! Route table (all bodies JSON):
//!
//! | method + path                                           | action |
//! |---------------------------------------------------------|--------|
//! | `GET /healthz`                                          | liveness |
//! | `GET /stats`                                            | server-wide counters |
//! | `PUT /tenants/{t}`                                      | create/reconfigure tenant |
//! | `GET /tenants/{t}/stats`                                | per-tenant aggregate stats |
//! | `POST /tenants/{t}/mappings`                            | register mapping (graph + rules) |
//! | `GET /tenants/{t}/mappings/{m}/stats`                   | per-mapping serving stats |
//! | `POST /tenants/{t}/mappings/{m}/shards`                 | accepted and ignored (`n` or `"auto"`): `{"shards":1}` |
//! | `POST /tenants/{t}/mappings/{m}/query`                  | answer one query |
//! | `POST /tenants/{t}/mappings/{m}/batch`                  | answer a query batch |
//! | `POST /tenants/{t}/mappings/{m}/templates`              | register a prepared template |
//! | `POST /tenants/{t}/mappings/{m}/templates/{id}/query`   | answer a bound template |
//! | `POST /tenants/{t}/mappings/{m}/delta`                  | apply a source delta |

use crate::json::Json;
use crate::protocol::{
    delta_from_json, encode_answer, graph_from_json, parse_query, parse_semantics, stats_to_json,
    ApiError, ApiRequest, ApiResponse,
};
use crate::tenant::{MappingHandle, ServerState};
use gde_core::engine::ServeOptions;
use gde_core::Gsm;
use gde_datagraph::par::lock_recover;
use gde_datagraph::{Alphabet, Label};
use gde_dataquery::canonicalize;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Dispatch one request. Infallible by construction: every failure is a
/// typed [`ApiError`] rendered as an error response.
pub fn handle(state: &ServerState, req: &ApiRequest) -> ApiResponse {
    match route(state, req) {
        Ok(resp) => resp,
        Err(e) => ApiResponse::error(&e),
    }
}

fn route(state: &ServerState, req: &ApiRequest) -> Result<ApiResponse, ApiError> {
    let seg: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    match (req.method.as_str(), seg.as_slice()) {
        ("GET", ["healthz"]) => Ok(ApiResponse::ok(Json::obj([("ok", Json::Bool(true))]))),
        ("GET", ["stats"]) => Ok(server_stats(state)),
        ("PUT", ["tenants", t]) => create_tenant(state, t, &req.body),
        ("GET", ["tenants", t, "stats"]) => tenant_stats(state, t),
        ("POST", ["tenants", t, "mappings"]) => register_mapping(state, t, &req.body),
        ("GET", ["tenants", t, "mappings", m, "stats"]) => mapping_stats(state, t, m),
        ("POST", ["tenants", t, "mappings", m, "shards"]) => set_shards(state, t, m, &req.body),
        ("POST", ["tenants", t, "mappings", m, "query"]) => query(state, t, m, &req.body),
        ("POST", ["tenants", t, "mappings", m, "batch"]) => batch(state, t, m, &req.body),
        ("POST", ["tenants", t, "mappings", m, "templates"]) => {
            register_template(state, t, m, &req.body)
        }
        ("POST", ["tenants", t, "mappings", m, "templates", tpl, "query"]) => {
            query_bound(state, t, m, tpl, &req.body)
        }
        ("POST", ["tenants", t, "mappings", m, "delta"]) => delta(state, t, m, &req.body),
        _ => Err(ApiError::not_found(
            "unknown-route",
            format!("no route for {} /{}", req.method, req.segments.join("/")),
        )),
    }
}

fn server_stats(state: &ServerState) -> ApiResponse {
    ApiResponse::ok(Json::obj([
        (
            "tenants",
            Json::Arr(state.tenant_names().into_iter().map(Json::Str).collect()),
        ),
        (
            "requests",
            Json::num(state.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "http_4xx",
            Json::num(state.http_4xx.load(Ordering::Relaxed) as f64),
        ),
        (
            "http_5xx",
            Json::num(state.http_5xx.load(Ordering::Relaxed) as f64),
        ),
        (
            "connections",
            Json::num(state.connections.load(Ordering::Relaxed) as f64),
        ),
        (
            "contained_panics",
            Json::num(state.contained_panics.load(Ordering::Relaxed) as f64),
        ),
    ]))
}

fn create_tenant(state: &ServerState, name: &str, body: &Json) -> Result<ApiResponse, ApiError> {
    let budget = body
        .get("cache_budget_bytes")
        .map(|v| {
            v.as_u64()
                .map(|b| b as usize)
                .ok_or_else(|| ApiError::bad_request("malformed-request", "bad cache budget"))
        })
        .transpose()?;
    let max_inflight = body
        .get("max_inflight")
        .map(|v| {
            v.as_u64()
                .map(|b| b as usize)
                .ok_or_else(|| ApiError::bad_request("malformed-request", "bad in-flight cap"))
        })
        .transpose()?;
    let (tenant, created) = state.create_tenant(name, budget, max_inflight);
    Ok(ApiResponse {
        status: if created { 201 } else { 200 },
        body: Json::obj([
            ("tenant", Json::str(name)),
            ("created", Json::Bool(created)),
            (
                "cache_budget_bytes",
                Json::num(tenant.svc.cache_budget() as f64),
            ),
        ]),
    })
}

fn tenant_stats(state: &ServerState, name: &str) -> Result<ApiResponse, ApiError> {
    let tenant = state.tenant(name)?;
    let service = tenant.svc.stats();
    Ok(ApiResponse::ok(Json::obj([
        ("tenant", Json::str(name)),
        (
            "mappings",
            Json::Arr(tenant.mapping_names().into_iter().map(Json::Str).collect()),
        ),
        ("serving", stats_to_json(&tenant.aggregate_stats())),
        (
            "service",
            Json::obj([
                ("mappings", Json::num(service.mappings as f64)),
                (
                    "cached_solutions",
                    Json::num(service.cached_solutions as f64),
                ),
                ("cached_bytes", Json::num(service.cached_bytes as f64)),
                ("evictions", Json::num(service.evictions as f64)),
                ("patched_deltas", Json::num(service.patched_deltas as f64)),
                (
                    "invalidating_deltas",
                    Json::num(service.invalidating_deltas as f64),
                ),
            ]),
        ),
        (
            "cache_budget_bytes",
            Json::num(tenant.svc.cache_budget() as f64),
        ),
        (
            "door_rejected",
            Json::num(tenant.door_rejected.load(Ordering::Relaxed) as f64),
        ),
    ])))
}

fn register_mapping(state: &ServerState, t: &str, body: &Json) -> Result<ApiResponse, ApiError> {
    let tenant = state.tenant(t)?;
    let name = body
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("malformed-request", "missing \"name\""))?;
    let source = graph_from_json(
        body.get("source")
            .ok_or_else(|| ApiError::bad_request("malformed-request", "missing \"source\""))?,
    )?;
    let rules = body
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad_request("malformed-request", "missing \"rules\" array"))?;
    if let Some(shards) = body.get("shards") {
        check_shards(shards)?;
    }
    // the rule source sides extend the graph's own alphabet (shared label
    // indices); the target sides build the target alphabet, optionally
    // pre-seeded so label order is caller-controlled
    let mut sa = source.alphabet().clone();
    let mut ta = Alphabet::new();
    if let Some(labels) = body.get("target_labels").and_then(Json::as_arr) {
        for l in labels {
            let name = l.as_str().ok_or_else(|| {
                ApiError::bad_request("malformed-request", "target label must be a string")
            })?;
            ta.intern(name);
        }
    }
    let mut parsed = Vec::with_capacity(rules.len());
    for r in rules {
        let src_text = r
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("malformed-request", "rule without source"))?;
        let tgt_text = r
            .get("target")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("malformed-request", "rule without target"))?;
        let src = gde_automata::parse_regex(src_text, &mut sa)
            .map_err(|e| ApiError::unprocessable("parse-error", format!("rule source: {e}")))?;
        let tgt = gde_automata::parse_regex(tgt_text, &mut ta)
            .map_err(|e| ApiError::unprocessable("parse-error", format!("rule target: {e}")))?;
        parsed.push((src, tgt));
    }
    let mut gsm = Gsm::new(sa, ta.clone());
    for (src, tgt) in parsed {
        gsm.add_rule(src, tgt);
    }
    let id = tenant.svc.register(Arc::new(gsm), Arc::new(source));
    tenant
        .svc
        .set_tenant_label(id, &tenant.name)
        .map_err(|e| ApiError::from_serve_error(&e))?;
    tenant.insert_mapping(
        name,
        MappingHandle {
            id,
            alphabet: Mutex::new(ta),
            templates: Mutex::new(Default::default()),
        },
    )?;
    Ok(ApiResponse {
        status: 201,
        body: Json::obj([
            ("mapping", Json::str(name)),
            ("id", Json::num(id.raw() as f64)),
        ]),
    })
}

/// Validate a `shards` value: a count or `"auto"`. The value is accepted
/// and ignored — every query evaluates as one task over the whole
/// solution — and kept on the wire only for clients that still send it.
fn check_shards(j: &Json) -> Result<(), ApiError> {
    if j.as_str() == Some("auto") || j.as_u64().is_some() {
        return Ok(());
    }
    Err(ApiError::bad_request(
        "malformed-request",
        "\"shards\" must be a count or \"auto\"",
    ))
}

fn set_shards(state: &ServerState, t: &str, m: &str, body: &Json) -> Result<ApiResponse, ApiError> {
    state.tenant(t)?.mapping(m)?;
    check_shards(
        body.get("shards")
            .ok_or_else(|| ApiError::bad_request("malformed-request", "missing \"shards\""))?,
    )?;
    Ok(ApiResponse::ok(Json::obj([("shards", Json::num(1.0))])))
}

fn mapping_stats(state: &ServerState, t: &str, m: &str) -> Result<ApiResponse, ApiError> {
    let tenant = state.tenant(t)?;
    let handle = tenant.mapping(m)?;
    let stats = tenant.svc.serving_stats(handle.id).ok_or_else(|| {
        ApiError::not_found(
            "unknown-mapping",
            "mapping dropped between lookup and stats",
        )
    })?;
    Ok(ApiResponse::ok(stats_to_json(&stats)))
}

/// The per-call [`ServeOptions`]: a request `deadline_ms` wins over the
/// server default; no deadline anywhere means an unbounded serve.
fn serve_options(state: &ServerState, body: &Json) -> Result<ServeOptions, ApiError> {
    let mut opts = ServeOptions::new();
    let deadline = match body.get("deadline_ms") {
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
            ApiError::bad_request("malformed-request", "bad deadline_ms")
        })?)),
        None => state.config.default_deadline,
    };
    if let Some(d) = deadline {
        opts = opts.with_deadline(Instant::now() + d);
    }
    Ok(opts)
}

fn query(state: &ServerState, t: &str, m: &str, body: &Json) -> Result<ApiResponse, ApiError> {
    let tenant = state.tenant(t)?;
    let _slot = tenant.admit()?;
    let handle = tenant.mapping(m)?;
    let sem = parse_semantics(body)?;
    let opts = serve_options(state, body)?;
    let compiled = {
        let mut alphabet = lock_recover(&handle.alphabet);
        parse_query(body, &mut alphabet)?.compile()
    };
    let answer = tenant
        .svc
        .answer_with(handle.id, &compiled, sem, &opts)
        .map_err(|e| ApiError::from_serve_error(&e))?;
    Ok(ApiResponse::ok(encode_answer(&answer)))
}

fn batch(state: &ServerState, t: &str, m: &str, body: &Json) -> Result<ApiResponse, ApiError> {
    let tenant = state.tenant(t)?;
    let _slot = tenant.admit()?;
    let handle = tenant.mapping(m)?;
    let sem = parse_semantics(body)?;
    let opts = serve_options(state, body)?;
    let items = body
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad_request("malformed-request", "missing \"queries\" array"))?;
    let compiled = {
        let mut alphabet = lock_recover(&handle.alphabet);
        items
            .iter()
            .map(|item| parse_query(item, &mut alphabet).map(|q| q.compile()))
            .collect::<Result<Vec<_>, _>>()?
    };
    let results = tenant
        .svc
        .answer_batch_with(handle.id, &compiled, sem, &opts);
    Ok(ApiResponse::ok(Json::obj([(
        "answers",
        Json::Arr(
            results
                .iter()
                .map(|r| match r {
                    Ok(a) => encode_answer(a),
                    Err(e) => ApiError::from_serve_error(e).to_json(),
                })
                .collect(),
        ),
    )])))
}

fn register_template(
    state: &ServerState,
    t: &str,
    m: &str,
    body: &Json,
) -> Result<ApiResponse, ApiError> {
    let tenant = state.tenant(t)?;
    let handle = tenant.mapping(m)?;
    let (skeleton, bindings, binding_names) = {
        let mut alphabet = lock_recover(&handle.alphabet);
        let q = parse_query(body, &mut alphabet)?;
        let (skeleton, bindings) = canonicalize(&q);
        let names: Vec<String> = bindings
            .labels()
            .iter()
            .map(|l| alphabet.name(*l).to_string())
            .collect();
        (skeleton, bindings, names)
    };
    let tid = tenant
        .svc
        .register_template(handle.id, &skeleton)
        .map_err(|e| ApiError::from_serve_error(&e))?;
    let wire_id = format!("{:032x}", tid.skeleton_hash());
    lock_recover(&handle.templates)
        .entry(wire_id.clone())
        .or_insert((tid, skeleton.slots()));
    Ok(ApiResponse {
        status: 201,
        body: Json::obj([
            ("template", Json::Str(wire_id)),
            ("slots", Json::num(skeleton.slots() as f64)),
            (
                "bindings",
                Json::Arr(binding_names.into_iter().map(Json::Str).collect()),
            ),
            ("canonical_slots", Json::num(bindings.len() as f64)),
        ]),
    })
}

fn query_bound(
    state: &ServerState,
    t: &str,
    m: &str,
    tpl: &str,
    body: &Json,
) -> Result<ApiResponse, ApiError> {
    let tenant = state.tenant(t)?;
    let _slot = tenant.admit()?;
    let handle = tenant.mapping(m)?;
    let (tid, _slots) = tenant.template(&handle, tpl)?;
    let sem = parse_semantics(body)?;
    let opts = serve_options(state, body)?;
    let names = body
        .get("bindings")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad_request("malformed-request", "missing \"bindings\" array"))?;
    let labels: Vec<Label> = {
        let mut alphabet = lock_recover(&handle.alphabet);
        names
            .iter()
            .map(|n| {
                n.as_str().map(|s| alphabet.intern(s)).ok_or_else(|| {
                    ApiError::bad_request("malformed-request", "binding must be a label name")
                })
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    let answer = tenant
        .svc
        .answer_bound_with(handle.id, tid, &labels, sem, &opts)
        .map_err(|e| ApiError::from_serve_error(&e))?;
    Ok(ApiResponse::ok(encode_answer(&answer)))
}

fn delta(state: &ServerState, t: &str, m: &str, body: &Json) -> Result<ApiResponse, ApiError> {
    let tenant = state.tenant(t)?;
    let _slot = tenant.admit()?;
    let handle = tenant.mapping(m)?;
    let delta = delta_from_json(body)?;
    let report = tenant
        .svc
        .apply_delta(handle.id, &delta)
        .map_err(|e| ApiError::from_serve_error(&e))?;
    Ok(ApiResponse::ok(Json::obj([
        ("generation", Json::num(report.generation as f64)),
        ("patched", Json::Bool(report.patched)),
        ("added_nodes", Json::num(report.added_nodes as f64)),
        ("added_edges", Json::num(report.added_edges as f64)),
        ("removed_edges", Json::num(report.removed_edges as f64)),
    ])))
}
