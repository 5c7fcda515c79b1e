//! The wire protocol, independent of any transport: typed API errors,
//! request/response envelopes, and the JSON codecs for graphs, rules,
//! deltas, queries and answers.
//!
//! The layering mirrors a production graph server (protocol module + thin
//! handlers over the engine): [`crate::http`] turns bytes into an
//! [`ApiRequest`], [`crate::handlers`] turns an [`ApiRequest`] into an
//! [`ApiResponse`], and this module owns everything in between — so a
//! Bolt-style binary protocol can replace the HTTP framing later by
//! building the same [`ApiRequest`] from its own frames.
//!
//! Every decoder here returns a typed [`ApiError`] on malformed input and
//! never panics; the conformance suite fuzzes them directly.

use crate::json::{self, Fragment, Json};
use gde_core::engine::{Answer, Mode, Semantics, ServeError, ServingStats};
use gde_core::CertainAnswers;
use gde_core::ExactOptions;
use gde_datagraph::{Alphabet, DataGraph, GraphDelta, NodeId, Value};
use gde_dataquery::{parse_ree, parse_rem, DataQuery};
use std::sync::Arc;

/// A typed protocol error: HTTP status, stable machine-readable code, and
/// a human message. Every error path in the serving tier produces one of
/// these — a worker never panics outward.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status the error maps to.
    pub status: u16,
    /// Stable machine-readable code (`unknown-tenant`, `bad-json`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Build an error.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
        }
    }

    /// 400 with a code.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError::new(400, code, message)
    }

    /// 404 with a code.
    pub fn not_found(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError::new(404, code, message)
    }

    /// 422 with a code.
    pub fn unprocessable(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError::new(422, code, message)
    }

    /// The JSON error envelope: `{"error":{"code":…,"message":…}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "error",
            Json::obj([
                ("code", Json::str(self.code)),
                ("message", Json::str(&self.message)),
            ]),
        )])
    }

    /// Map an engine [`ServeError`] onto the wire: every typed engine
    /// failure keeps its identity in the `code` field.
    pub fn from_serve_error(e: &ServeError) -> ApiError {
        match e {
            ServeError::UnknownMapping(id) => {
                ApiError::not_found("unknown-mapping", format!("{e} ({id})"))
            }
            ServeError::UnknownTemplate(_) => {
                ApiError::not_found("unknown-template", e.to_string())
            }
            ServeError::BindingArity { .. } => {
                ApiError::unprocessable("binding-arity", e.to_string())
            }
            ServeError::NotRelational
            | ServeError::UnsupportedQuery(_)
            | ServeError::NoSolution { .. }
            | ServeError::IdSpaceExhausted
            | ServeError::TooComplex { .. } => {
                ApiError::unprocessable("unsupported-query", e.to_string())
            }
            ServeError::InvalidDelta(_) => ApiError::unprocessable("invalid-delta", e.to_string()),
            ServeError::StripePanicked { .. } => {
                ApiError::new(503, "worker-panicked", e.to_string())
            }
            ServeError::DeadlineExceeded { .. } => {
                ApiError::new(504, "deadline-exceeded", e.to_string())
            }
            ServeError::Cancelled { .. } => ApiError::new(503, "cancelled", e.to_string()),
        }
    }
}

/// A transport-independent request: method + path segments + parsed body.
#[derive(Clone, Debug)]
pub struct ApiRequest {
    /// Upper-case method name (`GET`, `PUT`, `POST`, `DELETE`).
    pub method: String,
    /// Path split on `/` with empty segments dropped
    /// (`/tenants/a/mappings/m` → `["tenants","a","mappings","m"]`).
    pub segments: Vec<String>,
    /// The parsed JSON body ([`Json::Null`] when the request had none).
    pub body: Json,
}

impl ApiRequest {
    /// Build a request from a raw path.
    pub fn new(method: &str, path: &str, body: Json) -> ApiRequest {
        ApiRequest {
            method: method.to_string(),
            segments: path
                .split('/')
                .filter(|s| !s.is_empty())
                .map(|s| s.to_string())
                .collect(),
            body,
        }
    }
}

/// A transport-independent response: status + JSON body.
#[derive(Clone, Debug)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: Json,
}

impl ApiResponse {
    /// A 200 response.
    pub fn ok(body: Json) -> ApiResponse {
        ApiResponse { status: 200, body }
    }

    /// The response for an [`ApiError`].
    pub fn error(e: &ApiError) -> ApiResponse {
        ApiResponse {
            status: e.status,
            body: e.to_json(),
        }
    }
}

// ---------------------------------------------------------------------------
// answers

/// Encode an engine [`Answer`] as its wire body. The encoding is
/// deterministic — pairs in the engine's sorted order, objects in fixed
/// key order — so "byte-identical over the wire" is a meaningful claim
/// the equivalence suite can test with a string comparison.
///
/// The body is written in one pass over the engine's pair slice into a
/// buffer reserved once, and returned as a [`Json::Fragment`]: no tree
/// is built, so [`Json::get`] and the `as_*` accessors see nothing
/// inside it. Encode it to read the text; to read it back as an
/// [`Answer`], parse that text and pass it to [`decode_answer`].
///
/// A tuple answer's text goes through [`AnswerRun::text`]: an answer the
/// engine caches keeps the text of its first encode, charged to its
/// cache entry, and every later encode hands out that text without
/// writing it again. Any other answer is written on every encode.
///
/// [`AnswerRun::text`]: gde_dataquery::AnswerRun::text
pub fn encode_answer(a: &Answer) -> Json {
    let constant = |text: &str| Arc::new(text.to_string());
    let text = match a {
        Answer::Boolean(true) => constant("{\"boolean\":true}"),
        Answer::Boolean(false) => constant("{\"boolean\":false}"),
        Answer::Tuples(CertainAnswers::AllVacuously) => constant("{\"all_vacuously\":true}"),
        Answer::Tuples(CertainAnswers::Pairs(pairs)) => pairs.text(encode_pairs),
    };
    Json::Fragment(Fragment(text))
}

/// `{"pairs":[[u,v],…]}` in one buffer, sized once: a pair takes at most
/// two ids of the widest id's digits, two brackets and two commas, and
/// `SLACK` covers the fixed-width stores that run past the last pair.
///
/// Pairs come sorted, so a source row's pairs are adjacent: its `,[u,`
/// is written once into `row`, and every pair copies that as one 16-byte
/// block, then writes `v` and `]`. Bytes a copy or a digit word writes
/// past the text are overwritten by the next store or cut off at the end.
fn encode_pairs(pairs: &[(NodeId, NodeId)]) -> String {
    const HEAD: &[u8] = b"{\"pairs\":[";
    const TAIL: &[u8] = b"]}";
    const SLACK: usize = 16;
    if pairs.is_empty() {
        return "{\"pairs\":[]}".to_string();
    }
    let widest = pairs.iter().map(|(u, v)| u.0.max(v.0)).max().unwrap_or(0);
    let digits = widest.checked_ilog10().unwrap_or(0) as usize + 1;
    let mut out = vec![0u8; HEAD.len() + pairs.len() * (2 * digits + 4) + TAIL.len() + SLACK];
    out[..HEAD.len()].copy_from_slice(HEAD);
    // every pair is written as `,[u,v]`: the first one's comma lands on
    // HEAD's `[`, which is put back after the loop
    let mut len = HEAD.len() - 1;
    // `,[u,` fits in 13 bytes; the rest is the integer writer's room
    let mut row = [0u8; 24];
    row[..2].copy_from_slice(b",[");
    let mut row_len = 0;
    let mut row_of = None;
    for &(u, v) in pairs {
        if row_of != Some(u) {
            row_of = Some(u);
            let end = json::int_text(u.0.into(), &mut row, 2);
            row[end] = b',';
            row_len = end + 1;
        }
        out[len..len + 16].copy_from_slice(&row[..16]);
        len = json::int_text(v.0.into(), &mut out, len + row_len);
        out[len] = b']';
        len += 1;
    }
    out[HEAD.len() - 1] = b'[';
    out[len..len + TAIL.len()].copy_from_slice(TAIL);
    out.truncate(len + TAIL.len());
    String::from_utf8(out).expect("invariant: the pair encoder writes only ASCII")
}

/// Decode an answer body produced by [`encode_answer`], after it has been
/// encoded and parsed back: a client decodes the parsed response body.
/// The [`Json::Fragment`] that [`encode_answer`] returns has no fields
/// of its own, so passing it here directly fails as a malformed body.
pub fn decode_answer(j: &Json) -> Result<Answer, ApiError> {
    if let Some(b) = j.get("boolean").and_then(Json::as_bool) {
        return Ok(Answer::Boolean(b));
    }
    if j.get("all_vacuously").and_then(Json::as_bool) == Some(true) {
        return Ok(Answer::Tuples(CertainAnswers::AllVacuously));
    }
    let arr = j
        .get("pairs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad_request("malformed-request", "not an answer body"))?;
    let mut pairs = Vec::with_capacity(arr.len());
    for item in arr {
        let pair = item
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| ApiError::bad_request("malformed-request", "bad pair"))?;
        let u = pair[0]
            .as_u64()
            .filter(|v| *v <= u32::MAX as u64)
            .ok_or_else(|| ApiError::bad_request("malformed-request", "bad node id"))?;
        let v = pair[1]
            .as_u64()
            .filter(|v| *v <= u32::MAX as u64)
            .ok_or_else(|| ApiError::bad_request("malformed-request", "bad node id"))?;
        pairs.push((NodeId(u as u32), NodeId(v as u32)));
    }
    Ok(Answer::Tuples(CertainAnswers::Pairs(pairs.into())))
}

// ---------------------------------------------------------------------------
// semantics / mode / queries

/// Parse the `semantics` + `mode` fields of a query body. Defaults:
/// `nulls` semantics, `tuples` mode.
pub fn parse_semantics(body: &Json) -> Result<Semantics, ApiError> {
    let mode = match body.get("mode").and_then(Json::as_str).unwrap_or("tuples") {
        "tuples" => Mode::Tuples,
        "boolean" => Mode::Boolean,
        other => {
            return Err(ApiError::unprocessable(
                "unsupported-semantics",
                format!("unknown mode {other:?} (expected \"tuples\" or \"boolean\")"),
            ))
        }
    };
    match body
        .get("semantics")
        .and_then(Json::as_str)
        .unwrap_or("nulls")
    {
        "nulls" => Ok(Semantics::Nulls(mode)),
        "least-informative" => Ok(Semantics::LeastInformative(mode)),
        "exact" => Ok(Semantics::Exact(mode, ExactOptions::default())),
        other => Err(ApiError::unprocessable(
            "unsupported-semantics",
            format!(
                "unknown semantics {other:?} (expected \"nulls\", \"least-informative\" or \"exact\")"
            ),
        )),
    }
}

/// Parse a query body's `query` text under its `kind` (`rpq` | `ree` |
/// `rem`; default `rpq`) against the mapping's target-alphabet interner.
pub fn parse_query(body: &Json, alphabet: &mut Alphabet) -> Result<DataQuery, ApiError> {
    let text = body
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("malformed-request", "missing \"query\" field"))?;
    let kind = body.get("kind").and_then(Json::as_str).unwrap_or("rpq");
    match kind {
        "rpq" => gde_automata::parse_regex(text, alphabet)
            .map(DataQuery::from)
            .map_err(|e| ApiError::unprocessable("parse-error", format!("rpq: {e}"))),
        "ree" => parse_ree(text, alphabet)
            .map(DataQuery::from)
            .map_err(|e| ApiError::unprocessable("parse-error", format!("ree: {e}"))),
        "rem" => parse_rem(text, alphabet)
            .map(DataQuery::from)
            .map_err(|e| ApiError::unprocessable("parse-error", format!("rem: {e}"))),
        other => Err(ApiError::unprocessable(
            "parse-error",
            format!("unknown query kind {other:?} (expected \"rpq\", \"ree\" or \"rem\")"),
        )),
    }
}

// ---------------------------------------------------------------------------
// graphs / deltas

fn value_from_json(j: &Json) -> Result<Value, ApiError> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Str(s) => Ok(Value::str(s)),
        Json::Num(_) => j
            .as_i64()
            .map(Value::int)
            .ok_or_else(|| ApiError::bad_request("malformed-request", "non-integer node value")),
        _ => Err(ApiError::bad_request(
            "malformed-request",
            "node value must be null, a string or an integer",
        )),
    }
}

/// Encode a [`Value`] for the wire.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Num(*i as f64),
        Value::Str(s) => Json::str(s.as_ref()),
    }
}

fn node_id(j: &Json) -> Result<NodeId, ApiError> {
    j.as_u64()
        .filter(|v| *v <= u32::MAX as u64)
        .map(|v| NodeId(v as u32))
        .ok_or_else(|| ApiError::bad_request("malformed-request", "bad node id"))
}

fn edge_triple(j: &Json) -> Result<(NodeId, String, NodeId), ApiError> {
    let t = j
        .as_arr()
        .filter(|t| t.len() == 3)
        .ok_or_else(|| ApiError::bad_request("malformed-request", "edge must be [u,label,v]"))?;
    let label = t[1]
        .as_str()
        .ok_or_else(|| ApiError::bad_request("malformed-request", "edge label must be a string"))?;
    Ok((node_id(&t[0])?, label.to_string(), node_id(&t[2])?))
}

/// Decode a source graph: `{"nodes":[{"id":n,"value":v},…],
/// "edges":[[u,"label",v],…]}`.
pub fn graph_from_json(j: &Json) -> Result<DataGraph, ApiError> {
    let mut g = DataGraph::new();
    if let Some(nodes) = j.get("nodes").and_then(Json::as_arr) {
        for n in nodes {
            let id =
                node_id(n.get("id").ok_or_else(|| {
                    ApiError::bad_request("malformed-request", "node without id")
                })?)?;
            let value = match n.get("value") {
                Some(v) => value_from_json(v)?,
                None => Value::Null,
            };
            g.add_node(id, value).map_err(|e| {
                ApiError::unprocessable("invalid-graph", format!("node {id:?}: {e}"))
            })?;
        }
    }
    if let Some(edges) = j.get("edges").and_then(Json::as_arr) {
        for e in edges {
            let (u, label, v) = edge_triple(e)?;
            g.add_edge_str(u, &label, v)
                .map_err(|e| ApiError::unprocessable("invalid-graph", format!("edge: {e}")))?;
        }
    }
    Ok(g)
}

/// Encode a graph for upload (used by the test/bench clients).
pub fn graph_to_json(g: &DataGraph) -> Json {
    Json::obj([
        (
            "nodes",
            Json::Arr(
                g.nodes()
                    .map(|(id, v)| {
                        Json::obj([("id", Json::num(id.0 as f64)), ("value", value_to_json(v))])
                    })
                    .collect(),
            ),
        ),
        (
            "edges",
            Json::Arr(
                g.edges()
                    .map(|(u, l, v)| {
                        Json::Arr(vec![
                            Json::num(u.0 as f64),
                            Json::str(g.alphabet().name(l)),
                            Json::num(v.0 as f64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode a delta body: `{"add_nodes":[{"id":n,"value":v}],
/// "add_edges":[[u,"l",v]], "remove_edges":[[u,"l",v]]}`.
pub fn delta_from_json(j: &Json) -> Result<GraphDelta, ApiError> {
    let mut delta = GraphDelta::new();
    if let Some(nodes) = j.get("add_nodes").and_then(Json::as_arr) {
        for n in nodes {
            let id =
                node_id(n.get("id").ok_or_else(|| {
                    ApiError::bad_request("malformed-request", "node without id")
                })?)?;
            let value = match n.get("value") {
                Some(v) => value_from_json(v)?,
                None => Value::Null,
            };
            delta = delta.with_node(id, value);
        }
    }
    if let Some(edges) = j.get("add_edges").and_then(Json::as_arr) {
        for e in edges {
            let (u, label, v) = edge_triple(e)?;
            delta = delta.with_edge(u, &label, v);
        }
    }
    if let Some(edges) = j.get("remove_edges").and_then(Json::as_arr) {
        for e in edges {
            let (u, label, v) = edge_triple(e)?;
            delta = delta.without_edge(u, &label, v);
        }
    }
    Ok(delta)
}

/// Encode a delta for the wire (used by the test/bench clients).
pub fn delta_to_json(d: &GraphDelta) -> Json {
    let edges = |list: &[(NodeId, String, NodeId)]| {
        Json::Arr(
            list.iter()
                .map(|(u, l, v)| {
                    Json::Arr(vec![
                        Json::num(u.0 as f64),
                        Json::str(l),
                        Json::num(v.0 as f64),
                    ])
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "add_nodes",
            Json::Arr(
                d.add_nodes
                    .iter()
                    .map(|(id, v)| {
                        Json::obj([("id", Json::num(id.0 as f64)), ("value", value_to_json(v))])
                    })
                    .collect(),
            ),
        ),
        ("add_edges", edges(&d.add_edges)),
        ("remove_edges", edges(&d.remove_edges)),
    ])
}

// ---------------------------------------------------------------------------
// stats

/// Encode cumulative [`ServingStats`] (per-tenant aggregates and
/// per-mapping reports share this shape).
pub fn stats_to_json(s: &ServingStats) -> Json {
    Json::obj([
        ("tenant", Json::str(&s.tenant)),
        ("tuple_evals", Json::num(s.tuple_evals as f64)),
        ("boolean_evals", Json::num(s.boolean_evals as f64)),
        ("eval_ns", Json::num(s.eval_ns as f64)),
        ("tuples", Json::num(s.tuples as f64)),
        ("memo_build_ns", Json::num(s.memo_build_ns as f64)),
        ("merge_ns", Json::num(s.merge_ns as f64)),
        ("cache_hits", Json::num(s.cache_hits as f64)),
        ("cache_misses", Json::num(s.cache_misses as f64)),
        ("cache_bytes", Json::num(s.cache_bytes as f64)),
        ("rejected", Json::num(s.rejected as f64)),
        ("degraded", Json::num(s.degraded as f64)),
        ("static_empty", Json::num(s.static_empty as f64)),
        ("deadline_exceeded", Json::num(s.deadline_exceeded as f64)),
        ("cancelled", Json::num(s.cancelled as f64)),
        ("worker_panics", Json::num(s.worker_panics as f64)),
        ("retries", Json::num(s.retries as f64)),
        ("template_hits", Json::num(s.template_hits as f64)),
        ("compile_skipped_ns", Json::num(s.compile_skipped_ns as f64)),
        ("cache_hit_rate", Json::Num(s.cache_hit_rate())),
        ("memo_share", Json::Num(s.memo_share())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tree encoder `encode_answer` was before it wrote bytes
    /// directly: the reference that pins the wire format.
    fn encode_answer_tree(a: &Answer) -> Json {
        match a {
            Answer::Boolean(b) => Json::obj([("boolean", Json::Bool(*b))]),
            Answer::Tuples(CertainAnswers::AllVacuously) => {
                Json::obj([("all_vacuously", Json::Bool(true))])
            }
            Answer::Tuples(CertainAnswers::Pairs(pairs)) => Json::obj([(
                "pairs",
                Json::Arr(
                    pairs
                        .iter()
                        .map(|(u, v)| Json::Arr(vec![Json::num(u.0 as f64), Json::num(v.0 as f64)]))
                        .collect(),
                ),
            )]),
        }
    }

    /// The reference that shares no code with the integer writer: each
    /// pair printed by `format!`. Boolean and `all_vacuously` answers hold
    /// no number, so the tree reference covers them.
    fn encode_answer_format(a: &Answer) -> Json {
        match a {
            Answer::Tuples(CertainAnswers::Pairs(pairs)) => {
                let items: Vec<String> = pairs
                    .iter()
                    .map(|(u, v)| format!("[{},{}]", u.0, v.0))
                    .collect();
                Json::Fragment(Fragment(Arc::new(format!(
                    "{{\"pairs\":[{}]}}",
                    items.join(",")
                ))))
            }
            other => encode_answer_tree(other),
        }
    }

    /// 0, `u32::MAX`, and 10ᵏ − 1 and 10ᵏ for k = 1..=9: the ids where
    /// the writer's digit count, and so its group count, changes.
    const EDGE_IDS: [u32; 20] = [
        0,
        9,
        10,
        99,
        100,
        999,
        1_000,
        9_999,
        10_000,
        99_999,
        100_000,
        999_999,
        1_000_000,
        9_999_999,
        10_000_000,
        99_999_999,
        100_000_000,
        999_999_999,
        1_000_000_000,
        u32::MAX,
    ];

    fn arb_id() -> impl Strategy<Value = u32> {
        prop_oneof![
            (0..EDGE_IDS.len()).prop_map(|i| EDGE_IDS[i]),
            0u32..1000,
            any::<u32>(),
        ]
    }

    /// A sorted, duplicate-free pair list, as the engine returns it.
    fn arb_pairs() -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
        prop::collection::vec((arb_id(), arb_id()), 0..40).prop_map(|mut pairs| {
            pairs.sort_unstable();
            pairs.dedup();
            pairs
                .into_iter()
                .map(|(u, v)| (NodeId(u), NodeId(v)))
                .collect()
        })
    }

    /// One to four source rows of up to 300 ascending targets each, so
    /// that consecutive pairs share one `[u,` prefix and a row's targets
    /// step across digit-width boundaries.
    fn arb_dense_rows() -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
        let row = (arb_id(), arb_id(), prop::collection::vec(1u32..4, 0..301));
        prop::collection::vec(row, 1..5).prop_map(|rows| {
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for (u, first, steps) in rows {
                // start just below the drawn target so the run crosses it
                let mut v = first.saturating_sub(150);
                for step in steps {
                    pairs.push((NodeId(u), NodeId(v)));
                    v = v.saturating_add(step);
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            pairs
        })
    }

    fn arb_answer() -> impl Strategy<Value = Answer> {
        prop_oneof![
            arb_pairs().prop_map(|p| Answer::Tuples(CertainAnswers::Pairs(p.into()))),
            arb_dense_rows().prop_map(|p| Answer::Tuples(CertainAnswers::Pairs(p.into()))),
            Just(Answer::Tuples(CertainAnswers::Pairs(Vec::new().into()))),
            Just(Answer::Tuples(CertainAnswers::AllVacuously)),
            any::<bool>().prop_map(Answer::Boolean),
        ]
    }

    /// Error bodies a batch carries next to answers, messages with
    /// characters the string encoder escapes included.
    fn arb_error() -> impl Strategy<Value = ApiError> {
        prop_oneof![
            Just(ApiError::from_serve_error(&ServeError::DeadlineExceeded {
                completed_stripes: 1,
                total_stripes: 4,
            })),
            Just(ApiError::unprocessable(
                "parse-error",
                "rpq: unexpected \"(\" at 3\n\tnear \\",
            )),
            Just(ApiError::new(503, "worker-panicked", "stripe 2 panicked")),
        ]
    }

    /// The envelope the batch route builds, from either answer encoder.
    fn envelope(items: &[Result<Answer, ApiError>], encode: fn(&Answer) -> Json) -> Json {
        Json::obj([(
            "answers",
            Json::Arr(
                items
                    .iter()
                    .map(|r| match r {
                        Ok(a) => encode(a),
                        Err(e) => e.to_json(),
                    })
                    .collect(),
            ),
        )])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn answer_bytes_match_the_tree_reference(a in arb_answer()) {
            let bytes = encode_answer(&a).encode();
            prop_assert_eq!(&bytes, &encode_answer_tree(&a).encode());
            prop_assert_eq!(&bytes, &encode_answer_format(&a).encode());
        }

        #[test]
        fn batch_envelope_bytes_match_the_tree_reference(
            items in prop::collection::vec(
                prop_oneof![arb_answer().prop_map(Ok), arb_error().prop_map(Err)],
                0..6,
            )
        ) {
            let bytes = envelope(&items, encode_answer).encode();
            prop_assert_eq!(&bytes, &envelope(&items, encode_answer_tree).encode());
            prop_assert_eq!(&bytes, &envelope(&items, encode_answer_format).encode());
        }
    }

    /// `a` as the serving engine hands it out: a tuple answer built with
    /// an entry of `cache`, so its first encode keeps its text there.
    fn cached(a: &Answer, cache: &Arc<gde_dataquery::LruSubRelCache>) -> Answer {
        match a {
            Answer::Tuples(CertainAnswers::Pairs(pairs)) => {
                let key = gde_dataquery::SubRelKey::answer(7);
                let (run, _) = cache.insert_answer(key, pairs.to_vec());
                Answer::Tuples(CertainAnswers::Pairs(run))
            }
            other => other.clone(),
        }
    }

    /// The shared text of an encoded answer.
    fn text_of(j: Json) -> Arc<String> {
        match j {
            Json::Fragment(Fragment(text)) => text,
            other => panic!("an answer encodes to a fragment, not {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A cached answer's first encode renders its body and keeps it,
        /// charged to its entry; the second hands out the kept text. Both
        /// are the bytes of the two references.
        #[test]
        fn a_cached_answer_encodes_the_same_rendered_and_kept(a in arb_answer()) {
            let cache = Arc::new(gde_dataquery::LruSubRelCache::new(Arc::default()));
            let a = cached(&a, &cache);
            let before = cache.bytes();
            let rendered = text_of(encode_answer(&a));
            let tuples = matches!(a, Answer::Tuples(CertainAnswers::Pairs(_)));
            let kept_bytes = if tuples { rendered.len() } else { 0 };
            prop_assert_eq!(cache.bytes(), before + kept_bytes);
            let kept = text_of(encode_answer(&a));
            prop_assert_eq!(Arc::ptr_eq(&rendered, &kept), tuples);
            prop_assert_eq!(cache.bytes(), before + kept_bytes);
            for text in [&rendered, &kept] {
                prop_assert_eq!(text.as_str(), encode_answer_tree(&a).encode());
                prop_assert_eq!(text.as_str(), encode_answer_format(&a).encode());
            }
        }
    }

    #[test]
    fn every_edge_id_pair_matches_the_tree_reference() {
        let pairs: Vec<(NodeId, NodeId)> = EDGE_IDS
            .iter()
            .flat_map(|&u| EDGE_IDS.iter().map(move |&v| (NodeId(u), NodeId(v))))
            .collect();
        let a = Answer::Tuples(CertainAnswers::Pairs(pairs.into()));
        let bytes = encode_answer(&a).encode();
        assert_eq!(bytes, encode_answer_tree(&a).encode());
        assert_eq!(bytes, encode_answer_format(&a).encode());
    }

    #[test]
    fn answer_encoding_round_trips() {
        // through text, as a client decodes: a fragment has no fields
        let wire = |a: &Answer| json::parse(encode_answer(a).encode().as_bytes()).unwrap();
        let a = Answer::Tuples(CertainAnswers::Pairs(
            vec![(NodeId(0), NodeId(3)), (NodeId(7), NodeId(7))].into(),
        ));
        assert_eq!(decode_answer(&wire(&a)).unwrap(), a);
        let b = Answer::Boolean(true);
        assert_eq!(decode_answer(&wire(&b)).unwrap(), b);
        let v = Answer::Tuples(CertainAnswers::AllVacuously);
        assert_eq!(decode_answer(&wire(&v)).unwrap(), v);
    }

    #[test]
    fn graph_codec_round_trips() {
        let mut g = DataGraph::new();
        g.add_node(NodeId(0), Value::str("a")).unwrap();
        g.add_node(NodeId(1), Value::int(5)).unwrap();
        g.add_node(NodeId(2), Value::Null).unwrap();
        g.add_edge_str(NodeId(0), "knows", NodeId(1)).unwrap();
        g.add_edge_str(NodeId(1), "knows", NodeId(2)).unwrap();
        let j = graph_to_json(&g);
        let g2 = graph_from_json(&j).unwrap();
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.edge_count(), 2);
        assert_eq!(graph_to_json(&g2).encode(), j.encode());
    }

    #[test]
    fn delta_codec_round_trips() {
        let d = GraphDelta::new()
            .with_node(NodeId(9), Value::str("x"))
            .with_edge(NodeId(0), "knows", NodeId(9))
            .without_edge(NodeId(0), "knows", NodeId(1));
        let d2 = delta_from_json(&delta_to_json(&d)).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn semantics_parsing_accepts_the_six_combinations() {
        for (sem, mode) in [
            ("nulls", "tuples"),
            ("nulls", "boolean"),
            ("least-informative", "tuples"),
            ("least-informative", "boolean"),
            ("exact", "tuples"),
            ("exact", "boolean"),
        ] {
            let body = Json::obj([("semantics", Json::str(sem)), ("mode", Json::str(mode))]);
            assert!(parse_semantics(&body).is_ok(), "{sem}/{mode}");
        }
        let bad = Json::obj([("semantics", Json::str("wibble"))]);
        assert_eq!(parse_semantics(&bad).unwrap_err().status, 422);
    }

    #[test]
    fn serve_errors_keep_their_identity_on_the_wire() {
        let e = ApiError::from_serve_error(&ServeError::DeadlineExceeded {
            completed_stripes: 1,
            total_stripes: 4,
        });
        assert_eq!((e.status, e.code), (504, "deadline-exceeded"));
        let e = ApiError::from_serve_error(&ServeError::BindingArity {
            expected: 2,
            got: 3,
        });
        assert_eq!((e.status, e.code), (422, "binding-arity"));
    }
}
