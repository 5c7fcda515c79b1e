//! Protocol conformance: hostile and malformed input must come back as a
//! **typed error status** — never a panicked worker, never a dead server.
//!
//! Covers the transport layer (truncated bodies, stalled peers, oversized
//! headers and bodies), the JSON layer (bad bodies), the protocol layer
//! (unknown tenant/mapping/template/route, bad semantics, wrong binding
//! arity) and a proptest fuzz over the request decoder and JSON parser.
//! After every abuse the same server must still answer `/healthz` with
//! zero contained panics.

use gde_server::json::{self, Json};
use gde_server::protocol::ApiRequest;
use gde_server::tenant::{ServerConfig, ServerState};
use gde_server::{Client, ServerHandle};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A server with deliberately tight limits so the caps are cheap to hit.
fn tight_server() -> ServerHandle {
    gde_server::start(ServerConfig {
        workers: 2,
        max_header_bytes: 1024,
        max_body_bytes: 4096,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Write raw bytes on a fresh connection and read whatever comes back
/// (empty if the server just closed).
fn raw_exchange(handle: &ServerHandle, bytes: &[u8], shutdown_write: bool) -> String {
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(bytes).unwrap();
    if shutdown_write {
        let _ = s.shutdown(std::net::Shutdown::Write);
    }
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).to_string()
}

fn assert_alive(handle: &ServerHandle) {
    let mut c = Client::connect(handle.addr()).unwrap();
    let r = c.get("/healthz").unwrap();
    assert_eq!(r.status, 200, "server must survive the abuse");
    assert_eq!(
        handle.state().contained_panics.load(Ordering::Relaxed),
        0,
        "typed errors, not contained panics"
    );
}

#[test]
fn oversized_headers_get_431() {
    let handle = tight_server();
    let mut req = String::from("GET /healthz HTTP/1.1\r\n");
    req.push_str(&format!("X-Padding: {}\r\n\r\n", "x".repeat(4096)));
    let resp = raw_exchange(&handle, req.as_bytes(), false);
    assert!(resp.starts_with("HTTP/1.1 431 "), "got: {resp}");
    assert!(resp.contains("header-too-large"), "got: {resp}");
    assert_alive(&handle);
}

#[test]
fn oversized_declared_body_gets_413() {
    let handle = tight_server();
    let req = "POST /tenants/a/mappings HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
    let resp = raw_exchange(&handle, req.as_bytes(), false);
    assert!(resp.starts_with("HTTP/1.1 413 "), "got: {resp}");
    assert!(resp.contains("payload-too-large"), "got: {resp}");
    assert_alive(&handle);
}

#[test]
fn truncated_body_gets_400() {
    let handle = tight_server();
    // declare 100 bytes, send 10, then half-close: the server sees EOF
    let req = "POST /tenants/a/mappings HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789";
    let resp = raw_exchange(&handle, req.as_bytes(), true);
    assert!(resp.starts_with("HTTP/1.1 400 "), "got: {resp}");
    assert!(resp.contains("truncated-body"), "got: {resp}");
    assert_alive(&handle);
}

#[test]
fn stalled_body_gets_408() {
    let handle = tight_server();
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // declare a body and then stall without closing: the server's read
    // timeout (300ms here) must fire and produce a typed 408
    s.write_all(b"POST /stats HTTP/1.1\r\nContent-Length: 50\r\n\r\nstall")
        .unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    let resp = String::from_utf8_lossy(&out);
    assert!(resp.starts_with("HTTP/1.1 408 "), "got: {resp}");
    assert!(resp.contains("timeout"), "got: {resp}");
    assert_alive(&handle);
}

#[test]
fn malformed_http_and_json_get_400() {
    let handle = tight_server();
    // not HTTP at all
    let resp = raw_exchange(&handle, b"EHLO mail.example.com\r\n\r\n", false);
    assert!(resp.starts_with("HTTP/1.1 400 "), "got: {resp}");
    // valid HTTP, broken JSON body
    let body = b"{\"name\": nope}";
    let req = format!(
        "POST /tenants/a/mappings HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut full = req.into_bytes();
    full.extend_from_slice(body);
    let resp = raw_exchange(&handle, &full, false);
    assert!(resp.starts_with("HTTP/1.1 400 "), "got: {resp}");
    assert!(resp.contains("malformed-json"), "got: {resp}");
    assert_alive(&handle);
}

#[test]
fn unknown_names_get_typed_404s() {
    let handle = tight_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let q = Json::obj([("query", Json::str("contact"))]);

    let r = c.post("/tenants/ghost/mappings/m/query", &q).unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (404, Some("unknown-tenant"))
    );

    assert_eq!(c.put("/tenants/acme", &Json::obj([])).unwrap().status, 201);
    let r = c.post("/tenants/acme/mappings/ghost/query", &q).unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (404, Some("unknown-mapping"))
    );

    // a real mapping, then an unknown template under it
    let mapping = Json::obj([
        ("name", Json::str("m")),
        (
            "source",
            Json::obj([
                (
                    "nodes",
                    Json::Arr(vec![
                        Json::obj([("id", Json::num(0.0))]),
                        Json::obj([("id", Json::num(1.0))]),
                    ]),
                ),
                (
                    "edges",
                    Json::Arr(vec![Json::Arr(vec![
                        Json::num(0.0),
                        Json::str("knows"),
                        Json::num(1.0),
                    ])]),
                ),
            ]),
        ),
        (
            "rules",
            Json::Arr(vec![Json::obj([
                ("source", Json::str("knows")),
                ("target", Json::str("contact")),
            ])]),
        ),
    ]);
    let r = c.post("/tenants/acme/mappings", &mapping).unwrap();
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.raw_body));
    let r = c
        .post(
            "/tenants/acme/mappings/m/templates/00000000000000000000000000000000/query",
            &Json::obj([("bindings", Json::Arr(vec![]))]),
        )
        .unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (404, Some("unknown-template"))
    );

    let r = c.post("/no/such/route", &Json::Null).unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (404, Some("unknown-route"))
    );
    let r = c.request("DELETE", "/tenants/acme", &Json::Null).unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (404, Some("unknown-route"))
    );
    assert_alive(&handle);
}

/// A stripe count is any u64 or `"auto"` on the wire, accepted and
/// ignored: the reply reads 1 whatever was asked, and the mapping keeps
/// serving.
#[test]
fn any_stripe_count_is_accepted_and_reads_one() {
    let handle = tight_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(c.put("/tenants/t", &Json::obj([])).unwrap().status, 201);
    let mapping = Json::obj([
        ("name", Json::str("m")),
        ("source", Json::obj([])),
        (
            "rules",
            Json::Arr(vec![Json::obj([
                ("source", Json::str("knows")),
                ("target", Json::str("contact")),
            ])]),
        ),
    ]);
    assert_eq!(c.post("/tenants/t/mappings", &mapping).unwrap().status, 201);
    let asks = [65.0, 5_000_000.0, 4_294_967_296.0].map(Json::num);
    for k in asks.into_iter().chain([Json::str("auto")]) {
        let r = c
            .post(
                "/tenants/t/mappings/m/shards",
                &Json::obj([("shards", k.clone())]),
            )
            .unwrap();
        assert_eq!(r.status, 200, "{k:?}");
        let shards = r.json().unwrap().get("shards").and_then(Json::as_u64);
        assert_eq!(shards, Some(1), "{k:?}");
        let q = Json::obj([("query", Json::str("contact"))]);
        assert_eq!(
            c.post("/tenants/t/mappings/m/query", &q).unwrap().status,
            200
        );
    }
    assert_alive(&handle);
}

/// An upload's `shards` value is checked before anything registers: a
/// bad one is a 400 that leaves the name free, and a count or `"auto"`
/// registers a mapping that serves.
#[test]
fn a_bad_shards_value_in_an_upload_is_refused_before_registering() {
    let handle = tight_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(c.put("/tenants/t", &Json::obj([])).unwrap().status, 201);
    let upload = |name: &str, shards: Json| {
        Json::obj([
            ("name", Json::str(name)),
            ("source", Json::obj([])),
            (
                "rules",
                Json::Arr(vec![Json::obj([
                    ("source", Json::str("knows")),
                    ("target", Json::str("contact")),
                ])]),
            ),
            ("shards", shards),
        ])
    };
    for bad in [Json::str("lots"), Json::num(-1.0), Json::Null] {
        let r = c
            .post("/tenants/t/mappings", &upload("m", bad.clone()))
            .unwrap();
        assert_eq!(
            (r.status, r.error_code().as_deref()),
            (400, Some("malformed-request")),
            "{bad:?}"
        );
    }
    let q = Json::obj([("query", Json::str("contact"))]);
    let r = c.post("/tenants/t/mappings/m/query", &q).unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (404, Some("unknown-mapping"))
    );
    for (name, good) in [("m", Json::num(4.0)), ("n", Json::str("auto"))] {
        let r = c.post("/tenants/t/mappings", &upload(name, good)).unwrap();
        assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.raw_body));
        let path = format!("/tenants/t/mappings/{name}/query");
        assert_eq!(c.post(&path, &q).unwrap().status, 200);
    }
    assert_alive(&handle);
}

/// `POST …/shards` names its mapping before its value is read: an
/// unknown mapping is a 404 whatever the body says.
#[test]
fn a_shards_post_to_an_unknown_mapping_is_a_404() {
    let handle = tight_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(c.put("/tenants/t", &Json::obj([])).unwrap().status, 201);
    for body in [
        Json::obj([("shards", Json::num(2.0))]),
        Json::obj([("shards", Json::str("lots"))]),
        Json::obj([]),
    ] {
        let r = c.post("/tenants/t/mappings/ghost/shards", &body).unwrap();
        assert_eq!(
            (r.status, r.error_code().as_deref()),
            (404, Some("unknown-mapping")),
            "{body:?}"
        );
        let r = c.post("/tenants/ghost/mappings/m/shards", &body).unwrap();
        assert_eq!(
            (r.status, r.error_code().as_deref()),
            (404, Some("unknown-tenant")),
            "{body:?}"
        );
    }
    assert_alive(&handle);
}

#[test]
fn bad_request_shapes_get_typed_4xx() {
    let handle = tight_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(c.put("/tenants/t", &Json::obj([])).unwrap().status, 201);
    let mapping = Json::obj([
        ("name", Json::str("m")),
        ("source", Json::obj([])),
        (
            "rules",
            Json::Arr(vec![Json::obj([
                ("source", Json::str("knows")),
                ("target", Json::str("contact")),
            ])]),
        ),
    ]);
    assert_eq!(c.post("/tenants/t/mappings", &mapping).unwrap().status, 201);

    // missing query text
    let r = c
        .post("/tenants/t/mappings/m/query", &Json::obj([]))
        .unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (400, Some("malformed-request"))
    );
    // unknown semantics / mode / kind
    for (k, v, code) in [
        ("semantics", "wibble", "unsupported-semantics"),
        ("mode", "maybe", "unsupported-semantics"),
        ("kind", "sparql", "parse-error"),
    ] {
        let r = c
            .post(
                "/tenants/t/mappings/m/query",
                &Json::obj([("query", Json::str("contact")), (k, Json::str(v))]),
            )
            .unwrap();
        assert_eq!(
            (r.status, r.error_code().as_deref()),
            (422, Some(code)),
            "{k}={v}"
        );
    }
    // unparseable query text
    let r = c
        .post(
            "/tenants/t/mappings/m/query",
            &Json::obj([("query", Json::str("((("))]),
        )
        .unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (422, Some("parse-error"))
    );
    // duplicate mapping name
    let r = c.post("/tenants/t/mappings", &mapping).unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (409, Some("mapping-exists"))
    );
    // ... and its status line carries the canonical reason phrase
    let body = mapping.encode();
    let req = format!(
        "POST /tenants/t/mappings HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let resp = raw_exchange(&handle, req.as_bytes(), false);
    assert!(resp.starts_with("HTTP/1.1 409 Conflict\r\n"), "got: {resp}");
    // garbage shards spec
    let r = c
        .post(
            "/tenants/t/mappings/m/shards",
            &Json::obj([("shards", Json::str("lots"))]),
        )
        .unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (400, Some("malformed-request"))
    );
    // delta with a non-integer node id
    let r = c
        .post(
            "/tenants/t/mappings/m/delta",
            &Json::obj([(
                "add_edges",
                Json::Arr(vec![Json::Arr(vec![
                    Json::str("zero"),
                    Json::str("knows"),
                    Json::num(1.0),
                ])]),
            )]),
        )
        .unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (400, Some("malformed-request"))
    );
    // delta with an unknown endpoint: engine-typed, not a panic
    let r = c
        .post(
            "/tenants/t/mappings/m/delta",
            &Json::obj([(
                "add_edges",
                Json::Arr(vec![Json::Arr(vec![
                    Json::num(0.0),
                    Json::str("knows"),
                    Json::num(999.0),
                ])]),
            )]),
        )
        .unwrap();
    assert_eq!(
        (r.status, r.error_code().as_deref()),
        (422, Some("invalid-delta"))
    );
    assert_alive(&handle);
}

// ---------------------------------------------------------------------------
// proptest fuzz: the decoders must be total functions
//
// In-process fuzz drives `handlers::handle` directly (the same entry point
// the socket path uses after framing), so a panic would surface as a test
// abort rather than hiding behind the server's catch_unwind.

fn arb_json_like() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // arbitrary bytes (the shim has no u8 Arbitrary; narrow from u32)
        prop::collection::vec(any::<u32>().prop_map(|v| (v & 0xFF) as u8), 0..64),
        // structured-ish JSON text fragments, mangled
        "[{}\\[\\]:,\"0-9a-z\\\\ .eE+-]{0,64}".prop_map(|s| s.into_bytes()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parser_never_panics(bytes in arb_json_like()) {
        // Ok or Err are both fine; a panic fails the test
        let _ = json::parse(&bytes);
    }

    #[test]
    fn request_decoder_never_panics(
        method in "[A-Z]{1,7}",
        path in "/[a-z0-9/{}.$%-]{0,40}",
        body in arb_json_like(),
    ) {
        let state = ServerState::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let body = match json::parse(&body) {
            Ok(j) => j,
            Err(_) => Json::Null,
        };
        let req = ApiRequest::new(&method, &path, body);
        let resp = gde_server::handlers::handle(&state, &req);
        prop_assert!(
            (200..=599).contains(&resp.status),
            "status {} out of range", resp.status
        );
    }
}
