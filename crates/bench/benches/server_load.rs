//! Socket load bench for the serving tier: real TCP clients hammer a
//! `gde-server` instance with a Zipf-skewed request trace
//! ([`gde_workload::serving_request_trace`], α = 1.1, 25% boolean mode)
//! over the social serving scenario, at N ∈ {1, 4, 8} concurrent clients.
//!
//! Each point starts a fresh server with `N + 1` workers (keep-alive pins
//! one worker per connection), warms every query in both modes, then
//! measures per-request wall latency client-side. Reported per N: p50/p99
//! latency and aggregate throughput, plus thread/CPU provenance.
//!
//! Emits `BENCH_server.json` at the workspace root (full mode only).
//! `SERVER_LOAD_SMOKE=1` (CI) shrinks the graph and the trace to one
//! point at 4 clients, asserts non-zero throughput and zero 5xx, and
//! writes nothing.

use gde_datagraph::par;
use gde_dataquery::parser::{display_ree, display_rem};
use gde_dataquery::DataQuery;
use gde_server::json::Json;
use gde_server::protocol::graph_to_json;
use gde_server::{Client, ServerConfig, ServerHandle};
use gde_workload::{
    serving_request_trace, social_serving_scenario, ServingRequest, ServingScenario, SocialConfig,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const ALPHA: f64 = 1.1;
const BOOLEAN_SHARE: f64 = 0.25;

fn smoke() -> bool {
    std::env::var("SERVER_LOAD_SMOKE").is_ok()
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
        .collect()
}

fn request_body(queries: &[(String, String)], r: &ServingRequest) -> Json {
    let (kind, text) = &queries[r.query];
    let mut fields = vec![("query", Json::str(text)), ("kind", Json::str(kind))];
    if r.boolean {
        fields.push(("mode", Json::str("boolean")));
    }
    Json::obj(fields)
}

/// Start a server, create the tenant, upload the mapping, warm every
/// query in both modes.
fn serve_warm(sv: &ServingScenario, queries: &[(String, String)], workers: usize) -> ServerHandle {
    let handle = gde_server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr()).expect("connect");
    assert_eq!(
        c.put("/tenants/load", &Json::obj([])).expect("put").status,
        201
    );
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
    let r = c.post("/tenants/load/mappings", &body).expect("post");
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.raw_body));
    for boolean in [false, true] {
        for qi in 0..queries.len() {
            let req = ServingRequest { query: qi, boolean };
            let r = c
                .post(
                    "/tenants/load/mappings/social/query",
                    &request_body(queries, &req),
                )
                .expect("warm");
            assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.raw_body));
        }
    }
    handle
}

struct LoadPoint {
    clients: usize,
    requests: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
}

fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    assert!(!sorted_ns.is_empty());
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Run `clients` concurrent connections through the trace (each client
/// starts at a different rotation so they never lockstep) and collect
/// per-request latencies.
fn run_point(
    sv: &ServingScenario,
    queries: &[(String, String)],
    trace: &[ServingRequest],
    clients: usize,
) -> LoadPoint {
    let handle = serve_warm(sv, queries, clients + 1);
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(clients));
    let mut latencies: Vec<u64> = Vec::with_capacity(clients * trace.len());
    let mut wall_ns = 0u64;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|ci| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(trace.len());
                    let offset = ci * trace.len() / clients;
                    barrier.wait();
                    let started = Instant::now();
                    for i in 0..trace.len() {
                        let req = &trace[(offset + i) % trace.len()];
                        let body = request_body(queries, req);
                        let t0 = Instant::now();
                        let r = c
                            .post("/tenants/load/mappings/social/query", &body)
                            .expect("query");
                        lat.push(t0.elapsed().as_nanos() as u64);
                        assert_eq!(r.status, 200, "client {ci} request {i}");
                    }
                    (lat, started.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        for w in workers {
            let (lat, elapsed) = w.join().expect("load client must not panic");
            latencies.extend(lat);
            wall_ns = wall_ns.max(elapsed);
        }
    });
    let http_5xx = handle.state().http_5xx.load(Ordering::Relaxed);
    assert_eq!(http_5xx, 0, "load run must be 5xx-free");
    latencies.sort_unstable();
    let requests = latencies.len();
    LoadPoint {
        clients,
        requests,
        throughput_rps: requests as f64 / (wall_ns as f64 / 1e9),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
    }
}

fn main() {
    let smoke = smoke();
    let threads = par::max_threads();
    let physical_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = SocialConfig {
        persons: if smoke { 16 } else { 48 },
        knows_per_person: 3,
        posts: if smoke { 12 } else { 36 },
        cities: 4,
        seed: 0x10AD,
    };
    let sv = social_serving_scenario(&cfg);
    let queries = wire_queries(&sv);
    let trace_len = if smoke { 40 } else { 400 };
    let trace = serving_request_trace(queries.len(), ALPHA, BOOLEAN_SHARE, trace_len, 0x10AD);
    let points: &[usize] = if smoke { &[4] } else { &[1, 4, 8] };
    println!(
        "server_load: {} queries, {} nodes, {} edges, trace of {trace_len}/client \
         (α={ALPHA}, boolean share {BOOLEAN_SHARE}), {threads} threads",
        queries.len(),
        sv.scenario.source.node_count(),
        sv.scenario.source.edge_count(),
    );

    let results: Vec<LoadPoint> = points
        .iter()
        .map(|&n| {
            let p = run_point(&sv, &queries, &trace, n);
            println!(
                "  {} clients: {} requests, {:.0} req/s, p50 {:.0} µs, p99 {:.0} µs",
                p.clients, p.requests, p.throughput_rps, p.p50_us, p.p99_us
            );
            p
        })
        .collect();

    assert!(
        results.iter().all(|p| p.throughput_rps > 0.0),
        "every load point must complete requests"
    );
    if smoke {
        println!("smoke mode: skipping BENCH_server.json");
        return;
    }

    let rows: Vec<String> = results
        .iter()
        .map(|p| {
            format!(
                "    {{ \"clients\": {}, \"requests\": {}, \"throughput_rps\": {:.0}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1} }}",
                p.clients, p.requests, p.throughput_rps, p.p50_us, p.p99_us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"server_load\",\n  \"workload\": \"social_serving_scenario\",\n  \
         \"smoke\": false,\n  \"queries\": {},\n  \"source_nodes\": {},\n  \
         \"source_edges\": {},\n  \"zipf_alpha\": {ALPHA},\n  \
         \"boolean_share\": {BOOLEAN_SHARE},\n  \"trace_len_per_client\": {trace_len},\n  \
         \"threads\": {threads},\n  \"physical_cpus\": {physical_cpus},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        queries.len(),
        sv.scenario.source.node_count(),
        sv.scenario.source.edge_count(),
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, json).expect("write BENCH_server.json");
    println!("wrote {path}");
}
