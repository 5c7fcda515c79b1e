//! Churn bench for the owned `MappingService`: register several mappings,
//! then interleave answers and additive source deltas under an eviction
//! budget. Every delta adds `knows` edges, which the social mapping's
//! rules read, so it drops the mapping's cached solutions and the next
//! answer pays a full re-preparation: one `churn` arm times apply plus
//! re-answer.
//!
//! Emits `BENCH_service.json` at the workspace root as a machine-readable
//! perf baseline. `SERVICE_CHURN_SMOKE=1` shrinks the workload for CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gde_core::{Gsm, MappingService, Semantics};
use gde_datagraph::{par, DataGraph, GraphDelta};
use gde_dataquery::CompiledQuery;
use gde_workload::{social_churn_deltas, social_serving_scenario, SocialConfig};
use std::sync::Arc;

struct ChurnWorkload {
    mappings: Vec<(Arc<Gsm>, Arc<DataGraph>)>,
    queries: Vec<Vec<CompiledQuery>>,
    deltas: Vec<Vec<GraphDelta>>,
    rounds: usize,
    budget: usize,
}

fn workload(smoke: bool) -> ChurnWorkload {
    let n_mappings = if smoke { 2 } else { 4 };
    let rounds = if smoke { 2 } else { 6 };
    let edges_per_round = 5;
    let mut mappings = Vec::new();
    let mut queries = Vec::new();
    let mut deltas = Vec::new();
    for i in 0..n_mappings {
        let cfg = SocialConfig {
            persons: if smoke { 40 } else { 100 },
            knows_per_person: 3,
            posts: if smoke { 25 } else { 70 },
            cities: 5,
            seed: 0xC4A0 + i as u64,
        };
        let sv = social_serving_scenario(&cfg);
        queries.push(
            sv.queries
                .iter()
                .map(|(_, q)| q.compile())
                .collect::<Vec<_>>(),
        );
        deltas.push(social_churn_deltas(
            &cfg,
            rounds,
            edges_per_round,
            0xD3 + i as u64,
        ));
        mappings.push((Arc::new(sv.scenario.gsm), Arc::new(sv.scenario.source)));
    }
    ChurnWorkload {
        mappings,
        queries,
        deltas,
        rounds,
        // roomy enough that eviction trims rather than thrashes
        budget: 256 << 20,
    }
}

/// One full churn run: fresh service, register everything, then per round
/// and mapping apply the delta and re-answer the whole batch (both
/// canonical semantics). Returns the invalidating delta count.
fn churn(w: &ChurnWorkload) -> u64 {
    let svc = MappingService::with_cache_budget(w.budget);
    let ids: Vec<_> = w
        .mappings
        .iter()
        .map(|(m, g)| svc.register(m.clone(), g.clone()))
        .collect();
    // warm every cache so round 1 deltas have something to reconcile
    for (i, &id) in ids.iter().enumerate() {
        for q in &w.queries[i] {
            svc.answer(id, q, Semantics::nulls()).unwrap();
            if q.is_equality_only() {
                svc.answer(id, q, Semantics::least_informative()).unwrap();
            }
        }
    }
    for round in 0..w.rounds {
        for (i, &id) in ids.iter().enumerate() {
            svc.apply_delta(id, &w.deltas[i][round]).unwrap();
            for q in &w.queries[i] {
                svc.answer(id, q, Semantics::nulls()).unwrap();
                if q.is_equality_only() {
                    svc.answer(id, q, Semantics::least_informative()).unwrap();
                }
            }
        }
    }
    svc.stats().invalidating_deltas
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("SERVICE_CHURN_SMOKE").is_ok();
    let w = workload(smoke);
    let threads = par::max_threads();
    let physical_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // sanity: the deltas really drop cached solutions
    let invalidated = churn(&w);
    assert!(
        invalidated > 0,
        "churn deltas must invalidate cached solutions"
    );

    let mut group = c.benchmark_group("service_churn");
    group.sample_size(if smoke { 3 } else { 10 });
    group.bench_with_input(BenchmarkId::from_parameter("churn"), &w, |b, w| {
        b.iter(|| churn(w))
    });
    group.finish();

    let churn_ns = c
        .median_ns("service_churn", "churn")
        .expect("churn measured");
    println!(
        "churn ({} mappings x {} rounds, {threads} threads): {:.3} ms, {invalidated} invalidating deltas",
        w.mappings.len(),
        w.rounds,
        churn_ns as f64 / 1e6,
    );

    let json = format!(
        "{{\n  \"bench\": \"service_churn\",\n  \"workload\": \"social_serving_scenario + social_churn_deltas\",\n  \
         \"smoke\": {},\n  \"threads\": {},\n  \"physical_cpus\": {},\n  \"mappings\": {},\n  \
         \"rounds\": {},\n  \"queries_per_mapping\": {},\n  \"cache_budget_bytes\": {},\n  \
         \"invalidating_deltas_per_run\": {},\n  \"churn_ns\": {}\n}}\n",
        smoke,
        threads,
        physical_cpus,
        w.mappings.len(),
        w.rounds,
        w.queries[0].len(),
        w.budget,
        invalidated,
        churn_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, json).expect("write BENCH_service.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
