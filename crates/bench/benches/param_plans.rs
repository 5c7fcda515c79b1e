//! Parameterized prepared-plan bench: one canonical query skeleton served
//! under many label bindings with Zipf-distributed repeated traffic
//! (`param_family_scenario` + `zipf_trace`, α = 1.1).
//!
//! Every request in the trace is *textually* fresh — a new memory-variable
//! name per request — so a cache keyed on raw plan hashes can never reuse
//! anything. Three serving strategies answer the same trace:
//!
//! * **cold** — canonicalisation off: every request pays query
//!   compilation (Thompson construction, REE memo layout, plan analysis)
//!   and, because each alpha-fresh plan hash is unique, a full
//!   from-scratch evaluation. This is per-variant cold compile+serve.
//! * **routed** — canonicalisation on, same ad-hoc requests: the service
//!   collapses every request onto the family's one interned template and
//!   serves through the shared `(skeleton, binding)` cache entries.
//! * **bound** — the prepared-statement API: `register_template` once,
//!   then `answer_bound` per request with the variant's binding vector.
//!
//! All three strategies are asserted byte-identical per variant before
//! anything is measured. Steady-state sub-relation and template hit rates
//! come from `ServingStats` deltas around the timed sections.
//!
//! Emits `BENCH_params.json` at the workspace root (full mode only).
//! `PARAM_PLANS_SMOKE=1` (CI) shrinks the family and the graph, asserts a
//! positive steady-state hit rate, and writes nothing.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gde_core::{MappingService, Semantics};
use gde_datagraph::par;
use gde_dataquery::{canonicalize, DataQuery};
use gde_workload::{param_family_scenario, param_request, zipf_trace, ParamConfig};

fn smoke() -> bool {
    std::env::var("PARAM_PLANS_SMOKE").is_ok()
}

fn bench(c: &mut Criterion) {
    let smoke = smoke();
    if smoke && std::env::var("GDE_MAX_THREADS").is_err() {
        par::set_max_threads(2);
    }
    let threads = par::max_threads();
    let physical_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let alpha = 1.1;
    let sample_size = if smoke { 3 } else { 5 };
    let trace_len = if smoke { 24 } else { 64 };
    let cfg = ParamConfig {
        variants: if smoke { 8 } else { 32 },
        nodes: if smoke { 160 } else { 600 },
        ..ParamConfig::default()
    };
    let ps = param_family_scenario(&cfg);
    let mut ta = ps.scenario.gsm.target_alphabet().clone();
    let trace = zipf_trace(cfg.variants, alpha, trace_len, 0x21F5);
    println!(
        "param_plans: {} variants, {} nodes, {} edges, trace of {} (α={alpha}), {} threads",
        cfg.variants,
        ps.scenario.source.node_count(),
        ps.scenario.source.edge_count(),
        trace.len(),
        threads,
    );

    // the prepared half: one skeleton for the whole family, per-variant
    // binding vectors recovered by canonicalising one exemplar each
    let exemplars: Vec<DataQuery> = ps
        .variants
        .iter()
        .enumerate()
        .map(|(i, name)| param_request(&mut ta, name, i as u64))
        .collect();
    let (skeleton, _) = canonicalize(&exemplars[0]);
    let bindings: Vec<Vec<gde_datagraph::Label>> = exemplars
        .iter()
        .map(|q| {
            let (s, b) = canonicalize(q);
            assert_eq!(s.hash(), skeleton.hash(), "one family, one skeleton");
            b.labels().to_vec()
        })
        .collect();

    // alpha-fresh request pools: pool[pass][i] is the trace's i-th request
    // with a serial no other pass uses, so the cold arm can never warm up
    // across criterion samples
    let passes = sample_size + 2;
    let mut pool_for = |arm: u64| -> Vec<Vec<DataQuery>> {
        (0..passes)
            .map(|p| {
                trace
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let serial = (arm * passes as u64 + p as u64) * trace_len as u64 + i as u64;
                        param_request(&mut ta, &ps.variants[v], serial)
                    })
                    .collect()
            })
            .collect()
    };
    let cold_pool = pool_for(1);
    let routed_pool = pool_for(2);

    let service = |canon: bool| {
        let svc = MappingService::new();
        let id = svc.register(ps.scenario.gsm.clone(), ps.scenario.source.clone());
        svc.set_canonicalisation(canon);
        svc.prepare(id, Semantics::nulls()).expect("prepares");
        (svc, id)
    };
    let (svc_cold, cold_id) = service(false);
    let (svc_routed, routed_id) = service(true);
    let (svc_bound, bound_id) = service(true);
    let tpl = svc_bound
        .register_template(bound_id, &skeleton)
        .expect("registered mapping interns the template");

    // every strategy serves byte-identical answers, variant by variant
    for (v, q) in exemplars.iter().enumerate() {
        let cold = svc_cold
            .answer(cold_id, &q.compile(), Semantics::nulls())
            .expect("cold serve");
        let routed = svc_routed
            .answer(routed_id, &q.compile(), Semantics::nulls())
            .expect("routed serve");
        let bound = svc_bound
            .answer_bound(bound_id, tpl, &bindings[v], Semantics::nulls())
            .expect("bound serve");
        assert_eq!(cold, routed, "routed answers must match cold at rel_{v}");
        assert_eq!(cold, bound, "bound answers must match cold at rel_{v}");
    }

    // warm the routed and bound services to steady state before timing
    for (i, &v) in trace.iter().enumerate() {
        let q = param_request(&mut ta, &ps.variants[v], 900_000 + i as u64);
        svc_routed
            .answer(routed_id, &q.compile(), Semantics::nulls())
            .expect("warmup serve");
        svc_bound
            .answer_bound(bound_id, tpl, &bindings[v], Semantics::nulls())
            .expect("warmup serve");
    }

    let stats = |svc: &MappingService, id| svc.serving_stats(id).expect("registered");
    let mut group = c.benchmark_group("param_plans");
    group.sample_size(sample_size);

    let mut cold_pass = 0usize;
    group.bench_with_input(BenchmarkId::from_parameter("cold"), &(), |b, ()| {
        b.iter(|| {
            let qs = &cold_pool[cold_pass % cold_pool.len()];
            cold_pass += 1;
            for q in qs {
                black_box(
                    svc_cold
                        .answer(cold_id, &q.compile(), Semantics::nulls())
                        .expect("cold serve"),
                );
            }
        })
    });

    let routed_before = stats(&svc_routed, routed_id);
    let mut routed_pass = 0usize;
    group.bench_with_input(BenchmarkId::from_parameter("routed"), &(), |b, ()| {
        b.iter(|| {
            let qs = &routed_pool[routed_pass % routed_pool.len()];
            routed_pass += 1;
            for q in qs {
                black_box(
                    svc_routed
                        .answer(routed_id, &q.compile(), Semantics::nulls())
                        .expect("routed serve"),
                );
            }
        })
    });
    let routed_after = stats(&svc_routed, routed_id);

    let bound_before = stats(&svc_bound, bound_id);
    group.bench_with_input(BenchmarkId::from_parameter("bound"), &(), |b, ()| {
        b.iter(|| {
            for &v in &trace {
                black_box(
                    svc_bound
                        .answer_bound(bound_id, tpl, &bindings[v], Semantics::nulls())
                        .expect("bound serve"),
                );
            }
        })
    });
    let bound_after = stats(&svc_bound, bound_id);
    group.finish();

    let routed_requests = ((sample_size + 1) * trace_len) as u64;
    let template_hit_rate =
        (routed_after.template_hits - routed_before.template_hits) as f64 / routed_requests as f64;
    let subrel_hits = bound_after.cache_hits - bound_before.cache_hits;
    let subrel_misses = bound_after.cache_misses - bound_before.cache_misses;
    let subrel_hit_rate = subrel_hits as f64 / (subrel_hits + subrel_misses).max(1) as f64;
    let compile_skipped_ns = (routed_after.compile_skipped_ns - routed_before.compile_skipped_ns)
        + (bound_after.compile_skipped_ns - bound_before.compile_skipped_ns);

    let ns = |name: &str| c.median_ns("param_plans", name).expect("measured");
    let (cold_ns, routed_ns, bound_ns) = (ns("cold"), ns("routed"), ns("bound"));
    let speedup_bound = cold_ns as f64 / bound_ns.max(1) as f64;
    let speedup_routed = cold_ns as f64 / routed_ns.max(1) as f64;
    println!(
        "trace of {trace_len}: cold {:.3} ms, routed {:.3} ms ({speedup_routed:.2}x), \
         bound {:.3} ms ({speedup_bound:.2}x)",
        cold_ns as f64 / 1e6,
        routed_ns as f64 / 1e6,
        bound_ns as f64 / 1e6,
    );
    println!(
        "steady state: template hit rate {template_hit_rate:.2}, sub-relation hit rate \
         {subrel_hit_rate:.2} ({subrel_hits} hits / {subrel_misses} misses), \
         compile skipped {:.3} ms",
        compile_skipped_ns as f64 / 1e6,
    );
    assert!(
        template_hit_rate > 0.0 && subrel_hit_rate > 0.0,
        "steady-state Zipf traffic must hit the template and sub-relation caches"
    );
    if smoke {
        return;
    }
    assert!(
        template_hit_rate >= 0.9 && subrel_hit_rate >= 0.9,
        "steady-state hit rates must reach 0.9 \
         (template {template_hit_rate:.2}, sub-relation {subrel_hit_rate:.2})"
    );
    assert!(
        speedup_bound >= 5.0,
        "template-bound serving must beat per-variant cold compile+serve 5x \
         (got {speedup_bound:.2}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"param_plans\",\n  \"workload\": \"param_family_scenario\",\n  \
         \"smoke\": false,\n  \"variants\": {},\n  \"source_nodes\": {},\n  \
         \"source_edges\": {},\n  \"zipf_alpha\": {alpha},\n  \"trace_len\": {trace_len},\n  \
         \"threads\": {threads},\n  \"physical_cpus\": {physical_cpus},\n  \
         \"cold_trace_ns\": {cold_ns},\n  \"routed_trace_ns\": {routed_ns},\n  \
         \"bound_trace_ns\": {bound_ns},\n  \
         \"speedup_bound_over_cold\": {speedup_bound:.2},\n  \
         \"speedup_routed_over_cold\": {speedup_routed:.2},\n  \
         \"template_hit_rate\": {template_hit_rate:.2},\n  \
         \"subrel_hit_rate\": {subrel_hit_rate:.2},\n  \
         \"compile_skipped_ns\": {compile_skipped_ns}\n}}\n",
        cfg.variants,
        ps.scenario.source.node_count(),
        ps.scenario.source.edge_count(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_params.json");
    std::fs::write(path, json).expect("write BENCH_params.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
