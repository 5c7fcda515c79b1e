//! Sharded serving bench: one prepared mapping served at shard counts
//! K ∈ {1, 2, 4, 8}, measuring steady-state **batch throughput** of
//! `MappingService::answer_batch` on the ~20k-node social workload
//! (`sharded_serving_scenario`).
//!
//! The measured batch is a serving mix: the selective data-test queries
//! are answered in **tuple** mode (their results are what a caller
//! returns), while the heavy navigational/analytic queries are answered
//! as Boolean **existence checks** ("is there any endorsement path?") —
//! the classic cheap probe in front of an expensive report. Both modes
//! are also measured separately and all three series land in the JSON.
//!
//! Where the K-speedup comes from:
//!
//! * **Boolean mode** stops at the first witness inside a stripe at
//!   every K, one stripe included: per-start classes (RPQ, REM) at the
//!   first satisfying start row, and this batch's REEs, all rooted in an
//!   `=`/`≠` test, at the first row with a passing pair. The stripes
//!   OR-merge with a short-circuit — a satisfied flag stops remaining
//!   stripes from starting — so K buys these Booleans parallelism only,
//!   and on one thread the Boolean batch is flat across K.
//! * **Tuple mode** splits every query into `(query, stripe)` tasks the
//!   dynamic scheduler spreads over `par` workers, and steady-state
//!   serving reads each stripe's answer back from the sub-relation
//!   cache as the sorted, dom-filtered run it served: the timed
//!   iterations measure warm-cache serving (read the cached runs and lay
//!   them end to end), which is the production access pattern of a
//!   long-lived service. K=1 is a one-stripe plan that reads and fills
//!   the same cache, so the tuple K-speedup is the fan-out alone, with
//!   hit rates recorded alongside to show every K serves warm; a repeated
//!   batch must hit on every `(query, stripe)`, which the bench asserts
//!   (in smoke mode too).
//!
//! Answers are asserted byte-identical across every K, in both modes,
//! before anything is measured.
//!
//! A **thread sweep** re-times the tuple and Boolean batches at
//! GDE_MAX_THREADS ∈ {1, 2, 4, 8} × K (runtime-forced via
//! `par::set_max_threads`), with per-cell cache hit/miss deltas from
//! `ServingStats` — the scheduler had only ever been measured on however
//! many cores the bench host happened to have. `physical_cpus` lands in
//! the JSON so a 1-CPU container's sweep is read for what it is
//! (scheduling overhead, not parallel speedup).
//!
//! Each K also records `prepared_bytes`, the prepared solution's
//! `approx_bytes()` right after `prepare`. A stripe is a row range of the
//! one snapshot, not a copy, so the figure is the same at every K; the
//! bench asserts that (in smoke mode too), so a stripe that starts
//! copying the snapshot again fails it.
//!
//! Emits `BENCH_sharded.json` at the workspace root as a machine-readable
//! perf baseline (full mode only). `SHARDED_SERVING_SMOKE=1` (CI) shrinks
//! the graph, runs K ∈ {1, 2}, forces 2 threads unless GDE_MAX_THREADS
//! is set (the CI matrix leg sets 4), and writes nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gde_core::{Gsm, MappingId, MappingService, Semantics};
use gde_datagraph::{par, DataGraph};
use gde_dataquery::CompiledQuery;
use gde_workload::{merge_bound_queries, sharded_serving_scenario, SHARDED_BOOLEAN_QUERIES};
use std::sync::Arc;

fn smoke() -> bool {
    std::env::var("SHARDED_SERVING_SMOKE").is_ok()
}

fn bench(c: &mut Criterion) {
    let smoke = smoke();
    if smoke && std::env::var("GDE_MAX_THREADS").is_err() {
        // the sharded scheduler must run even on single-core CI runners —
        // but an explicit GDE_MAX_THREADS (the CI thread-matrix leg) wins
        par::set_max_threads(2);
    }
    let threads = par::max_threads();
    let physical_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = if smoke { 1600 } else { 20480 };
    let ks: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let sv = sharded_serving_scenario(scale, 0x5AD5);
    let queries: Vec<CompiledQuery> = sv.queries.iter().map(|(_, q)| q.compile()).collect();
    let boolean: Vec<CompiledQuery> = sv
        .queries
        .iter()
        .filter(|(n, _)| SHARDED_BOOLEAN_QUERIES.contains(&n.as_str()))
        .map(|(_, q)| q.compile())
        .collect();
    let tuple: Vec<CompiledQuery> = sv
        .queries
        .iter()
        .filter(|(n, _)| !SHARDED_BOOLEAN_QUERIES.contains(&n.as_str()))
        .map(|(_, q)| q.compile())
        .collect();
    assert_eq!(
        boolean.len(),
        SHARDED_BOOLEAN_QUERIES.len(),
        "names stay in sync"
    );
    let gsm: Arc<Gsm> = Arc::new(sv.scenario.gsm);
    let source: Arc<DataGraph> = Arc::new(sv.scenario.source);
    println!(
        "sharded_serving: {} source nodes, {} source edges, {} queries \
         ({} tuple + {} boolean), {} threads",
        source.node_count(),
        source.edge_count(),
        queries.len(),
        tuple.len(),
        boolean.len(),
        threads,
    );

    // one service per K, prepared outside the measured path: the bench is
    // steady-state serving, not preparation
    let mut prepared_bytes: Vec<usize> = Vec::with_capacity(ks.len());
    let services: Vec<(usize, MappingService, MappingId)> = ks
        .iter()
        .map(|&k| {
            let svc = MappingService::new();
            let id = svc.register(gsm.clone(), source.clone());
            svc.set_shard_count(id, k).expect("registered");
            svc.prepare(id, Semantics::nulls()).expect("prepares");
            let prep = svc.solution(id, Semantics::nulls()).expect("prepared");
            prepared_bytes.push(prep.approx_bytes());
            (k, svc, id)
        })
        .collect();
    for (&k, &bytes) in ks.iter().zip(&prepared_bytes) {
        println!("k={k}: {bytes} prepared bytes");
    }
    assert!(
        prepared_bytes.iter().all(|&b| b == prepared_bytes[0]),
        "a stripe must not copy the snapshot: prepared bytes per K {prepared_bytes:?}"
    );

    // the merge-bound batch: high-cardinality tuple queries where
    // assembling and copying the answer, not the evaluation, is the
    // interesting cost
    let mut mta = gsm.target_alphabet().clone();
    let mb_queries: Vec<CompiledQuery> = merge_bound_queries(&mut mta)
        .iter()
        .map(|(_, q)| q.compile())
        .collect();

    // sanity: every K serves byte-identical answers in both modes, on the
    // merge-bound batch too
    let tuple_ref = services[0]
        .1
        .answer_batch(services[0].2, &queries, Semantics::nulls());
    let bool_ref = services[0]
        .1
        .answer_batch(services[0].2, &queries, Semantics::nulls_boolean());
    let mb_ref = services[0]
        .1
        .answer_batch(services[0].2, &mb_queries, Semantics::nulls());
    for (k, svc, id) in &services[1..] {
        assert_eq!(
            svc.answer_batch(*id, &queries, Semantics::nulls()),
            tuple_ref,
            "tuple answers must match at k={k}"
        );
        assert_eq!(
            svc.answer_batch(*id, &queries, Semantics::nulls_boolean()),
            bool_ref,
            "boolean answers must match at k={k}"
        );
        assert_eq!(
            svc.answer_batch(*id, &mb_queries, Semantics::nulls()),
            mb_ref,
            "merge-bound answers must match at k={k}"
        );
    }

    let mb_pairs_total: usize = mb_ref
        .iter()
        .map(|a| a.clone().expect("merge-bound answers").into_pairs().len())
        .sum();

    let mut group = c.benchmark_group("sharded_serving");
    group.sample_size(if smoke { 3 } else { 5 });
    for (k, svc, id) in &services {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("merge_bound_k{k}")),
            &(),
            |b, ()| b.iter(|| svc.answer_batch(*id, &mb_queries, Semantics::nulls())),
        );
    }
    for (k, svc, id) in &services {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("mixed_k{k}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let t = svc.answer_batch(*id, &tuple, Semantics::nulls());
                    let e = svc.answer_batch(*id, &boolean, Semantics::nulls_boolean());
                    (t, e)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("tuple_k{k}")),
            &(),
            |b, ()| b.iter(|| svc.answer_batch(*id, &queries, Semantics::nulls())),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("boolean_k{k}")),
            &(),
            |b, ()| b.iter(|| svc.answer_batch(*id, &queries, Semantics::nulls_boolean())),
        );
    }
    group.finish();

    // repeated-batch cache effectiveness, on a *fresh* K=4 (K=2 in
    // smoke) service so the measured hit rate is the second batch's
    // alone, not an artifact of the warmed bench services above
    let fresh_k = if smoke { 2 } else { 4 };
    let fresh = MappingService::new();
    let fresh_id = fresh.register(gsm.clone(), source.clone());
    fresh
        .set_shard_count(fresh_id, fresh_k)
        .expect("registered");
    fresh
        .prepare(fresh_id, Semantics::nulls())
        .expect("prepares");
    let cold = fresh.answer_batch(fresh_id, &queries, Semantics::nulls());
    let before = fresh.serving_stats(fresh_id).expect("registered");
    let warm = fresh.answer_batch(fresh_id, &queries, Semantics::nulls());
    let after = fresh.serving_stats(fresh_id).expect("registered");
    assert_eq!(cold, warm, "cached batch must serve identical answers");
    let warm_hits = after.cache_hits - before.cache_hits;
    let warm_misses = after.cache_misses - before.cache_misses;
    let repeated_hit_rate = warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64;
    assert!(
        warm_hits == queries.len() as u64 && warm_misses == 0,
        "every query of a repeated batch must hit the sub-relation cache once: \
         {warm_hits} hits / {warm_misses} misses"
    );
    println!(
        "repeated batch at k={fresh_k}: {warm_hits} hits / {warm_misses} misses \
         ({:.0}% hit rate), {} cache bytes, memo share {:.2}",
        repeated_hit_rate * 100.0,
        after.cache_bytes,
        after.memo_share(),
    );

    // the thread sweep: tuple + boolean batches at every (threads, K),
    // warm-cache steady state, with per-cell cache-counter deltas
    let sweep_threads: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let mut sweep_cells: Vec<(usize, usize, u64, u64)> = Vec::new();
    let mut sweep = c.benchmark_group("sharded_sweep");
    sweep.sample_size(3);
    for &t in &sweep_threads {
        par::set_max_threads(t);
        for (k, svc, id) in &services {
            let before = svc.serving_stats(*id).expect("registered");
            sweep.bench_with_input(
                BenchmarkId::from_parameter(format!("tuple_t{t}_k{k}")),
                &(),
                |b, ()| b.iter(|| svc.answer_batch(*id, &queries, Semantics::nulls())),
            );
            sweep.bench_with_input(
                BenchmarkId::from_parameter(format!("boolean_t{t}_k{k}")),
                &(),
                |b, ()| b.iter(|| svc.answer_batch(*id, &queries, Semantics::nulls_boolean())),
            );
            let s = svc.serving_stats(*id).expect("registered");
            sweep_cells.push((
                t,
                *k,
                s.cache_hits - before.cache_hits,
                s.cache_misses - before.cache_misses,
            ));
        }
    }
    par::set_max_threads(0); // restore the GDE_MAX_THREADS / auto default
    sweep.finish();

    let series = |name: &str| -> Vec<(usize, u64)> {
        ks.iter()
            .map(|&k| {
                (
                    k,
                    c.median_ns("sharded_serving", &format!("{name}_k{k}"))
                        .expect("measured"),
                )
            })
            .collect()
    };
    let mixed = series("mixed");
    let tuples = series("tuple");
    let booleans = series("boolean");
    let merge_bound = series("merge_bound");
    println!(
        "merge-bound batch: {} queries, {} answer pairs",
        mb_queries.len(),
        mb_pairs_total,
    );
    let speedup_at = |s: &[(usize, u64)], k: usize| -> f64 {
        let t1 = s[0].1;
        s.iter()
            .find(|&&(kk, _)| kk == k)
            .map(|&(_, ns)| t1 as f64 / ns.max(1) as f64)
            .unwrap_or(1.0)
    };
    for &(k, ns) in &mixed {
        println!(
            "k={k}: mixed batch {:.3} ms ({:.2}x over k=1), tuple {:.3} ms, boolean {:.3} ms",
            ns as f64 / 1e6,
            speedup_at(&mixed, k),
            tuples.iter().find(|&&(kk, _)| kk == k).unwrap().1 as f64 / 1e6,
            booleans.iter().find(|&&(kk, _)| kk == k).unwrap().1 as f64 / 1e6,
        );
    }

    // sweep summary (printed in smoke too; JSON is full-mode only)
    let sweep_ns = |name: &str, t: usize, k: usize| -> u64 {
        c.median_ns("sharded_sweep", &format!("{name}_t{t}_k{k}"))
            .expect("swept")
    };
    for &(t, k, hits, misses) in &sweep_cells {
        println!(
            "threads={t} k={k}: tuple {:.3} ms, boolean {:.3} ms, cache {hits} hits / {misses} misses",
            sweep_ns("tuple", t, k) as f64 / 1e6,
            sweep_ns("boolean", t, k) as f64 / 1e6,
        );
    }
    let sweep_speedup = |t: usize| -> f64 {
        let k1 = sweep_ns("tuple", t, ks[0]);
        let k4 = sweep_ns("tuple", t, if smoke { 2 } else { 4 });
        k1 as f64 / k4.max(1) as f64
    };
    let t_hi = *sweep_threads.last().expect("nonempty sweep");
    println!(
        "tuple k{}-over-k1 speedup: {:.2}x at {} threads (physical cpus: {physical_cpus})",
        if smoke { 2 } else { 4 },
        sweep_speedup(t_hi),
        t_hi,
    );

    if smoke {
        return;
    }
    let per_k: Vec<String> = ks
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            format!(
                "    {{ \"k\": {k}, \"prepared_bytes\": {}, \"mixed_batch_ns\": {}, \
                 \"tuple_batch_ns\": {}, \"boolean_batch_ns\": {}, \
                 \"merge_bound_batch_ns\": {} }}",
                prepared_bytes[i], mixed[i].1, tuples[i].1, booleans[i].1, merge_bound[i].1
            )
        })
        .collect();
    let sweep_json: Vec<String> = sweep_cells
        .iter()
        .map(|&(t, k, hits, misses)| {
            format!(
                "    {{ \"threads\": {t}, \"k\": {k}, \"tuple_batch_ns\": {}, \
                 \"boolean_batch_ns\": {}, \"cache_hits\": {hits}, \"cache_misses\": {misses}, \
                 \"cache_hit_rate\": {:.2} }}",
                sweep_ns("tuple", t, k),
                sweep_ns("boolean", t, k),
                hits as f64 / (hits + misses).max(1) as f64,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sharded_serving\",\n  \"workload\": \"sharded_serving_scenario\",\n  \
         \"smoke\": false,\n  \"scale\": {},\n  \"source_nodes\": {},\n  \"source_edges\": {},\n  \
         \"solution_nodes\": {},\n  \"queries\": {},\n  \"boolean_queries\": {},\n  \
         \"threads\": {},\n  \"physical_cpus\": {physical_cpus},\n  \
         \"per_k\": [\n{}\n  ],\n  \
         \"speedup_k4_over_k1\": {:.2},\n  \"tuple_speedup_k4_over_k1\": {:.2},\n  \
         \"boolean_speedup_k4_over_k1\": {:.2},\n  \
         \"tuple_speedup_k4_over_k1_at_4_threads\": {:.2},\n  \
         \"repeated_batch_cache_hit_rate\": {repeated_hit_rate:.2},\n  \
         \"thread_sweep\": [\n{}\n  ],\n  \"merge_bound\": {{\n    \
         \"workload\": \"merge_bound_queries\",\n    \"queries\": {},\n    \
         \"answer_pairs\": {}\n  }}\n}}\n",
        scale,
        source.node_count(),
        source.edge_count(),
        services[0]
            .1
            .solution(services[0].2, Semantics::nulls())
            .expect("prepared")
            .snapshot()
            .n(),
        queries.len(),
        boolean.len(),
        threads,
        per_k.join(",\n"),
        speedup_at(&mixed, 4),
        speedup_at(&tuples, 4),
        speedup_at(&booleans, 4),
        sweep_speedup(4),
        sweep_json.join(",\n"),
        mb_queries.len(),
        mb_pairs_total,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharded.json");
    std::fs::write(path, json).expect("write BENCH_sharded.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
