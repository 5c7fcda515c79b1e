//! Batch serving bench: one prepared mapping on the ~20k-node social
//! workload (`sharded_serving_scenario`), measuring
//! `MappingService::answer_batch` warm and cold across a **thread sweep**
//! (`GDE_MAX_THREADS` ∈ {1, 2, 4, 8}, runtime-forced via
//! `par::set_max_threads`).
//!
//! The measured batch is a serving mix: the selective data-test queries
//! are answered in **tuple** mode (their results are what a caller
//! returns), while the heavy navigational/analytic queries are answered
//! as Boolean **existence checks** ("is there any endorsement path?") —
//! the classic cheap probe in front of an expensive report. Both modes
//! are also measured separately and all three series land in the JSON.
//!
//! * **Warm** batches read each query's whole answer or verdict back
//!   from the sub-relation cache: one lookup per query on the calling
//!   thread, no worker spawned, so the warm series should be flat across
//!   the sweep. A repeated batch must hit once per query and miss
//!   nothing, which the bench asserts (in smoke mode too).
//! * **Cold** batches run on a freshly prepared solution, so every query
//!   misses and is evaluated as one task on the `par` workers: this is
//!   where the thread count can pay. Each cold cell is the median of a
//!   few single timed batches, each on its own fresh service, with the
//!   preparation outside the timing.
//!
//! Answers are asserted byte-identical before anything is measured: a
//! cold batch at every swept thread count against single `answer` calls,
//! in both modes and on the merge-bound batch.
//!
//! The bench also records `prepared_bytes`, the prepared solution's
//! `approx_bytes()` right after `prepare`. `physical_cpus` lands in the
//! JSON so a small host's sweep is read for what it is (scheduling
//! overhead, not parallel speedup).
//!
//! Emits `BENCH_sharded.json` at the workspace root as a machine-readable
//! perf baseline (full mode only). `SHARDED_SERVING_SMOKE=1` (CI) shrinks
//! the graph, sweeps threads ∈ {1, 2}, and writes nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gde_core::{Answer, Gsm, MappingId, MappingService, Semantics, ServeError};
use gde_datagraph::{par, DataGraph};
use gde_dataquery::CompiledQuery;
use gde_workload::{merge_bound_queries, sharded_serving_scenario, SHARDED_BOOLEAN_QUERIES};
use std::sync::Arc;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("SHARDED_SERVING_SMOKE").is_ok()
}

type Batch = Vec<Result<Answer, ServeError>>;

fn bench(c: &mut Criterion) {
    let smoke = smoke();
    let threads = par::max_threads();
    let physical_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = if smoke { 1600 } else { 20480 };
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

    // a freshly prepared service: preparation stays outside every timing
    let fresh = || -> (MappingService, MappingId) {
        let svc = MappingService::new();
        let id = svc.register(gsm.clone(), source.clone());
        svc.prepare(id, Semantics::nulls()).expect("prepares");
        (svc, id)
    };
    let (svc, id) = fresh();
    let prepared_bytes = svc
        .solution(id, Semantics::nulls())
        .expect("prepared")
        .approx_bytes();
    println!("{prepared_bytes} prepared bytes");

    // the merge-bound batch: high-cardinality tuple queries where
    // building and copying the answer, not the evaluation, is the
    // interesting cost
    let mut mta = gsm.target_alphabet().clone();
    let mb_queries: Vec<CompiledQuery> = merge_bound_queries(&mut mta)
        .iter()
        .map(|(_, q)| q.compile())
        .collect();

    // sanity: a cold batch at every swept thread count serves what single
    // answers serve, in both modes and on the merge-bound batch
    let sweep_threads: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let singles = |qs: &[CompiledQuery], sem: Semantics| -> Batch {
        let (svc, id) = fresh();
        qs.iter().map(|q| svc.answer(id, q, sem)).collect()
    };
    let checks = [
        (&queries, Semantics::nulls(), "tuple"),
        (&queries, Semantics::nulls_boolean(), "boolean"),
        (&mb_queries, Semantics::nulls(), "merge-bound"),
    ];
    let references: Vec<Batch> = checks
        .iter()
        .map(|&(qs, sem, _)| singles(qs, sem))
        .collect();
    for &t in &sweep_threads {
        par::set_max_threads(t);
        for ((qs, sem, name), want) in checks.iter().zip(&references) {
            let (svc, id) = fresh();
            assert_eq!(
                &svc.answer_batch(id, qs, *sem),
                want,
                "{name} batch at {t} threads"
            );
        }
    }
    par::set_max_threads(0); // restore the GDE_MAX_THREADS / auto default
    let mb_pairs_total: usize = references[2]
        .iter()
        .map(|a| a.clone().expect("merge-bound answers").into_pairs().len())
        .sum();

    // warm the measured service, then time steady-state batches
    for (qs, sem, _) in checks {
        svc.answer_batch(id, qs, sem);
    }
    let mut group = c.benchmark_group("sharded_serving");
    group.sample_size(if smoke { 3 } else { 5 });
    group.bench_with_input(BenchmarkId::from_parameter("merge_bound"), &(), |b, ()| {
        b.iter(|| svc.answer_batch(id, &mb_queries, Semantics::nulls()))
    });
    group.bench_with_input(BenchmarkId::from_parameter("mixed"), &(), |b, ()| {
        b.iter(|| {
            let t = svc.answer_batch(id, &tuple, Semantics::nulls());
            let e = svc.answer_batch(id, &boolean, Semantics::nulls_boolean());
            (t, e)
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("tuple"), &(), |b, ()| {
        b.iter(|| svc.answer_batch(id, &queries, Semantics::nulls()))
    });
    group.bench_with_input(BenchmarkId::from_parameter("boolean"), &(), |b, ()| {
        b.iter(|| svc.answer_batch(id, &queries, Semantics::nulls_boolean()))
    });
    group.finish();

    // repeated-batch cache effectiveness, on a *fresh* service so the
    // measured hit rate is the second batch's alone
    let (once, once_id) = fresh();
    let cold = once.answer_batch(once_id, &queries, Semantics::nulls());
    let before = once.serving_stats(once_id).expect("registered");
    let warm = once.answer_batch(once_id, &queries, Semantics::nulls());
    let after = once.serving_stats(once_id).expect("registered");
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
        "repeated batch: {warm_hits} hits / {warm_misses} misses ({:.0}% hit rate), \
         {} cache bytes, memo share {:.2}",
        repeated_hit_rate * 100.0,
        after.cache_bytes,
        after.memo_share(),
    );

    // the thread sweep: warm batches through criterion, then one more
    // warm tuple batch whose cache-counter delta must be one hit per
    // query; cold batches as the median of single timed batches on fresh
    // services
    let cold_reps = if smoke { 1 } else { 3 };
    let cold_ns = |sem: Semantics| -> u64 {
        let mut times: Vec<u64> = (0..cold_reps)
            .map(|_| {
                let (svc, id) = fresh();
                let started = Instant::now();
                svc.answer_batch(id, &queries, sem);
                started.elapsed().as_nanos() as u64
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };
    let mut sweep_cells: Vec<(usize, u64, u64, u64, u64)> = Vec::new();
    let mut sweep = c.benchmark_group("sharded_sweep");
    sweep.sample_size(3);
    for &t in &sweep_threads {
        par::set_max_threads(t);
        sweep.bench_with_input(
            BenchmarkId::from_parameter(format!("tuple_t{t}")),
            &(),
            |b, ()| b.iter(|| svc.answer_batch(id, &queries, Semantics::nulls())),
        );
        sweep.bench_with_input(
            BenchmarkId::from_parameter(format!("boolean_t{t}")),
            &(),
            |b, ()| b.iter(|| svc.answer_batch(id, &queries, Semantics::nulls_boolean())),
        );
        let before = svc.serving_stats(id).expect("registered");
        svc.answer_batch(id, &queries, Semantics::nulls());
        let s = svc.serving_stats(id).expect("registered");
        let (hits, misses) = (
            s.cache_hits - before.cache_hits,
            s.cache_misses - before.cache_misses,
        );
        assert_eq!(
            (hits, misses),
            (queries.len() as u64, 0),
            "a warm batch at {t} threads is one hit per query"
        );
        sweep_cells.push((
            t,
            cold_ns(Semantics::nulls()),
            cold_ns(Semantics::nulls_boolean()),
            hits,
            misses,
        ));
    }
    par::set_max_threads(0);
    sweep.finish();

    let warm_ns = |name: &str| c.median_ns("sharded_serving", name).expect("measured");
    let (mixed, tuples, booleans, merge_bound) = (
        warm_ns("mixed"),
        warm_ns("tuple"),
        warm_ns("boolean"),
        warm_ns("merge_bound"),
    );
    println!(
        "warm batches: mixed {:.3} ms, tuple {:.3} ms, boolean {:.3} ms, \
         merge-bound {:.3} ms ({} queries, {mb_pairs_total} answer pairs)",
        mixed as f64 / 1e6,
        tuples as f64 / 1e6,
        booleans as f64 / 1e6,
        merge_bound as f64 / 1e6,
        mb_queries.len(),
    );
    // sweep summary (printed in smoke too; JSON is full-mode only)
    let sweep_ns = |name: &str, t: usize| -> u64 {
        c.median_ns("sharded_sweep", &format!("{name}_t{t}"))
            .expect("swept")
    };
    for &(t, cold_tuple, cold_bool, hits, misses) in &sweep_cells {
        println!(
            "threads={t}: warm tuple {:.3} ms, warm boolean {:.3} ms, cache {hits} hits / \
             {misses} misses; cold tuple {:.3} ms, cold boolean {:.3} ms",
            sweep_ns("tuple", t) as f64 / 1e6,
            sweep_ns("boolean", t) as f64 / 1e6,
            cold_tuple as f64 / 1e6,
            cold_bool as f64 / 1e6,
        );
    }
    println!("physical cpus: {physical_cpus}");

    if smoke {
        return;
    }
    let sweep_json: Vec<String> = sweep_cells
        .iter()
        .map(|&(t, cold_tuple, cold_bool, hits, misses)| {
            format!(
                "    {{ \"threads\": {t}, \"tuple_batch_ns\": {}, \"boolean_batch_ns\": {}, \
                 \"cold_tuple_batch_ns\": {cold_tuple}, \"cold_boolean_batch_ns\": {cold_bool}, \
                 \"cache_hits\": {hits}, \"cache_misses\": {misses}, \
                 \"cache_hit_rate\": {:.2} }}",
                sweep_ns("tuple", t),
                sweep_ns("boolean", t),
                hits as f64 / (hits + misses).max(1) as f64,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sharded_serving\",\n  \"workload\": \"sharded_serving_scenario\",\n  \
         \"smoke\": false,\n  \"scale\": {},\n  \"source_nodes\": {},\n  \"source_edges\": {},\n  \
         \"solution_nodes\": {},\n  \"queries\": {},\n  \"boolean_queries\": {},\n  \
         \"threads\": {},\n  \"physical_cpus\": {physical_cpus},\n  \
         \"prepared_bytes\": {prepared_bytes},\n  \"mixed_batch_ns\": {mixed},\n  \
         \"tuple_batch_ns\": {tuples},\n  \"boolean_batch_ns\": {booleans},\n  \
         \"merge_bound_batch_ns\": {merge_bound},\n  \
         \"repeated_batch_cache_hit_rate\": {repeated_hit_rate:.2},\n  \
         \"thread_sweep\": [\n{}\n  ],\n  \"merge_bound\": {{\n    \
         \"workload\": \"merge_bound_queries\",\n    \"queries\": {},\n    \
         \"answer_pairs\": {mb_pairs_total}\n  }}\n}}\n",
        scale,
        source.node_count(),
        source.edge_count(),
        svc.solution(id, Semantics::nulls())
            .expect("prepared")
            .snapshot()
            .n(),
        queries.len(),
        boolean.len(),
        threads,
        sweep_json.join(",\n"),
        mb_queries.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharded.json");
    std::fs::write(path, json).expect("write BENCH_sharded.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
