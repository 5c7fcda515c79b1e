//! Per-query timing probe for the `sharded_serving_scenario` workload
//! (dev tool). `cargo run --release -p gde-bench --bin probe_sharded [scale]`
//!
//! Every measured call also prints the `ServingStats` **delta** it
//! produced — eval vs memo/cache-build vs answer-building nanoseconds,
//! and sub-relation cache hits/misses — so a slow first serve is
//! diagnosable from one run: a high memo share means phase 1 dominates,
//! a low hit rate on a repeated batch means the cache is being
//! invalidated (or the queries aren't structurally stable).

use gde_core::{MappingService, Semantics, ServingStats};
use gde_dataquery::CompiledQuery;
use gde_workload::{sharded_serving_scenario, SHARDED_BOOLEAN_QUERIES};
use std::sync::Arc;
use std::time::Instant;

/// The per-phase accounting of one serving call: `after - before` of the
/// mapping's cumulative [`ServingStats`], rendered compactly.
fn phases(before: &ServingStats, after: &ServingStats) -> String {
    let eval = after.eval_ns - before.eval_ns;
    let memo = after.memo_build_ns - before.memo_build_ns;
    let merge = after.merge_ns - before.merge_ns;
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let mut out = format!(
        "eval {:.2}ms, memo {:.2}ms, merge {:.2}ms, cache {hits}h/{misses}m",
        eval as f64 / 1e6,
        memo as f64 / 1e6,
        merge as f64 / 1e6,
    );
    // fault-isolation counters only print when a call actually tripped
    // one — a healthy probe run stays on one line per call
    for (label, b, a) in [
        ("rejected", before.rejected, after.rejected),
        ("degraded", before.degraded, after.degraded),
        (
            "deadline",
            before.deadline_exceeded,
            after.deadline_exceeded,
        ),
        ("cancelled", before.cancelled, after.cancelled),
        ("panics", before.worker_panics, after.worker_panics),
        ("retries", before.retries, after.retries),
        ("static-empty", before.static_empty, after.static_empty),
    ] {
        if a > b {
            out.push_str(&format!(", {label} {}", a - b));
        }
    }
    out
}

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20480);
    let t0 = Instant::now();
    let sv = sharded_serving_scenario(scale, 0x5AD5);
    let queries: Vec<(String, CompiledQuery)> = sv
        .queries
        .iter()
        .map(|(n, q)| (n.clone(), q.compile()))
        .collect();
    let svc = MappingService::new();
    let id = svc.register(Arc::new(sv.scenario.gsm), Arc::new(sv.scenario.source));
    // label the stats so aggregated reports (and this probe's output) say
    // which tenant namespace the counters belong to
    svc.set_tenant_label(id, "probe").unwrap();
    // register the workload so the analyzer can prune dead/subsumed rules
    // before the build
    let all: Vec<CompiledQuery> = queries.iter().map(|(_, q)| q.clone()).collect();
    svc.register_queries(id, &all).unwrap();
    println!("gen {:?}; preparing…", t0.elapsed());
    let t = Instant::now();
    svc.prepare(id, Semantics::nulls()).unwrap();
    println!("prepare {:?}", t.elapsed());
    let report = svc.analyze(id, &all).unwrap();
    println!(
        "analyzer: {}/{} rules live ({} dead, {} subsumed); {} statically empty queries, {} closure hazards",
        report.live_rules(),
        report.rule_count,
        report.dead_rules.len(),
        report.subsumed_rules.len(),
        report.statically_empty(),
        report.closure_hazards(),
    );
    let empty: Vec<bool> = report.verdicts.iter().map(|v| v.statically_empty).collect();
    let stats = || svc.serving_stats(id).unwrap();
    for ((name, q), &skip) in queries.iter().zip(&empty) {
        if skip {
            println!("{name}: skipped (statically empty)");
            continue;
        }
        let before = stats();
        let t = Instant::now();
        let a = svc.answer(id, q, Semantics::nulls()).unwrap();
        let elapsed = t.elapsed();
        let n = match a {
            gde_core::Answer::Tuples(t) => t.into_pairs().len(),
            _ => 0,
        };
        println!(
            "{name}: {elapsed:?} ({n} pairs; {})",
            phases(&before, &stats())
        );
    }
    for ((name, q), &skip) in queries.iter().zip(&empty) {
        if skip {
            println!("bool {name}: skipped (statically empty)");
            continue;
        }
        let before = stats();
        let t = Instant::now();
        let a = svc.answer(id, q, Semantics::nulls_boolean()).unwrap();
        println!(
            "bool {name}: {:?} ({:?}; {})",
            t.elapsed(),
            a.boolean(),
            phases(&before, &stats())
        );
    }
    let batch: Vec<CompiledQuery> = queries.iter().map(|(_, q)| q.clone()).collect();
    for round in 0..2 {
        let before = stats();
        let t = Instant::now();
        let _ = svc.answer_batch(id, &batch, Semantics::nulls());
        println!(
            "tuple batch round {round}: {:?} ({})",
            t.elapsed(),
            phases(&before, &stats())
        );
        let before = stats();
        let t = Instant::now();
        let _ = svc.answer_batch(id, &batch, Semantics::nulls_boolean());
        println!(
            "bool batch round {round}: {:?} ({})",
            t.elapsed(),
            phases(&before, &stats())
        );
    }
    // the sharded_serving bench's "mixed" serving loop: selective queries
    // in tuple mode, heavy analytics as existence checks
    let tuple_qs: Vec<CompiledQuery> = queries
        .iter()
        .filter(|(n, _)| !SHARDED_BOOLEAN_QUERIES.contains(&n.as_str()))
        .map(|(_, q)| q.clone())
        .collect();
    let bool_qs: Vec<CompiledQuery> = queries
        .iter()
        .filter(|(n, _)| SHARDED_BOOLEAN_QUERIES.contains(&n.as_str()))
        .map(|(_, q)| q.clone())
        .collect();
    for round in 0..3 {
        let before = stats();
        let t = Instant::now();
        let a = svc.answer_batch(id, &tuple_qs, Semantics::nulls());
        let mid = t.elapsed();
        let b = svc.answer_batch(id, &bool_qs, Semantics::nulls_boolean());
        println!(
            "mixed round {round}: {:?} (tuple part {mid:?}, {} + {} answers; {})",
            t.elapsed(),
            a.len(),
            b.len(),
            phases(&before, &stats())
        );
    }
    let end = stats();
    println!(
        "totals[tenant {:?}]: memo share {:.2}, cache hit rate {:.2}, {} cache bytes resident, \
         {} solution bytes charged",
        end.tenant,
        end.memo_share(),
        end.cache_hit_rate(),
        end.cache_bytes,
        svc.cached_bytes(),
    );
    println!(
        "fault isolation: rejected {}, degraded {}, deadline {}, cancelled {}, worker panics {}, retries {}",
        end.rejected,
        end.degraded,
        end.deadline_exceeded,
        end.cancelled,
        end.worker_panics,
        end.retries,
    );
}
