//! Static-analyzer edge cases and the engine guarantees built on top of
//! it: workload-driven rule pruning must be invisible in the answers
//! (byte-identical to the full mapping's), must actually shrink the
//! resident solution, and statically-empty queries must serve O(1)
//! without evaluating anything.

use gde_automata::{parse_regex, Regex};
use gde_core::{
    analyze_mapping, pruned_gsm, Answer, Gsm, MappingFacts, MappingService, Semantics,
    WorkloadProfile,
};
use gde_datagraph::{Alphabet, DataGraph, NodeId, Value};
use gde_dataquery::{CompiledQuery, DataQuery};

fn mapping(rules: &[(&str, &str)]) -> Gsm {
    let mut sa = Alphabet::from_labels(["a", "b", "c"]);
    let mut ta = Alphabet::from_labels(["x", "y", "z"]);
    let parsed: Vec<(Regex, Regex)> = rules
        .iter()
        .map(|(s, t)| {
            (
                parse_regex(s, &mut sa).unwrap(),
                parse_regex(t, &mut ta).unwrap(),
            )
        })
        .collect();
    let mut m = Gsm::new(sa, ta);
    for (s, t) in parsed {
        m.add_rule(s, t);
    }
    m
}

fn query(m: &Gsm, text: &str) -> CompiledQuery {
    let mut ta = m.target_alphabet().clone();
    DataQuery::Rpq(parse_regex(text, &mut ta).unwrap()).compile()
}

/// A chain source alternating `a` and `b` edges: plenty of material for
/// both an `x`-producing and a `y`-producing rule.
fn chain_source(n: u32) -> DataGraph {
    let mut g = DataGraph::new();
    for i in 0..n {
        g.add_node(NodeId(i), Value::int(i as i64 % 5)).unwrap();
    }
    for i in 0..n - 1 {
        let label = if i % 2 == 0 { "a" } else { "b" };
        g.add_edge_str(NodeId(i), label, NodeId(i + 1)).unwrap();
    }
    g
}

#[test]
fn empty_mapping_yields_empty_verdicts() {
    let m = mapping(&[]);
    let f = MappingFacts::of(&m);
    assert!(f.relational && f.always_solvable);
    assert!(f.produced.is_empty());
    let q = query(&m, "x y");
    let report = analyze_mapping(&m, &[&q], None);
    assert_eq!(report.rule_count, 0);
    assert!(report.dead_rules.is_empty() && report.subsumed_rules.is_empty());
    // a mapping that produces nothing makes every non-reflexive query
    // statically empty
    assert!(report.verdicts[0].statically_empty);
}

#[test]
fn all_rules_dead_under_disjoint_workload() {
    let m = mapping(&[("a", "x"), ("b", "y")]);
    let q = query(&m, "z");
    let report = analyze_mapping(&m, &[&q], None);
    assert_eq!(report.dead_rules, vec![0, 1]);
    assert_eq!(report.live_rules(), 0);
    let profile = WorkloadProfile::from_queries([&q]);
    let pruned = pruned_gsm(&m, &profile).expect("prunable");
    assert!(pruned.rules().is_empty());
}

#[test]
fn duplicate_rules_subsume_down_to_one() {
    let m = mapping(&[("a", "x"), ("a", "x"), ("a", "x")]);
    let report = analyze_mapping(&m, &[], None);
    // mutual-equivalence classes keep the lowest index
    assert_eq!(report.subsumed_rules, vec![(1, 0), (2, 0)]);
    let pruned = pruned_gsm(&m, &WorkloadProfile::new()).expect("prunable");
    assert_eq!(pruned.rules().len(), 1);
}

#[test]
fn query_over_unproduced_labels_serves_o1() {
    let m = mapping(&[("a", "x"), ("b", "y")]);
    let gs = chain_source(40);
    let svc = MappingService::new();
    let id = svc.register(m.clone(), gs);
    svc.prepare(id, Semantics::nulls()).unwrap();
    let dead_q = query(&m, "z");
    let before = svc.serving_stats(id).unwrap();
    let a = svc.answer(id, &dead_q, Semantics::nulls()).unwrap();
    let b = svc.answer(id, &dead_q, Semantics::nulls_boolean()).unwrap();
    let after = svc.serving_stats(id).unwrap();
    assert_eq!(a.into_pairs(), vec![]);
    assert_eq!(b, Answer::Boolean(false));
    // the verdict short-circuits before any evaluation
    assert_eq!(after.static_empty - before.static_empty, 2);
    assert_eq!(after.tuple_evals, before.tuple_evals);
    assert_eq!(after.boolean_evals, before.boolean_evals);
}

#[test]
fn static_empty_short_circuits_in_batches_too() {
    let m = mapping(&[("a", "x"), ("b", "y")]);
    let svc = MappingService::new();
    let id = svc.register(m.clone(), chain_source(40));
    let live = query(&m, "x y*");
    let dead = query(&m, "z");
    let batch = vec![live.clone(), dead.clone(), live.clone()];
    let before = svc.serving_stats(id).unwrap();
    let answers = svc.answer_batch(id, &batch, Semantics::nulls());
    let after = svc.serving_stats(id).unwrap();
    assert_eq!(answers.len(), 3);
    assert_eq!(
        answers[1].as_ref().unwrap().clone().into_pairs(),
        vec![],
        "statically-empty member answers empty"
    );
    assert_eq!(
        answers[0].as_ref().unwrap(),
        answers[2].as_ref().unwrap(),
        "live members unaffected"
    );
    assert_eq!(after.static_empty - before.static_empty, 1);
}

/// The acceptance scenario: a workload with dead and subsumed rules must
/// shrink the resident solution while staying byte-identical to the full
/// mapping's answers.
#[test]
fn pruning_is_invisible_and_shrinks_the_solution() {
    let rules: &[(&str, &str)] = &[
        ("a", "x"),
        ("a", "x"),     // subsumed duplicate of rule 0
        ("a|b", "x"),   // subsumes both: larger source, same target
        ("b", "y y y"), // dead under an x-only workload, and expensive
    ];
    let gs = chain_source(60);
    let workload = [
        query(&mapping(rules), "x"),
        query(&mapping(rules), "x x"),
        query(&mapping(rules), "x+"),
    ];

    // reference: a service that registers no workload serves the full
    // mapping
    let off = MappingService::new();
    let off_id = off.register(mapping(rules), gs.clone());
    let off_bytes = off
        .solution(off_id, Semantics::nulls())
        .unwrap()
        .approx_bytes();

    let on = MappingService::new();
    let id = on.register(mapping(rules), gs.clone());
    on.register_queries(id, &workload).unwrap();
    // the serve mapping really did lose the dead + subsumed rules
    let serve = on.serve_gsm(id).unwrap();
    assert!(serve.rules().len() < rules.len(), "pruning dropped rules");
    let on_bytes = on.solution(id, Semantics::nulls()).unwrap().approx_bytes();
    assert!(
        on_bytes < off_bytes,
        "pruned solution is smaller ({on_bytes} < {off_bytes})"
    );
    for q in &workload {
        for sem in [Semantics::nulls(), Semantics::nulls_boolean()] {
            assert_eq!(
                on.answer(id, q, sem).unwrap(),
                off.answer(off_id, q, sem).unwrap(),
                "byte-identical {sem:?}"
            );
        }
    }
}

/// Serving a query the registered workload doesn't cover must transparently
/// re-expand the pruned mapping — correctness never depends on the
/// workload registration being complete.
#[test]
fn uncovered_query_reexpands_the_pruned_mapping() {
    let rules: &[(&str, &str)] = &[("a", "x"), ("b", "y")];
    let gs = chain_source(30);

    let off = MappingService::new();
    let off_id = off.register(mapping(rules), gs.clone());

    let on = MappingService::new();
    let id = on.register(mapping(rules), gs);
    let x_only = [query(&mapping(rules), "x")];
    on.register_queries(id, &x_only).unwrap();
    assert_eq!(
        on.serve_gsm(id).unwrap().rules().len(),
        1,
        "y-rule pruned under the x-only workload"
    );
    // now serve a y query that was never registered
    let y_q = query(&mapping(rules), "y");
    let got = on.answer(id, &y_q, Semantics::nulls()).unwrap();
    let want = off.answer(off_id, &y_q, Semantics::nulls()).unwrap();
    assert_eq!(got, want, "auto-extension keeps answers exact");
    assert_eq!(
        on.serve_gsm(id).unwrap().rules().len(),
        2,
        "workload grew and the mapping re-expanded"
    );
}

/// The service-level analyze() report agrees with the standalone analyzer
/// and carries cardinality estimates once a snapshot is resident.
#[test]
fn service_analyze_reports_with_estimates() {
    let rules: &[(&str, &str)] = &[("a", "x"), ("a", "x"), ("b", "y")];
    let m = mapping(rules);
    let svc = MappingService::new();
    let id = svc.register(m.clone(), chain_source(50));
    let qs = vec![query(&m, "x*"), query(&m, "z")];
    let report = svc.analyze(id, &qs).unwrap();
    assert_eq!(report.rule_count, 3);
    assert_eq!(report.subsumed_rules, vec![(1, 0)]);
    assert_eq!(report.statically_empty(), 1);
    assert!(report.verdicts[1].statically_empty);
    // no solution built yet ⇒ no snapshot ⇒ no estimates
    assert!(report.verdicts[0].estimate.is_none());
    svc.prepare(id, Semantics::nulls()).unwrap();
    let report = svc.analyze(id, &qs).unwrap();
    let est = report.verdicts[0]
        .estimate
        .expect("estimate from the resident snapshot");
    // x* answers at least every reflexive pair, so the prior is nonzero
    assert!(est.pairs > 0 && est.bytes > 0);
}
