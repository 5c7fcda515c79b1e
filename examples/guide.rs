//! The user guide (`docs/GUIDE.md`) as one runnable program: build a
//! graph, define a mapping, register it, compile a query, answer under
//! every semantics, apply a delta, serve a batch cold and warm, bound a serve
//! with deadlines and cancellation, consult the static analyzer, serve a
//! prepared template by binding labels per call, and put the same engine
//! behind the `gde-server` network front-end. Each step asserts
//! the outcome the guide promises, so `cargo run --example guide` is an
//! executable check of the documentation.

use gde_server::json::Json;
use graph_data_exchange::automata::parse_regex;
use graph_data_exchange::dataquery::{parse_ree, parse_rem};
use graph_data_exchange::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // §1 — a source data graph: nodes are (id, value) pairs
    let mut source = DataGraph::new();
    source.add_node(NodeId(0), Value::str("ann"))?;
    source.add_node(NodeId(1), Value::str("bob"))?;
    source.add_node(NodeId(2), Value::str("ann"))?;
    source.add_edge_str(NodeId(0), "follows", NodeId(1))?;
    source.add_edge_str(NodeId(1), "follows", NodeId(2))?;
    println!(
        "graph: {} nodes, {} edges",
        source.node_count(),
        source.edge_count()
    );

    // §2 — a schema mapping: every follows-edge must be witnessed by a
    // knows·trusts path on the target side
    let mut sa = source.alphabet().clone();
    let mut ta = Alphabet::from_labels(["knows", "trusts"]);
    let mut mapping = Gsm::new(sa.clone(), ta.clone());
    mapping.add_rule(
        parse_regex("follows", &mut sa)?,
        parse_regex("knows trusts", &mut ta)?,
    );
    let class = mapping.classify();
    assert!(class.relational && class.lav);
    println!("mapping: relational LAV, {} rule(s)", mapping.rules().len());

    // §3 — register with the owned serving engine
    let service = MappingService::new();
    let id = service.register(mapping, source);
    service.set_cache_budget(256 << 20);
    service.prepare(id, Semantics::nulls())?;
    assert!(service.is_cached(id, Semantics::nulls()));

    // §4 — compile a query once, serve it many times
    let q: DataQuery = parse_ree("(knows trusts knows trusts)=", &mut ta)?.into();
    let compiled: CompiledQuery = q.compile();
    assert!(compiled.is_equality_only());

    // §5 — certain answers under each semantics
    let nulls = service
        .answer(id, &compiled, Semantics::nulls())?
        .into_pairs();
    assert_eq!(nulls, vec![(NodeId(0), NodeId(2))]); // ann …→ ann
    let li = service
        .answer(id, &compiled, Semantics::least_informative())?
        .into_pairs();
    let exact = service
        .answer(id, &compiled, Semantics::exact())?
        .into_pairs();
    assert_eq!(li, nulls);
    assert_eq!(exact, nulls);
    assert!(service
        .answer(id, &compiled, Semantics::nulls_boolean())?
        .boolean());
    assert_eq!(
        Semantics::preferred_for(&compiled),
        Semantics::least_informative()
    );
    println!("certain answers (all engines agree): {nulls:?}");

    // §6 — a source delta: the next answer reflects the new source
    let delta = GraphDelta::new()
        .with_node(NodeId(7), Value::str("cat"))
        .with_edge(NodeId(2), "follows", NodeId(7));
    let report = service.apply_delta(id, &delta)?;
    assert_eq!(service.generation(id), Some(1));
    let after = service.answer(id, &compiled, Semantics::nulls())?;
    let source = service.source(id).expect("registered");
    let gsm = service.gsm(id).expect("registered");
    assert_eq!(
        after,
        answer_once(&gsm, &source, &compiled, Semantics::nulls())?
    );
    assert_eq!(after.into_pairs(), vec![(NodeId(0), NodeId(2))]);
    println!("delta applied: generation {}", report.generation);

    // §7 — a batch's misses run one task each; a repeat is one cache
    // lookup per query and evaluates nothing
    let reference = service.answer(id, &compiled, Semantics::nulls())?;
    let closure = DataQuery::from(parse_ree("((knows trusts)+)=", &mut ta)?).compile();
    let batch = [compiled.clone(), closure.clone()];
    let cold = service.answer_batch(id, &batch, Semantics::nulls());
    assert_eq!(cold[0], Ok(reference.clone()));
    assert_eq!(cold[1], service.answer(id, &closure, Semantics::nulls()));
    let before = service.serving_stats(id).expect("registered");
    assert_eq!(service.answer_batch(id, &batch, Semantics::nulls()), cold);
    let stats = service.serving_stats(id).expect("registered");
    assert_eq!(stats.cache_hits - before.cache_hits, 2);
    assert_eq!(stats.tuple_evals, before.tuple_evals);
    println!(
        "serving stats: {} tuple evals, {} tuples, cache hit rate {:.2}",
        stats.tuple_evals,
        stats.tuples,
        stats.cache_hit_rate(),
    );

    // §8 — bounded serves: deadlines and cancellation are typed errors,
    // and a refused or stopped serve never perturbs later answers
    let opts = ServeOptions::new().with_deadline(std::time::Instant::now());
    assert!(matches!(
        service.answer_with(id, &compiled, Semantics::nulls(), &opts),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let opts = ServeOptions::new().with_cancel(cancel);
    assert!(matches!(
        service.answer_with(id, &compiled, Semantics::nulls(), &opts),
        Err(ServeError::Cancelled { .. })
    ));
    assert_eq!(
        service.answer(id, &compiled, Semantics::nulls())?,
        reference
    );
    let stats = service.serving_stats(id).expect("registered");
    assert_eq!(stats.rejected, 2);
    println!("bounded serves refused at the door: {}", stats.rejected);

    // §9 — the static analyzer: rule- and query-level verdicts without
    // evaluating anything, and workload-driven pruning on the serve path
    let never = DataQuery::Rpq(parse_regex("absent", &mut ta)?).compile();
    let report = service.analyze(id, &[compiled.clone(), never.clone()])?;
    assert_eq!(report.statically_empty(), 1); // no rule produces `absent`
    assert!(report.verdicts[0].estimate.is_some(), "snapshot resident");
    service.register_queries(id, std::slice::from_ref(&compiled))?;
    let before = service.serving_stats(id).expect("registered");
    let empty = service.answer(id, &never, Semantics::nulls())?;
    assert_eq!(empty.into_pairs(), vec![]);
    let after = service.serving_stats(id).expect("registered");
    assert_eq!(after.static_empty, before.static_empty + 1);
    assert_eq!(after.tuple_evals, before.tuple_evals, "nothing evaluated");
    println!(
        "analyzer: {}/{} rules live, {} statically empty quer(ies) served O(1)",
        report.live_rules(),
        report.rule_count,
        report.statically_empty(),
    );

    // §10 — prepared templates: canonicalise once, bind labels per call
    let q1: DataQuery = parse_rem("@u.(knows trusts[u=])", &mut ta)?.into();
    let q2: DataQuery = parse_rem("@v.(knows trusts[v=])", &mut ta)?.into();
    let (skeleton, bind1) = canonicalize(&q1);
    let (skeleton2, bind2) = canonicalize(&q2);
    assert_eq!(skeleton.hash(), skeleton2.hash(), "alpha variants collide");
    assert_eq!(bind1, bind2, "same labels, same binding vector");
    let tpl = service.register_template(id, &skeleton)?;
    let bound = service.answer_bound(id, tpl, bind1.labels(), Semantics::nulls())?;
    assert_eq!(
        bound,
        service.answer(id, &q1.compile(), Semantics::nulls())?,
        "bound serves are byte-identical to ad-hoc serves"
    );
    let stats = service.serving_stats(id).expect("registered");
    assert!(stats.template_hits >= 2, "bound + routed ad-hoc both hit");
    println!(
        "prepared template {tpl}: {} hits, {} ns of compilation skipped",
        stats.template_hits, stats.compile_skipped_ns,
    );

    // §11 — the same engine over the network: a multi-tenant server on
    // an ephemeral port, the mapping uploaded as graph JSON + rule text
    let server = gde_server::start(gde_server::ServerConfig {
        workers: 2,
        ..gde_server::ServerConfig::default()
    })?;
    let mut client = gde_server::Client::connect(server.addr())?;
    assert_eq!(client.put("/tenants/acme", &Json::obj([]))?.status, 201);
    let upload = Json::obj([
        ("name", Json::str("m")),
        (
            "source",
            Json::obj([
                (
                    "nodes",
                    Json::Arr(vec![
                        Json::obj([("id", Json::num(0.0)), ("value", Json::str("ann"))]),
                        Json::obj([("id", Json::num(1.0)), ("value", Json::str("bob"))]),
                    ]),
                ),
                (
                    "edges",
                    Json::Arr(vec![Json::Arr(vec![
                        Json::num(0.0),
                        Json::str("follows"),
                        Json::num(1.0),
                    ])]),
                ),
            ]),
        ),
        (
            "rules",
            Json::Arr(vec![Json::obj([
                ("source", Json::str("follows")),
                ("target", Json::str("knows trusts")),
            ])]),
        ),
    ]);
    assert_eq!(client.post("/tenants/acme/mappings", &upload)?.status, 201);
    let r = client.post(
        "/tenants/acme/mappings/m/query",
        &Json::obj([("query", Json::str("knows trusts"))]),
    )?;
    assert_eq!(r.status, 200);
    let pairs = r.json().expect("json body");
    assert_eq!(
        pairs.get("pairs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1),
        "ann knows·trusts bob in every solution"
    );
    println!("served over the wire: {}", pairs.encode());

    // §12 — one-shot serving without a service
    let gsm2 = service.gsm(id).expect("registered");
    let src2 = service.source(id).expect("registered");
    let once = answer_once(&gsm2, &src2, &compiled, Semantics::nulls())?;
    assert_eq!(once, reference);
    println!("guide complete");
    Ok(())
}
