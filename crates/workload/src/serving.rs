//! Multi-query serving workloads: one mapping + source graph, many queries.
//!
//! The paper's tractability story (Theorems 3–5) is about answering *many*
//! queries against *one* canonical solution. This module packages that
//! access pattern as a reusable workload: the social network of
//! [`crate::social`] exchanged into a contact-graph schema, plus a batch of
//! named queries spanning every [`DataQuery`] class. The
//! `prepared_vs_cold` bench and the engine-equivalence tests both consume
//! it.

use crate::scenarios::ExchangeScenario;
use crate::social::{social_data_graph, SocialConfig};
use gde_automata::Regex;
use gde_core::Gsm;
use gde_datagraph::{Alphabet, GraphDelta, NodeId};
use gde_dataquery::{parse_ree, parse_rem, CdAtom, ConjunctiveDataRpq, DataQuery};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A serving workload: an exchange scenario plus a batch of named queries
/// over the mapping's target alphabet.
#[derive(Clone, Debug)]
pub struct ServingScenario {
    /// The mapping and its source graph.
    pub scenario: ExchangeScenario,
    /// Named queries to serve against the canonical solution.
    pub queries: Vec<(String, DataQuery)>,
}

impl ServingScenario {
    /// Just the queries, unnamed.
    pub fn query_batch(&self) -> Vec<DataQuery> {
        self.queries.iter().map(|(_, q)| q.clone()).collect()
    }
}

/// The social network exchanged into a contact-graph schema, with a batch
/// of ten queries covering all query classes (nine of them answerable by
/// the least-informative engine too).
///
/// Mapping (LAV, relational — every target side a word):
///
/// | source          | target word        |
/// |-----------------|--------------------|
/// | `knows`         | `contact`          |
/// | `created`       | `authored`         |
/// | `likes/src`     | `endorses via`     |
/// | `likes/tgt`     | `on`               |
/// | `@name`         | `tagged`           |
/// | `@city`         | `located hub`      |
///
/// The two length-2 words invent nodes, so universal solutions genuinely
/// contain nulls and the `2ⁿ` / `2` engines differ on inequality queries.
pub fn social_serving_scenario(cfg: &SocialConfig) -> ServingScenario {
    let source = social_data_graph(cfg);
    let target_alphabet = Alphabet::from_labels([
        "contact", "authored", "endorses", "via", "on", "tagged", "located", "hub",
    ]);
    let mut gsm = Gsm::new(source.alphabet().clone(), target_alphabet.clone());
    let rules: [(&str, &[&str]); 6] = [
        ("knows", &["contact"]),
        ("created", &["authored"]),
        ("likes/src", &["endorses", "via"]),
        ("likes/tgt", &["on"]),
        ("@name", &["tagged"]),
        ("@city", &["located", "hub"]),
    ];
    for (src, tgt_word) in rules {
        let src_label = source
            .alphabet()
            .label(src)
            .expect("social encoding provides this label");
        let word: Vec<_> = tgt_word
            .iter()
            .map(|n| target_alphabet.label(n).expect("target label interned"))
            .collect();
        gsm.add_rule(Regex::Atom(src_label), Regex::word(&word));
    }
    debug_assert!(gsm.classify().relational && gsm.classify().lav);
    // queries intern against the same target interner so indices line up
    let mut ta = target_alphabet;

    fn ree(ta: &mut Alphabet, src: &str) -> DataQuery {
        parse_ree(src, ta).expect("static query parses").into()
    }
    fn rpq(ta: &mut Alphabet, src: &str) -> DataQuery {
        gde_automata::parse_regex(src, ta)
            .expect("static query parses")
            .into()
    }
    let mut queries: Vec<(String, DataQuery)> = Vec::new();
    let push = |name: &str, q: DataQuery, queries: &mut Vec<(String, DataQuery)>| {
        queries.push((name.to_string(), q));
    };
    // purely navigational RPQs (words and closures)
    push(
        "friend-of-author",
        rpq(&mut ta, "contact authored"),
        &mut queries,
    );
    push("contact-closure", rpq(&mut ta, "contact+"), &mut queries);
    push(
        "endorsement-path",
        rpq(&mut ta, "endorses via on"),
        &mut queries,
    );
    push("co-located", rpq(&mut ta, "located hub"), &mut queries);
    // equality REEs: data tests over the exchanged graph
    push(
        "same-name-two-hops",
        ree(&mut ta, "(contact contact)="),
        &mut queries,
    );
    push(
        "name-repeats-on-walk",
        ree(&mut ta, "contact* (contact+)= contact*"),
        &mut queries,
    );
    push(
        "authored-by-namesake",
        ree(&mut ta, "(contact authored)="),
        &mut queries,
    );
    // an inequality REE: only the 2ⁿ engine answers it
    push(
        "different-name-contact",
        ree(&mut ta, "contact!="),
        &mut queries,
    );
    // a memory RPQ
    push(
        "returns-to-first-name",
        parse_rem("@x.(contact+[x=])", &mut ta)
            .expect("static query parses")
            .into(),
        &mut queries,
    );
    // a conjunctive data RPQ: x contacts z, z authored a post, x endorses it
    push(
        "endorses-a-contacts-post",
        ConjunctiveDataRpq::new(
            (0, 1),
            vec![
                CdAtom {
                    from: 0,
                    query: ree(&mut ta, "contact"),
                    to: 1,
                },
                CdAtom {
                    from: 1,
                    query: ree(&mut ta, "authored"),
                    to: 2,
                },
                CdAtom {
                    from: 0,
                    query: ree(&mut ta, "endorses via on"),
                    to: 2,
                },
            ],
        )
        .into(),
        &mut queries,
    );

    ServingScenario {
        scenario: ExchangeScenario { gsm, source },
        queries,
    }
}

/// The [`sharded_serving_scenario`] queries best served as Boolean
/// existence checks: the heavy navigational/analytic ones, where "does
/// any answer exist?" is the realistic cheap probe. The `sharded_serving`
/// bench and the `probe_sharded` dev tool both consume this split, so
/// renaming a query cannot silently desynchronise them.
pub const SHARDED_BOOLEAN_QUERIES: [&str; 6] = [
    "friend-of-author",
    "two-hop-contact",
    "endorsement-path",
    "co-located",
    "same-name-reachable",
    "two-hops-to-namesake",
];

/// The social exchange scaled to a target node count, with a query batch
/// that covers every evaluation path of a missed query: per-start-heavy
/// classes (memory RPQs, navigational RPQs), equality REEs, one closure
/// REE exercising the two-phase (memoised) path, and one conjunctive
/// query whose full answer is its phase-1 artifact. Answer sizes stay
/// near-linear in the graph so the batch measures evaluation work, not
/// result materialisation.
///
/// `scale` is the approximate *source-graph* node count (persons, posts,
/// attribute and reified-like nodes included); the canonical solution adds
/// the invented nodes on top. The `sharded_serving` bench runs this at
/// `scale = 20480` across a worker-thread sweep.
pub fn sharded_serving_scenario(scale: usize, seed: u64) -> ServingScenario {
    // node budget per person: 1 + @name + @city = 3; per post: 1 + @topic
    // = 2, plus ~1.5 reified likes × (1 middle + 1 @reaction) = 3 more
    let persons = (scale * 31 / 100).max(10);
    let posts = (scale * 75 / 1000).max(5);
    let cfg = SocialConfig {
        persons,
        knows_per_person: 3,
        posts,
        cities: 12,
        seed,
    };
    let base = social_serving_scenario(&cfg);
    let mut ta = base.scenario.gsm.target_alphabet().clone();

    fn ree(ta: &mut Alphabet, src: &str) -> DataQuery {
        parse_ree(src, ta).expect("static query parses").into()
    }
    fn rpq(ta: &mut Alphabet, src: &str) -> DataQuery {
        gde_automata::parse_regex(src, ta)
            .expect("static query parses")
            .into()
    }
    let mut queries: Vec<(String, DataQuery)> = Vec::new();
    let mut push = |name: &str, q: DataQuery| queries.push((name.to_string(), q));
    // navigational RPQs: per-start product BFS
    push("friend-of-author", rpq(&mut ta, "contact authored"));
    push("two-hop-contact", rpq(&mut ta, "contact contact"));
    push("endorsement-path", rpq(&mut ta, "endorses via on"));
    push("co-located", rpq(&mut ta, "located hub"));
    // equality REEs: relation algebra with a root test
    push("same-name-two-hops", ree(&mut ta, "(contact contact)="));
    push("authored-by-namesake", ree(&mut ta, "(contact authored)="));
    push("different-name-contact", ree(&mut ta, "contact!="));
    // a closure REE: the two-phase path (the closure is a phase-1 artifact)
    push("same-name-reachable", ree(&mut ta, "(contact+)="));
    // memory RPQs: the heaviest per-start work in the batch
    push(
        "two-hops-to-namesake",
        parse_rem("@x.(contact contact[x=])", &mut ta)
            .expect("static query parses")
            .into(),
    );
    push(
        "namesake-authored",
        parse_rem("@x.(contact authored[x=])", &mut ta)
            .expect("static query parses")
            .into(),
    );
    // a conjunctive data RPQ: its full answer is built in phase 1
    push(
        "endorses-a-contacts-post",
        ConjunctiveDataRpq::new(
            (0, 1),
            vec![
                CdAtom {
                    from: 0,
                    query: ree(&mut ta, "contact"),
                    to: 1,
                },
                CdAtom {
                    from: 1,
                    query: ree(&mut ta, "authored"),
                    to: 2,
                },
                CdAtom {
                    from: 0,
                    query: ree(&mut ta, "endorses via on"),
                    to: 2,
                },
            ],
        )
        .into(),
    );
    ServingScenario {
        scenario: base.scenario,
        queries,
    }
}

/// The **merge-bound** tuple batch for the sharded scenario: long
/// contact-walk queries whose answer cardinality is a large multiple of
/// the node count, so building and copying the answer — not the
/// evaluation — dominates the cost profile. The `sharded_serving` bench
/// times it as its big-answer batch.
///
/// `ta` must be the scenario's target-alphabet interner
/// (`gsm.target_alphabet().clone()`) so label indices line up.
pub fn merge_bound_queries(ta: &mut Alphabet) -> Vec<(String, DataQuery)> {
    fn rpq(ta: &mut Alphabet, src: &str) -> DataQuery {
        gde_automata::parse_regex(src, ta)
            .expect("static query parses")
            .into()
    }
    vec![
        (
            "three-hop-contact".to_string(),
            rpq(ta, "contact contact contact"),
        ),
        (
            "four-hop-contact".to_string(),
            rpq(ta, "contact contact contact contact"),
        ),
        (
            "contact-fanout-mixed".to_string(),
            rpq(
                ta,
                "(contact | endorses via on) (contact | authored) contact",
            ),
        ),
    ]
}

/// A stream of churn deltas for the social serving scenario: each round
/// adds `edges_per_round` random `knows` edges between existing persons.
/// The mapping reads `knows`, so a round that adds an edge drops the
/// cached solutions of a serving engine
/// ([`gde_core::MappingService::apply_delta`]) and the next answer
/// rebuilds. Deterministic in `seed`; duplicate picks are fine
/// (graph-level dedup reports them as no-ops).
pub fn social_churn_deltas(
    cfg: &SocialConfig,
    rounds: usize,
    edges_per_round: usize,
    seed: u64,
) -> Vec<GraphDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..rounds)
        .map(|_| {
            let mut delta = GraphDelta::new();
            for _ in 0..edges_per_round {
                let p = rng.gen_range(0..cfg.persons);
                let q = rng.gen_range(0..cfg.persons);
                if p != q {
                    delta = delta.with_edge(NodeId(p as u32), "knows", NodeId(q as u32));
                }
            }
            delta
        })
        .collect()
}

/// One request in a serving trace: which query to issue and whether to ask
/// for the boolean projection instead of the tuple answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingRequest {
    /// Index into the workload's query list.
    pub query: usize,
    /// Ask in boolean mode (certain-answer non-emptiness) instead of tuples.
    pub boolean: bool,
}

/// A Zipf-skewed request trace for a serving front-end: query indices drawn
/// from [`crate::zipf_trace`] (a few hot queries dominate, the tail stays
/// warm) with `boolean_share` of the requests flipped to boolean mode.
/// Deterministic in `seed` — load generators on both ends of a wire can
/// regenerate the same trace independently.
pub fn serving_request_trace(
    queries: usize,
    alpha: f64,
    boolean_share: f64,
    len: usize,
    seed: u64,
) -> Vec<ServingRequest> {
    assert!(
        (0.0..=1.0).contains(&boolean_share),
        "boolean_share is a probability"
    );
    let indices = crate::zipf_trace(queries, alpha, len, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    indices
        .into_iter()
        .map(|query| ServingRequest {
            query,
            boolean: rng.gen_range(0.0..1.0) < boolean_share,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_core::{universal_solution, MappingService, Semantics};

    #[test]
    fn scenario_is_relational_lav_with_inventing_rules() {
        let sv = social_serving_scenario(&SocialConfig::default());
        let c = sv.scenario.gsm.classify();
        assert!(c.relational && c.lav);
        let sol = universal_solution(&sv.scenario.gsm, &sv.scenario.source).unwrap();
        assert!(!sol.invented.is_empty(), "length-2 words must invent nodes");
        assert!(sv.scenario.gsm.is_solution(&sv.scenario.source, &sol.graph));
    }

    #[test]
    fn batch_covers_classes_and_serves() {
        let sv = social_serving_scenario(&SocialConfig {
            persons: 12,
            knows_per_person: 2,
            posts: 8,
            cities: 2,
            seed: 11,
        });
        assert!(sv.queries.len() >= 8, "serving batch must have ≥8 queries");
        let eq_only = sv
            .queries
            .iter()
            .filter(|(_, q)| q.is_equality_only())
            .count();
        assert!(eq_only >= 8, "most queries answerable by both engines");
        assert!(
            sv.queries.iter().any(|(_, q)| !q.is_equality_only()),
            "at least one inequality query"
        );
        // every query evaluates against the serving engine without panicking
        let svc = MappingService::new();
        let id = svc.register(sv.scenario.gsm.clone(), sv.scenario.source.clone());
        for (name, q) in &sv.queries {
            let compiled = q.compile();
            let ans = svc.answer(id, &compiled, Semantics::nulls());
            assert!(ans.is_ok(), "query {name} failed: {ans:?}");
        }
    }

    #[test]
    fn churn_deltas_are_additive_lav_material() {
        let cfg = SocialConfig::default();
        let deltas = social_churn_deltas(&cfg, 4, 6, 99);
        assert_eq!(deltas.len(), 4);
        assert!(deltas.iter().all(|d| d.is_additive()));
        assert!(deltas.iter().any(|d| !d.add_edges.is_empty()));
        // deterministic
        assert_eq!(deltas, social_churn_deltas(&cfg, 4, 6, 99));
        // endpoints are existing persons, so the engine accepts them
        let sv = social_serving_scenario(&cfg);
        let svc = MappingService::new();
        let id = svc.register(sv.scenario.gsm, sv.scenario.source);
        for d in &deltas {
            let report = svc.apply_delta(id, d).unwrap();
            assert_eq!(report.removed_edges, 0);
        }
    }

    #[test]
    fn deterministic() {
        let a = social_serving_scenario(&SocialConfig::default());
        let b = social_serving_scenario(&SocialConfig::default());
        assert_eq!(a.queries.len(), b.queries.len());
        for ((na, qa), (nb, qb)) in a.queries.iter().zip(&b.queries) {
            assert_eq!(na, nb);
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn request_trace_is_deterministic_head_heavy_and_mixes_modes() {
        let t1 = serving_request_trace(8, 1.1, 0.25, 2000, 0x7AC3);
        let t2 = serving_request_trace(8, 1.1, 0.25, 2000, 0x7AC3);
        assert_eq!(t1, t2, "same seed, same trace");
        assert!(t1.iter().all(|r| r.query < 8));
        let head = t1.iter().filter(|r| r.query == 0).count();
        assert!(
            head * 8 > t1.len(),
            "Zipf head must beat the uniform share ({head}/{})",
            t1.len()
        );
        let booleans = t1.iter().filter(|r| r.boolean).count() as f64 / t1.len() as f64;
        assert!(
            (0.15..=0.35).contains(&booleans),
            "boolean share ~0.25, got {booleans:.2}"
        );
        assert!(serving_request_trace(8, 1.1, 0.0, 64, 1)
            .iter()
            .all(|r| !r.boolean));
    }
}
