//! Property tests for the stripe planner [`ShardPlan::by_out_degree`]:
//! on random snapshots (0–300 nodes over 1–4 labels, with a few hubs and
//! some isolated nodes) and every `k` in `1..=9`, the plan must be a
//! contiguous partition of `0..n` into exactly `k` stripes, `shard_of`
//! must place every row inside its own stripe, and no stripe may weigh
//! more than `total / k` plus the heaviest node, where a node weighs
//! `1 + out-degree`. Uses the vendored proptest shim (deterministic
//! cases, no shrinking).

use gde_datagraph::{DataGraph, GraphSnapshot, Label, NodeId, ShardPlan, Value};
use proptest::prelude::*;

/// A seeded random graph: `n` nodes, edges over `labels` labels, up to
/// three hubs whose out-degree reaches the node count, about a fifth of
/// the nodes isolated (no edge in or out), and 0–4 out-edges on each
/// other node.
fn random_graph(n: usize, labels: usize, seed: u64) -> DataGraph {
    let mut state = seed;
    let mut next = || {
        // SplitMix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };
    let mut g = DataGraph::new();
    for i in 0..n {
        g.add_node(NodeId(i as u32), Value::int(i as i64 % 5))
            .unwrap();
    }
    if n == 0 {
        return g;
    }
    let isolated: Vec<bool> = (0..n).map(|_| next() % 5 == 0).collect();
    let linked: Vec<usize> = (0..n).filter(|&i| !isolated[i]).collect();
    if linked.is_empty() {
        return g;
    }
    let names: Vec<String> = (0..labels).map(|l| format!("l{l}")).collect();
    let hubs = next() % 4;
    for _ in 0..hubs {
        let hub = linked[next() % linked.len()];
        for _ in 0..next() % (n + 1) {
            let (l, to) = (&names[next() % labels], linked[next() % linked.len()]);
            g.add_edge_str(NodeId(hub as u32), l, NodeId(to as u32))
                .unwrap();
        }
    }
    for &u in &linked {
        for _ in 0..next() % 5 {
            let (l, to) = (&names[next() % labels], linked[next() % linked.len()]);
            g.add_edge_str(NodeId(u as u32), l, NodeId(to as u32))
                .unwrap();
        }
    }
    g
}

/// `1 + out-degree` of every dense row, over every label.
fn node_weights(s: &GraphSnapshot) -> Vec<u64> {
    (0..s.n())
        .map(|u| {
            1 + (0..s.label_count())
                .map(|l| s.out(Label(l as u16), u as u32).len() as u64)
                .sum::<u64>()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn out_degree_plan_partitions_and_balances(
        n in 0usize..301,
        labels in 1usize..5,
        k in 1usize..10,
        seed in any::<u64>(),
    ) {
        let s = random_graph(n, labels, seed).snapshot();
        let plan = ShardPlan::by_out_degree(&s, k);
        let case = format!("n={n} labels={labels} k={k} seed={seed}");

        // k stripes whose bounds rise monotonically from 0 to n
        prop_assert_eq!(plan.shard_count(), k, "{}", case);
        prop_assert_eq!(plan.n(), n, "{}", case);
        let mut covered = 0;
        for i in 0..k {
            let r = plan.range(i);
            prop_assert_eq!(r.start, covered, "{}", case);
            prop_assert!(r.start <= r.end, "{}", case);
            covered = r.end;
        }
        prop_assert_eq!(covered, n, "{}", case);

        // every row lies inside the stripe `shard_of` names
        for row in 0..n {
            prop_assert!(plan.range(plan.shard_of(row as u32)).contains(&row), "{}", case);
        }

        // no stripe weighs more than total / k plus the heaviest node
        let weight = node_weights(&s);
        let total: u64 = weight.iter().sum();
        let heaviest = weight.iter().copied().max().unwrap_or(0);
        for i in 0..k {
            let stripe: u64 = weight[plan.range(i)].iter().sum();
            prop_assert!(
                stripe * k as u64 <= total + k as u64 * heaviest,
                "{}: stripe {} weighs {} > {}/{} + {}", case, i, stripe, total, k, heaviest
            );
        }
    }
}
