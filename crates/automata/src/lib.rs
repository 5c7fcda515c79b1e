//! # gde-automata
//!
//! Classical and data-aware automata substrate for the PODS'17 data-graph
//! schema-mapping framework:
//!
//! * [`Regex`] — regular expressions over an edge alphabet, the language of
//!   the paper's RPQs (§2), with a parser ([`parser::parse_regex`]) and a
//!   printer;
//! * [`Nfa`] — Thompson construction and product-BFS evaluation over data
//!   graphs, i.e. the classical RPQ semantics
//!   `e(G) = {(v,v') | ∃π: v →π v', λ(π) ∈ L(e)}`;
//! * [`register`] — register automata over data paths (§3, after \[25,31\]):
//!   the operational model underlying regular expressions with memory,
//!   including configuration-BFS evaluation on graphs and a symbolic
//!   (partition-based) nonemptiness check with witness extraction.

#![deny(unsafe_code)]

pub mod dfa;
#[cfg(test)]
mod kernel_props;
pub mod nfa;
pub mod parser;
pub mod regex;
pub mod register;

/// The answer rows one per-start search reached: a membership mask over
/// the snapshot's dense rows plus the list of rows set in it, so clearing
/// between starts costs the rows reached, not `n`. One per evaluation
/// call, reused by every start.
pub(crate) struct ReachedRows {
    mask: Vec<bool>,
    rows: Vec<u32>,
    /// Stop the search once this many rows are reached (1 for the
    /// Boolean projection, which only asks whether any row is).
    limit: usize,
}

impl ReachedRows {
    pub(crate) fn new(n: usize, limit: usize) -> ReachedRows {
        ReachedRows {
            mask: vec![false; n],
            rows: Vec::new(),
            limit,
        }
    }

    /// Record that the search reached row `v` in an accepting state;
    /// returns whether the search may stop (the limit is reached).
    #[inline]
    pub(crate) fn insert(&mut self, v: u32) -> bool {
        if !self.mask[v as usize] {
            self.mask[v as usize] = true;
            self.rows.push(v);
        }
        self.rows.len() >= self.limit
    }

    /// The reached rows, distinct, in discovery order.
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    pub(crate) fn clear(&mut self) {
        for &v in &self.rows {
            self.mask[v as usize] = false;
        }
        self.rows.clear();
    }

    /// The reached rows as node ids, in ascending dense-row order (the
    /// order the per-start `eval_from*` entry points return).
    pub(crate) fn node_ids(
        &self,
        id_at: impl Fn(u32) -> gde_datagraph::NodeId,
    ) -> Vec<gde_datagraph::NodeId> {
        let mut rows = self.rows.clone();
        rows.sort_unstable();
        rows.into_iter().map(id_at).collect()
    }
}

/// Per-start evaluation shared by the NFA and the register automaton:
/// `reach(u, hit)` runs the automaton's search from dense start row `u`
/// on the caller's per-call workspace, recording the answer rows in
/// `hit`, and the rows go straight into the relation (no node-id round
/// trip).
pub(crate) fn eval_by(
    n: usize,
    mut reach: impl FnMut(u32, &mut ReachedRows),
) -> gde_datagraph::Relation {
    let mut b = gde_datagraph::RelationBuilder::new(n);
    let mut hit = ReachedRows::new(n, usize::MAX);
    for u in 0..n {
        hit.clear();
        reach(u as u32, &mut hit);
        for &v in hit.rows() {
            b.push(u, v as usize);
        }
    }
    b.build()
}

/// Boolean projection of [`eval_by`]: does any start row reach an
/// answer? Each search stops at its first answer row, and the scan stops
/// at the first start that has one.
pub(crate) fn holds_by(n: usize, mut reach: impl FnMut(u32, &mut ReachedRows)) -> bool {
    let mut hit = ReachedRows::new(n, 1);
    (0..n).any(|u| {
        reach(u as u32, &mut hit);
        !hit.rows().is_empty()
    })
}

pub use dfa::Dfa;
pub use nfa::Nfa;
pub use parser::{parse_regex, ParseError};
pub use regex::Regex;
pub use register::{Cond, Reg, RegisterAutomaton};

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in search: start `u` reaches `targets[u]` in that order,
    /// stopping when [`ReachedRows::insert`] says the limit is reached.
    fn search<'a>(targets: &'a [&'a [u32]]) -> impl Fn(u32, &mut ReachedRows) + 'a {
        move |u, hit| {
            for &v in targets[u as usize] {
                if hit.insert(v) {
                    break;
                }
            }
        }
    }

    #[test]
    fn eval_by_collects_each_start_rows_on_a_cleared_workspace() {
        // start 1 reaches row 0 twice; start 3 reaches nothing
        let targets: [&[u32]; 4] = [&[3, 1], &[0, 2, 0], &[2], &[]];
        let rel = eval_by(4, search(&targets));
        let rows: Vec<Vec<usize>> = (0..4).map(|u| rel.row_iter(u).collect()).collect();
        assert_eq!(rows, [vec![1, 3], vec![0, 2], vec![2], vec![]]);
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn holds_by_stops_at_the_first_start_with_an_answer() {
        let targets: [&[u32]; 5] = [&[], &[], &[4, 1], &[0], &[2]];
        let (reach, mut starts, mut reached) = (search(&targets), Vec::new(), Vec::new());
        let holds = holds_by(5, |u, hit| {
            starts.push(u);
            reach(u, hit);
            reached.push(hit.rows().to_vec());
        });
        assert!(holds);
        assert_eq!(starts, [0, 1, 2], "the scan stops at start 2");
        assert_eq!(reached[2], [4], "the search stops at its first answer row");
        // no start reaches anything: every start is searched, and it fails
        let mut searched = 0;
        assert!(!holds_by(5, |_, _| searched += 1));
        assert_eq!(searched, 5);
    }
}
