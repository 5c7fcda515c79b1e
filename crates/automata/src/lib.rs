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

/// Per-start row evaluation shared by the NFA and register-automaton
/// row-restricted entry points: `reach(u, hit)` runs the automaton's
/// search from dense start row `u` on the caller's per-call workspace,
/// recording the answer rows in `hit`, and the rows go straight into the
/// relation (no node-id round trip). The start set is what restricts the
/// work; the walk itself crosses row-range boundaries freely.
pub(crate) fn eval_rows_by(
    n: usize,
    rows: std::ops::Range<usize>,
    mut reach: impl FnMut(u32, &mut ReachedRows),
) -> gde_datagraph::Relation {
    let mut b = gde_datagraph::RelationBuilder::new(n);
    let mut hit = ReachedRows::new(n, usize::MAX);
    for u in rows.start..rows.end.min(n) {
        hit.clear();
        reach(u as u32, &mut hit);
        for &v in hit.rows() {
            b.push(u, v as usize);
        }
    }
    b.build()
}

/// Boolean projection of [`eval_rows_by`]: does any start row in `rows`
/// reach an answer? Each search stops at its first answer row, and the
/// scan stops at the first start that has one.
pub(crate) fn holds_in_rows_by(
    n: usize,
    rows: std::ops::Range<usize>,
    mut reach: impl FnMut(u32, &mut ReachedRows),
) -> bool {
    let mut hit = ReachedRows::new(n, 1);
    (rows.start..rows.end.min(n)).any(|u| {
        reach(u as u32, &mut hit);
        !hit.rows().is_empty()
    })
}

pub use dfa::Dfa;
pub use nfa::Nfa;
pub use parser::{parse_regex, ParseError};
pub use regex::Regex;
pub use register::{Cond, Reg, RegisterAutomaton};
