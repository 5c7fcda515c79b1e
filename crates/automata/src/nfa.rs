//! Thompson NFAs and classical RPQ evaluation on data graphs (§2).
//!
//! [`Nfa::from_regex`] is the standard Thompson construction;
//! [`Nfa::eval`] computes `e(G) = {(v,v') | ∃π: v →π v', λ(π) ∈ L(e)}`
//! by a product BFS over `(node, state)` configurations, which is the
//! textbook NLogspace RPQ algorithm.

use crate::regex::Regex;
use crate::ReachedRows;
use gde_datagraph::{DataGraph, GraphSnapshot, Label, NodeId, Relation};
use std::collections::VecDeque;

/// The one thing a product search needs from a graph: the
/// `label`-successors of a dense node.
trait Successors {
    fn successors(&self, v: u32, label: Label, visit: impl FnMut(u32));
}

impl Successors for GraphSnapshot {
    #[inline]
    fn successors(&self, v: u32, label: Label, mut visit: impl FnMut(u32)) {
        for &w in self.out(label, v) {
            visit(w);
        }
    }
}

impl Successors for DataGraph {
    #[inline]
    fn successors(&self, v: u32, label: Label, mut visit: impl FnMut(u32)) {
        for &(l, w) in self.out_at(v) {
            if l == label {
                visit(w);
            }
        }
    }
}

/// The visited `(node, state)` set of a product search, dense over
/// `n × states`, shared by every start of one evaluation call. The BFS
/// queue keeps every configuration it ever held, so it doubles as the
/// list of touched slots and clearing costs the configurations the last
/// start reached.
struct ProductSpace {
    states: usize,
    seen: Vec<bool>,
    queue: Vec<(u32, u32)>,
}

impl ProductSpace {
    fn new(n: usize, nfa: &Nfa) -> ProductSpace {
        ProductSpace {
            states: nfa.state_count(),
            seen: vec![false; n * nfa.state_count()],
            queue: Vec::new(),
        }
    }

    #[inline]
    fn visit(&mut self, node: u32, state: u32) {
        let slot = node as usize * self.states + state as usize;
        if !self.seen[slot] {
            self.seen[slot] = true;
            self.queue.push((node, state));
        }
    }

    fn clear(&mut self) {
        for &(node, state) in &self.queue {
            self.seen[node as usize * self.states + state as usize] = false;
        }
        self.queue.clear();
    }
}

/// A nondeterministic finite automaton over edge labels.
#[derive(Clone, Debug)]
pub struct Nfa {
    initial: u32,
    accepting: Vec<bool>,
    eps: Vec<Vec<u32>>,
    steps: Vec<Vec<(Label, u32)>>,
}

struct Frag {
    start: u32,
    end: u32,
}

impl Nfa {
    fn add_state(&mut self) -> u32 {
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        self.accepting.push(false);
        (self.eps.len() - 1) as u32
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.eps.len()
    }

    /// A copy of this automaton with every transition label rewritten
    /// through `f`. States, ε-transitions and acceptance are untouched, so
    /// the copy is exactly the Thompson NFA of the label-substituted
    /// regex — this is how compiled query *templates* stamp out bound
    /// instances without re-running the construction.
    pub fn map_labels(&self, mut f: impl FnMut(Label) -> Label) -> Nfa {
        Nfa {
            initial: self.initial,
            accepting: self.accepting.clone(),
            eps: self.eps.clone(),
            steps: self
                .steps
                .iter()
                .map(|ts| ts.iter().map(|&(l, t)| (f(l), t)).collect())
                .collect(),
        }
    }

    /// Thompson construction.
    pub fn from_regex(e: &Regex) -> Nfa {
        let mut nfa = Nfa {
            initial: 0,
            accepting: Vec::new(),
            eps: Vec::new(),
            steps: Vec::new(),
        };
        let frag = nfa.build(e);
        nfa.initial = frag.start;
        nfa.accepting[frag.end as usize] = true;
        nfa
    }

    fn build(&mut self, e: &Regex) -> Frag {
        match e {
            Regex::Empty => {
                let s = self.add_state();
                let t = self.add_state();
                Frag { start: s, end: t }
            }
            Regex::Epsilon => {
                let s = self.add_state();
                Frag { start: s, end: s }
            }
            Regex::Atom(l) => {
                let s = self.add_state();
                let t = self.add_state();
                self.steps[s as usize].push((*l, t));
                Frag { start: s, end: t }
            }
            Regex::Concat(es) => {
                if es.is_empty() {
                    return self.build(&Regex::Epsilon);
                }
                let mut iter = es.iter();
                let first = self.build(iter.next().unwrap());
                let mut cur_end = first.end;
                for sub in iter {
                    let f = self.build(sub);
                    self.eps[cur_end as usize].push(f.start);
                    cur_end = f.end;
                }
                Frag {
                    start: first.start,
                    end: cur_end,
                }
            }
            Regex::Union(es) => {
                let s = self.add_state();
                let t = self.add_state();
                if es.is_empty() {
                    // ∅: no branches
                }
                for sub in es {
                    let f = self.build(sub);
                    self.eps[s as usize].push(f.start);
                    self.eps[f.end as usize].push(t);
                }
                Frag { start: s, end: t }
            }
            Regex::Plus(sub) => {
                let f = self.build(sub);
                let s = self.add_state();
                let t = self.add_state();
                self.eps[s as usize].push(f.start);
                self.eps[f.end as usize].push(t);
                self.eps[f.end as usize].push(f.start);
                Frag { start: s, end: t }
            }
            Regex::Star(sub) => {
                let f = self.build(sub);
                let s = self.add_state();
                let t = self.add_state();
                self.eps[s as usize].push(f.start);
                self.eps[f.end as usize].push(t);
                self.eps[f.end as usize].push(f.start);
                self.eps[s as usize].push(t);
                Frag { start: s, end: t }
            }
        }
    }

    /// Assemble an NFA directly from parts (no ε-transitions): used by the
    /// DFA → NFA view. State ids index `accepting`/`transitions`.
    pub fn from_parts(
        initial: u32,
        accepting: Vec<bool>,
        transitions: Vec<Vec<(Label, u32)>>,
    ) -> Nfa {
        assert_eq!(accepting.len(), transitions.len());
        Nfa {
            initial,
            eps: vec![Vec::new(); accepting.len()],
            steps: transitions,
            accepting,
        }
    }

    /// Is a state accepting?
    pub fn is_accepting(&self, state: u32) -> bool {
        self.accepting[state as usize]
    }

    /// The ε-closure of the initial state, sorted (for subset construction).
    pub fn initial_closure(&self) -> Vec<u32> {
        let mut set = vec![self.initial];
        let mut seen = vec![false; self.state_count()];
        seen[self.initial as usize] = true;
        self.eps_closure_into(&mut set, &mut seen);
        set.sort_unstable();
        set
    }

    /// One subset-construction step: ε-closure of the `label`-successors of
    /// a state set, sorted.
    pub fn step_closure(&self, states: &[u32], label: Label) -> Vec<u32> {
        let mut next = Vec::new();
        let mut seen = vec![false; self.state_count()];
        for &s in states {
            for &(l, t) in &self.steps[s as usize] {
                if l == label && !seen[t as usize] {
                    seen[t as usize] = true;
                    next.push(t);
                }
            }
        }
        self.eps_closure_into(&mut next, &mut seen);
        next.sort_unstable();
        next
    }

    fn eps_closure_into(&self, states: &mut Vec<u32>, seen: &mut [bool]) {
        let mut stack: Vec<u32> = states.clone();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s as usize] {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    states.push(t);
                    stack.push(t);
                }
            }
        }
    }

    /// Word membership `w ∈ L(e)` (used as a test oracle and by mapping
    /// classification).
    pub fn accepts(&self, word: &[Label]) -> bool {
        let q = self.state_count();
        let mut cur = vec![self.initial];
        let mut seen = vec![false; q];
        seen[self.initial as usize] = true;
        self.eps_closure_into(&mut cur, &mut seen);
        for &l in word {
            let mut next = Vec::new();
            let mut seen2 = vec![false; q];
            for &s in &cur {
                for &(sl, t) in &self.steps[s as usize] {
                    if sl == l && !seen2[t as usize] {
                        seen2[t as usize] = true;
                        next.push(t);
                    }
                }
            }
            self.eps_closure_into(&mut next, &mut seen2);
            cur = next;
            if cur.is_empty() {
                return false;
            }
        }
        cur.iter().any(|&s| self.accepting[s as usize])
    }

    /// Is `L(e)` nonempty? (Graph reachability from initial to accepting.)
    pub fn language_nonempty(&self) -> bool {
        let q = self.state_count();
        let mut seen = vec![false; q];
        let mut stack = vec![self.initial];
        seen[self.initial as usize] = true;
        while let Some(s) = stack.pop() {
            if self.accepting[s as usize] {
                return true;
            }
            for &t in &self.eps[s as usize] {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
            for &(_, t) in &self.steps[s as usize] {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        false
    }

    /// Enumerate all words of `L` with length ≤ `k`, up to `cap` words
    /// (callers detect truncation by `result.len() > cap - 1`... more
    /// precisely: at most `cap` words are returned; if exactly `cap` are
    /// returned the language may contain more). Deterministic DFS over
    /// state sets, so each word is produced once.
    pub fn words_up_to(&self, k: usize, cap: usize) -> Vec<Vec<Label>> {
        let mut out: Vec<Vec<Label>> = Vec::new();
        let q = self.state_count();
        let mut init = vec![self.initial];
        let mut seen = vec![false; q];
        seen[self.initial as usize] = true;
        self.eps_closure_into(&mut init, &mut seen);
        let mut word: Vec<Label> = Vec::new();
        self.words_rec(&init, k, cap, &mut word, &mut out);
        out
    }

    fn words_rec(
        &self,
        states: &[u32],
        budget: usize,
        cap: usize,
        word: &mut Vec<Label>,
        out: &mut Vec<Vec<Label>>,
    ) {
        if out.len() >= cap {
            return;
        }
        if states.iter().any(|&s| self.accepting[s as usize]) {
            out.push(word.clone());
        }
        if budget == 0 {
            return;
        }
        // candidate labels from the current state set
        let mut labels: Vec<Label> = states
            .iter()
            .flat_map(|&s| self.steps[s as usize].iter().map(|&(l, _)| l))
            .collect();
        labels.sort();
        labels.dedup();
        for l in labels {
            let q = self.state_count();
            let mut next = Vec::new();
            let mut seen = vec![false; q];
            for &s in states {
                for &(sl, t) in &self.steps[s as usize] {
                    if sl == l && !seen[t as usize] {
                        seen[t as usize] = true;
                        next.push(t);
                    }
                }
            }
            self.eps_closure_into(&mut next, &mut seen);
            if next.is_empty() {
                continue;
            }
            word.push(l);
            self.words_rec(&next, budget - 1, cap, word, out);
            word.pop();
            if out.len() >= cap {
                return;
            }
        }
    }

    /// Find some accepted word of length strictly greater than `k`, if one
    /// exists. Layered forward reachability to length `k+1`, then a
    /// shortest completion to an accepting state.
    pub fn some_word_longer_than(&self, k: usize) -> Option<Vec<Label>> {
        let q = self.state_count();
        // can_accept[s]: an accepting state is reachable from s (any moves)
        let mut can_accept = vec![false; q];
        {
            // reverse edges
            let mut rev: Vec<Vec<u32>> = vec![Vec::new(); q];
            for s in 0..q {
                for &t in &self.eps[s] {
                    rev[t as usize].push(s as u32);
                }
                for &(_, t) in &self.steps[s] {
                    rev[t as usize].push(s as u32);
                }
            }
            let mut stack: Vec<u32> = (0..q as u32)
                .filter(|&s| self.accepting[s as usize])
                .collect();
            for &s in &stack {
                can_accept[s as usize] = true;
            }
            while let Some(s) = stack.pop() {
                for &p in &rev[s as usize] {
                    if !can_accept[p as usize] {
                        can_accept[p as usize] = true;
                        stack.push(p);
                    }
                }
            }
        }
        // layered forward: parent[l][state] = (prev_state, label)
        let mut layer: Vec<u32> = vec![self.initial];
        let mut seen = vec![false; q];
        seen[self.initial as usize] = true;
        self.eps_closure_into(&mut layer, &mut seen);
        let mut parents: Vec<Vec<Option<(u32, Label)>>> = vec![vec![None; q]];
        let mut layers: Vec<Vec<u32>> = vec![layer];
        for _ in 0..=k {
            let prev = layers.last().unwrap();
            let mut next: Vec<u32> = Vec::new();
            let mut seen2 = vec![false; q];
            let mut parent: Vec<Option<(u32, Label)>> = vec![None; q];
            for &s in prev {
                for &(l, t) in &self.steps[s as usize] {
                    if !seen2[t as usize] {
                        seen2[t as usize] = true;
                        parent[t as usize] = Some((s, l));
                        next.push(t);
                    }
                }
            }
            // eps closure, propagating the letter-parent tag
            let mut stack: Vec<u32> = next.clone();
            while let Some(s) = stack.pop() {
                for &t in &self.eps[s as usize] {
                    if !seen2[t as usize] {
                        seen2[t as usize] = true;
                        parent[t as usize] = parent[s as usize];
                        next.push(t);
                        stack.push(t);
                    }
                }
            }
            layers.push(next);
            parents.push(parent);
        }
        // a state at layer k+1 from which acceptance is reachable?
        let last = &layers[k + 1];
        let &start_suffix = last.iter().find(|&&s| can_accept[s as usize])?;
        // prefix of length k+1
        let mut prefix: Vec<Label> = Vec::new();
        let mut cur = start_suffix;
        for l in (1..=k + 1).rev() {
            let (p, lab) = parents[l][cur as usize].expect("layered parent");
            prefix.push(lab);
            cur = p;
        }
        prefix.reverse();
        // shortest completion from start_suffix to acceptance
        let mut suffix: Vec<Label> = Vec::new();
        {
            let mut prev: Vec<Option<(u32, Option<Label>)>> = vec![None; q];
            let mut seen3 = vec![false; q];
            let mut queue = VecDeque::new();
            queue.push_back(start_suffix);
            seen3[start_suffix as usize] = true;
            let mut goal = None;
            'bfs: while let Some(s) = queue.pop_front() {
                if self.accepting[s as usize] {
                    goal = Some(s);
                    break 'bfs;
                }
                for &t in &self.eps[s as usize] {
                    if !seen3[t as usize] {
                        seen3[t as usize] = true;
                        prev[t as usize] = Some((s, None));
                        queue.push_back(t);
                    }
                }
                for &(l, t) in &self.steps[s as usize] {
                    if !seen3[t as usize] {
                        seen3[t as usize] = true;
                        prev[t as usize] = Some((s, Some(l)));
                        queue.push_back(t);
                    }
                }
            }
            let mut cur = goal.expect("can_accept guaranteed a path");
            while cur != start_suffix {
                let (p, lab) = prev[cur as usize].expect("bfs parent");
                if let Some(l) = lab {
                    suffix.push(l);
                }
                cur = p;
            }
            suffix.reverse();
        }
        prefix.extend(suffix);
        debug_assert!(self.accepts(&prefix));
        debug_assert!(prefix.len() > k);
        Some(prefix)
    }

    /// All nodes reachable from `from` along a path whose label is in the
    /// language: one product BFS over the graph's adjacency lists (no
    /// freezing — the right entry point for one-off, per-edge checks like
    /// solution verification).
    pub fn eval_from(&self, g: &DataGraph, from: NodeId) -> Vec<NodeId> {
        let Some(start) = g.idx(from) else {
            return Vec::new();
        };
        let mut hit = ReachedRows::new(g.n(), usize::MAX);
        self.search(g, &mut ProductSpace::new(g.n(), self), start, &mut hit);
        hit.node_ids(|d| g.id_at(d))
    }

    /// The product-BFS kernel behind every per-start entry point: explore
    /// `(node, state)` configurations from `(start, initial)` and record
    /// the rows reached in an accepting state in `hit`, stopping early
    /// once `hit` is full. `space` is the caller's per-call workspace;
    /// the search clears what the previous start touched, so a start
    /// costs the configurations it reaches, never `n · states`.
    fn search(
        &self,
        g: &impl Successors,
        space: &mut ProductSpace,
        start: u32,
        hit: &mut ReachedRows,
    ) {
        space.clear();
        space.visit(start, self.initial);
        let mut head = 0;
        while let Some(&(v, s)) = space.queue.get(head) {
            head += 1;
            if self.accepting[s as usize] && hit.insert(v) {
                return;
            }
            for &t in &self.eps[s as usize] {
                space.visit(v, t);
            }
            for &(l, t) in &self.steps[s as usize] {
                g.successors(v, l, |w| space.visit(w, t));
            }
        }
    }

    /// Is there a path `from → to` whose label is **rejected** by this
    /// automaton? This evaluates the complement RPQ `Σ* \ L` without
    /// materializing a complement automaton: a BFS over `(node, state-set)`
    /// pairs with on-the-fly subset construction. Used by the Theorem 1
    /// gadget, whose error query includes the complement of the well-formed
    /// path shape.
    pub fn exists_rejected_path(&self, g: &DataGraph, from: NodeId, to: NodeId) -> bool {
        use gde_datagraph::FxHashSet;
        let (Some(start), Some(goal)) = (g.idx(from), g.idx(to)) else {
            return false;
        };
        let q = self.state_count();
        let init_set = {
            let mut s = vec![self.initial];
            let mut seen = vec![false; q];
            seen[self.initial as usize] = true;
            self.eps_closure_into(&mut s, &mut seen);
            s.sort_unstable();
            s
        };
        let mut visited: FxHashSet<(u32, Vec<u32>)> = FxHashSet::default();
        let mut queue: VecDeque<(u32, Vec<u32>)> = VecDeque::new();
        visited.insert((start, init_set.clone()));
        queue.push_back((start, init_set));
        while let Some((node, set)) = queue.pop_front() {
            if node == goal && !set.iter().any(|&s| self.accepting[s as usize]) {
                return true;
            }
            // group out-edges by label
            let mut labels: Vec<Label> = g.out_at(node).iter().map(|&(l, _)| l).collect();
            labels.sort();
            labels.dedup();
            for l in labels {
                let mut next_set = Vec::new();
                let mut seen = vec![false; q];
                for &s in &set {
                    for &(sl, t) in &self.steps[s as usize] {
                        if sl == l && !seen[t as usize] {
                            seen[t as usize] = true;
                            next_set.push(t);
                        }
                    }
                }
                self.eps_closure_into(&mut next_set, &mut seen);
                next_set.sort_unstable();
                for &(el, w) in g.out_at(node) {
                    if el == l {
                        let key = (w, next_set.clone());
                        if !visited.contains(&key) {
                            visited.insert(key.clone());
                            queue.push_back(key);
                        }
                    }
                }
            }
        }
        false
    }

    /// [`Nfa::eval_from`] against a frozen [`GraphSnapshot`]: the product
    /// BFS steps through label-partitioned CSR slices instead of filtering
    /// each node's full out-list per automaton step.
    pub fn eval_from_snapshot(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId> {
        let Some(start) = s.idx(from) else {
            return Vec::new();
        };
        let mut hit = ReachedRows::new(s.n(), usize::MAX);
        self.search(s, &mut ProductSpace::new(s.n(), self), start, &mut hit);
        hit.node_ids(|d| s.id_at(d))
    }

    /// Full RPQ evaluation `e(G)` as a [`Relation`] over dense node indices.
    /// Freezes the graph once and runs the CSR-based BFS from every node.
    pub fn eval(&self, g: &DataGraph) -> Relation {
        self.eval_snapshot(&g.snapshot())
    }

    /// Full RPQ evaluation against a prebuilt snapshot: the product BFS
    /// from every start row, all starts sharing one workspace. Rows are
    /// collected through a
    /// [`RelationBuilder`](gde_datagraph::RelationBuilder), so large sparse
    /// answers get the CSR representation directly.
    pub fn eval_snapshot(&self, s: &GraphSnapshot) -> Relation {
        let mut space = ProductSpace::new(s.n(), self);
        crate::eval_by(s.n(), |u, hit| self.search(s, &mut space, u, hit))
    }

    /// Does any start row reach an answer? Stops at the first answer of
    /// the first matching start row — the Boolean serve's early exit.
    pub fn holds_snapshot(&self, s: &GraphSnapshot) -> bool {
        let mut space = ProductSpace::new(s.n(), self);
        crate::holds_by(s.n(), |u, hit| self.search(s, &mut space, u, hit))
    }

    /// Full RPQ evaluation as `(NodeId, NodeId)` pairs, sorted.
    pub fn eval_pairs(&self, g: &DataGraph) -> Vec<(NodeId, NodeId)> {
        self.eval_pairs_snapshot(&g.snapshot())
    }

    /// [`Nfa::eval_pairs`] against a prebuilt snapshot.
    pub fn eval_pairs_snapshot(&self, s: &GraphSnapshot) -> Vec<(NodeId, NodeId)> {
        let mut out: Vec<(NodeId, NodeId)> = self
            .eval_snapshot(s)
            .iter_pairs()
            .map(|(i, j)| (s.id_at(i as u32), s.id_at(j as u32)))
            .collect();
        out.sort();
        out
    }
}

/// The per-start product BFS the shared-workspace kernel replaced, kept
/// as the reference it is checked against: a fresh `n × states` visited
/// array and answer mask per start, the mask scanned in full.
#[cfg(test)]
impl Nfa {
    pub(crate) fn reference_eval_from(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId> {
        let Some(start) = s.idx(from) else {
            return Vec::new();
        };
        let q = self.state_count();
        let mut seen = vec![false; s.n() * q];
        let mut out = vec![false; s.n()];
        let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
        seen[start as usize * q + self.initial as usize] = true;
        queue.push_back((start, self.initial));
        while let Some((v, st)) = queue.pop_front() {
            if self.accepting[st as usize] {
                out[v as usize] = true;
            }
            let mut push = |w: u32, t: u32| {
                if !seen[w as usize * q + t as usize] {
                    seen[w as usize * q + t as usize] = true;
                    queue.push_back((w, t));
                }
            };
            for &t in &self.eps[st as usize] {
                push(v, t);
            }
            for &(l, t) in &self.steps[st as usize] {
                for &w in s.out(l, v) {
                    push(w, t);
                }
            }
        }
        (0..s.n() as u32)
            .filter(|&d| out[d as usize])
            .map(|d| s.id_at(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use gde_datagraph::{Alphabet, Value};

    fn graph() -> DataGraph {
        // 0 -a-> 1 -b-> 2 -a-> 3, plus 1 -a-> 1 loop
        let mut g = DataGraph::new();
        for i in 0..4 {
            g.add_node(NodeId(i), Value::int(i as i64)).unwrap();
        }
        g.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        g.add_edge_str(NodeId(1), "b", NodeId(2)).unwrap();
        g.add_edge_str(NodeId(2), "a", NodeId(3)).unwrap();
        g.add_edge_str(NodeId(1), "a", NodeId(1)).unwrap();
        g
    }

    fn nfa_of(g: &mut DataGraph, src: &str) -> Nfa {
        let e = parse_regex(src, g.alphabet_mut()).unwrap();
        Nfa::from_regex(&e)
    }

    #[test]
    fn word_acceptance() {
        let mut al = Alphabet::new();
        let e = parse_regex("(a|b)+ c", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        let a = al.label("a").unwrap();
        let b = al.label("b").unwrap();
        let c = al.label("c").unwrap();
        assert!(nfa.accepts(&[a, c]));
        assert!(nfa.accepts(&[a, b, a, c]));
        assert!(!nfa.accepts(&[c]));
        assert!(!nfa.accepts(&[a, b]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn epsilon_and_star() {
        let mut al = Alphabet::new();
        let e = parse_regex("a*", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        let a = al.label("a").unwrap();
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&[a, a, a]));
    }

    #[test]
    fn empty_language() {
        let mut al = Alphabet::new();
        let e = parse_regex("empty", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        assert!(!nfa.language_nonempty());
        assert!(!nfa.accepts(&[]));
        let e = parse_regex("empty | a", &mut al).unwrap();
        assert!(Nfa::from_regex(&e).language_nonempty());
    }

    #[test]
    fn graph_eval_word() {
        let mut g = graph();
        let nfa = nfa_of(&mut g, "a b");
        assert_eq!(
            nfa.eval_pairs(&g),
            vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]
        );
    }

    #[test]
    fn graph_eval_star_handles_loops() {
        let mut g = graph();
        let nfa = nfa_of(&mut g, "a+");
        let pairs = nfa.eval_pairs(&g);
        // a+ from 0: {1} (via loop also 1); from 1: {1}; from 2: {3}
        assert!(pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(pairs.contains(&(NodeId(1), NodeId(1))));
        assert!(pairs.contains(&(NodeId(2), NodeId(3))));
        assert!(!pairs.contains(&(NodeId(0), NodeId(3))));
    }

    #[test]
    fn graph_eval_reachability() {
        let g = graph();
        let e = Regex::reachability(g.alphabet());
        let nfa = Nfa::from_regex(&e);
        let pairs = nfa.eval_pairs(&g);
        // reachability is reflexive (ε ∈ Σ*)
        assert!(pairs.contains(&(NodeId(3), NodeId(3))));
        assert!(pairs.contains(&(NodeId(0), NodeId(3))));
        assert_eq!(pairs.len(), 4 + 3 + 2 + 1); // 0→{0..3},1→{1,2,3},2→{2,3},3→{3}
    }

    #[test]
    fn eval_from_missing_node() {
        let mut g = graph();
        let nfa = nfa_of(&mut g, "a");
        assert!(nfa.eval_from(&g, NodeId(99)).is_empty());
    }

    #[test]
    fn rejected_path_detection() {
        let mut g = graph(); // 0 -a-> 1 -b-> 2 -a-> 3, 1 -a-> 1
                             // shape "a b a": the path 0→3 via (a b a) is fine, but the loop
                             // offers 0 -a-> 1 -a-> 1 -b-> 2 -a-> 3 labelled "a a b a": rejected.
        let e = parse_regex("a b a", g.alphabet_mut()).unwrap();
        let nfa = Nfa::from_regex(&e);
        assert!(nfa.exists_rejected_path(&g, NodeId(0), NodeId(3)));
        // with shape a a* b a, every 0→3 path conforms
        let e = parse_regex("a a* b a", g.alphabet_mut()).unwrap();
        let nfa = Nfa::from_regex(&e);
        assert!(!nfa.exists_rejected_path(&g, NodeId(0), NodeId(3)));
        // unreachable target: vacuously no rejected path
        assert!(!nfa.exists_rejected_path(&g, NodeId(3), NodeId(0)));
        // empty path at node 0 is rejected when ε ∉ L
        assert!(nfa.exists_rejected_path(&g, NodeId(0), NodeId(0)));
        let estar = parse_regex("a*", g.alphabet_mut()).unwrap();
        let nfa2 = Nfa::from_regex(&estar);
        assert!(!nfa2.exists_rejected_path(&g, NodeId(3), NodeId(3)));
    }

    #[test]
    fn words_up_to_enumerates() {
        let mut al = Alphabet::new();
        let e = parse_regex("a (b | c)", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        let a = al.label("a").unwrap();
        let b = al.label("b").unwrap();
        let c = al.label("c").unwrap();
        let words = nfa.words_up_to(2, 100);
        assert_eq!(words.len(), 2);
        assert!(words.contains(&vec![a, b]));
        assert!(words.contains(&vec![a, c]));
        assert!(nfa.words_up_to(1, 100).is_empty());
        // star: ε, a, aa
        let e = parse_regex("a*", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        let words = nfa.words_up_to(2, 100);
        assert_eq!(words.len(), 3);
        assert!(words.contains(&vec![]));
    }

    #[test]
    fn words_up_to_respects_cap() {
        let mut al = Alphabet::new();
        let e = parse_regex("(a|b)*", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        let words = nfa.words_up_to(10, 5);
        assert_eq!(words.len(), 5);
    }

    #[test]
    fn longer_word_search() {
        let mut al = Alphabet::new();
        let e = parse_regex("a b c", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        assert!(nfa.some_word_longer_than(2).is_some());
        assert!(nfa.some_word_longer_than(3).is_none());
        let e = parse_regex("a+", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        let w = nfa.some_word_longer_than(7).unwrap();
        assert!(w.len() > 7);
        assert!(nfa.accepts(&w));
        let e = parse_regex("a | b b", &mut al).unwrap();
        let nfa = Nfa::from_regex(&e);
        let w = nfa.some_word_longer_than(1).unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn eval_matches_naive_word_reachability() {
        use gde_datagraph::path::word_reachable;
        let mut g = graph();
        let e = parse_regex("a a", g.alphabet_mut()).unwrap();
        let nfa = Nfa::from_regex(&e);
        let a = g.alphabet().label("a").unwrap();
        for u in g.node_ids().collect::<Vec<_>>() {
            let mut fast = nfa.eval_from(&g, u);
            let mut slow = word_reachable(&g, u, &[a, a]);
            fast.sort();
            slow.sort();
            assert_eq!(fast, slow, "from {u}");
        }
    }
}
