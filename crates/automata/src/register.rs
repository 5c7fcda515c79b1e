//! Register automata over data paths (§3 of the paper, after \[25, 31\]).
//!
//! A register automaton reads a data path `d₀a₁d₁…aₙdₙ`: it starts on the
//! value `d₀` and then consumes `(label, value)` steps. Transitions are of
//! two kinds:
//!
//! * **ε-transitions** carrying an action: *store* the current data value in
//!   a set of registers, or *check* a [`Cond`] against the current value;
//! * **letter transitions** consuming one `(a, d)` step.
//!
//! This is exactly the machinery needed to implement regular expressions
//! with memory (compiled in `gde-dataquery`); it also provides the symbolic
//! nonemptiness check (configurations abstract register contents by an
//! equality partition) that witnesses the PSPACE upper bound of \[31\].
//!
//! Value comparisons follow §7's SQL-null rule throughout: no comparison
//! involving [`Value::Null`] is true. On null-free graphs (the §3 semantics)
//! this coincides with plain equality, so one implementation serves both.

use crate::ReachedRows;
use gde_datagraph::{
    DataGraph, DataPath, FxHashMap, FxHashSet, GraphSnapshot, Label, NodeId, Relation, Value,
};
use std::collections::VecDeque;

/// A register index.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Reg(pub u8);

/// A condition `c := x= | x≠ | c∧c | c∨c` on registers vs the current value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Always true (used for unconditioned checks).
    True,
    /// `x=`: the register equals the current data value (both non-null).
    Eq(Reg),
    /// `x≠`: the register differs from the current value (both non-null,
    /// register defined).
    Neq(Reg),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
}

impl Cond {
    /// Conjunction builder.
    pub fn and(a: Cond, b: Cond) -> Cond {
        Cond::And(Box::new(a), Box::new(b))
    }

    /// Disjunction builder.
    pub fn or(a: Cond, b: Cond) -> Cond {
        Cond::Or(Box::new(a), Box::new(b))
    }

    /// Negation: conditions are closed under negation by pushing `¬` to the
    /// leaves and swapping `x=`/`x≠` (§3 of the paper).
    ///
    /// Note this De Morgan dual is the *syntactic* negation of the paper;
    /// under SQL-null semantics `x=` and `x≠` are both false on nulls, so
    /// `c` and `c.negate()` may both be false — exactly SQL's behaviour.
    pub fn negate(&self) -> Cond {
        match self {
            Cond::True => Cond::Or(Box::new(Cond::True), Box::new(Cond::True)), // placeholder: ¬true unused
            Cond::Eq(r) => Cond::Neq(*r),
            Cond::Neq(r) => Cond::Eq(*r),
            Cond::And(a, b) => Cond::or(a.negate(), b.negate()),
            Cond::Or(a, b) => Cond::and(a.negate(), b.negate()),
        }
    }

    /// Registers mentioned by the condition.
    pub fn regs(&self, out: &mut Vec<Reg>) {
        match self {
            Cond::True => {}
            Cond::Eq(r) | Cond::Neq(r) => out.push(*r),
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.regs(out);
                b.regs(out);
            }
        }
    }

    /// Evaluate against concrete values. `regs[i] = None` means register `i`
    /// is undefined (`⊥`); comparisons with undefined registers are false,
    /// as are comparisons involving nulls (§7).
    pub fn eval(&self, regs: &[Option<&Value>], current: &Value) -> bool {
        match self {
            Cond::True => true,
            Cond::Eq(r) => regs[r.0 as usize].is_some_and(|v| v.sql_eq(current)),
            Cond::Neq(r) => regs[r.0 as usize].is_some_and(|v| v.sql_ne(current)),
            Cond::And(a, b) => a.eval(regs, current) && b.eval(regs, current),
            Cond::Or(a, b) => a.eval(regs, current) || b.eval(regs, current),
        }
    }

    /// SQL three-valued evaluation (Remark 2 of the paper): comparisons
    /// with the null value are *unknown* (`None`), and unknown propagates
    /// through `∧`/`∨` by the usual Kleene rules. The paper's two-valued
    /// semantics ([`Cond::eval`]) and this one agree on *true*:
    /// `eval(c) == true  ⟺  eval_sql3(c) == Some(true)` — which is why the
    /// simpler two-valued evaluation loses nothing for data RPQs.
    pub fn eval_sql3(&self, regs: &[Option<&Value>], current: &Value) -> Option<bool> {
        match self {
            Cond::True => Some(true),
            Cond::Eq(r) => match regs[r.0 as usize] {
                None => Some(false), // undefined register: plain false, not unknown
                Some(v) if v.is_null() || current.is_null() => None,
                Some(v) => Some(v == current),
            },
            Cond::Neq(r) => match regs[r.0 as usize] {
                None => Some(false),
                Some(v) if v.is_null() || current.is_null() => None,
                Some(v) => Some(v != current),
            },
            Cond::And(a, b) => match (a.eval_sql3(regs, current), b.eval_sql3(regs, current)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Cond::Or(a, b) => match (a.eval_sql3(regs, current), b.eval_sql3(regs, current)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        }
    }

    /// Evaluate against interned value ids (a [`gde_datagraph::GraphSnapshot`]
    /// vid table): `regs` hold vids or `undef`, `cur` is the current vid,
    /// and `null_vid` is the vid shared by SQL-null values (comparisons
    /// touching it are false, as in [`Cond::eval`]). Equality collapses to
    /// integer comparison because SQL-equal values share a vid.
    pub fn eval_vids(&self, regs: &[u32], cur: u32, null_vid: Option<u32>, undef: u32) -> bool {
        let ok = |v: u32| v != undef && Some(v) != null_vid;
        match self {
            Cond::True => true,
            Cond::Eq(r) => {
                let v = regs[r.0 as usize];
                ok(v) && Some(cur) != null_vid && v == cur
            }
            Cond::Neq(r) => {
                let v = regs[r.0 as usize];
                ok(v) && Some(cur) != null_vid && v != cur
            }
            Cond::And(a, b) => {
                a.eval_vids(regs, cur, null_vid, undef) && b.eval_vids(regs, cur, null_vid, undef)
            }
            Cond::Or(a, b) => {
                a.eval_vids(regs, cur, null_vid, undef) || b.eval_vids(regs, cur, null_vid, undef)
            }
        }
    }

    /// Symbolic evaluation: registers and the current value are equality
    /// classes (`UNDEF_CLASS` = undefined); distinct classes denote distinct
    /// non-null values.
    fn eval_sym(&self, regs: &[u8], cur: u8) -> bool {
        match self {
            Cond::True => true,
            Cond::Eq(r) => regs[r.0 as usize] != UNDEF_CLASS && regs[r.0 as usize] == cur,
            Cond::Neq(r) => regs[r.0 as usize] != UNDEF_CLASS && regs[r.0 as usize] != cur,
            Cond::And(a, b) => a.eval_sym(regs, cur) && b.eval_sym(regs, cur),
            Cond::Or(a, b) => a.eval_sym(regs, cur) || b.eval_sym(regs, cur),
        }
    }
}

/// Action on an ε-transition.
#[derive(Clone, Debug)]
pub enum EpsAction {
    /// Plain ε-move.
    Jump,
    /// `↓x̄`: store the current data value into these registers.
    Store(Vec<Reg>),
    /// `[c]`: proceed only if the condition holds for the current value.
    Check(Cond),
}

const UNDEF: u32 = u32::MAX;
const UNDEF_CLASS: u8 = u8::MAX;

/// A register automaton over data paths.
#[derive(Clone, Debug)]
pub struct RegisterAutomaton {
    n_regs: usize,
    initial: u32,
    accepting: Vec<bool>,
    eps: Vec<Vec<(EpsAction, u32)>>,
    steps: Vec<Vec<(Label, u32)>>,
}

/// Incremental construction of a [`RegisterAutomaton`] (used by the REM
/// compiler in `gde-dataquery`).
#[derive(Clone, Debug)]
pub struct Builder {
    n_regs: usize,
    initial: u32,
    accepting: Vec<bool>,
    eps: Vec<Vec<(EpsAction, u32)>>,
    steps: Vec<Vec<(Label, u32)>>,
}

impl Builder {
    /// A builder for an automaton with `n_regs` registers.
    pub fn new(n_regs: usize) -> Builder {
        Builder {
            n_regs,
            initial: 0,
            accepting: Vec::new(),
            eps: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Number of states added so far.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// Add a state, returning its id.
    pub fn add_state(&mut self) -> u32 {
        self.accepting.push(false);
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        (self.accepting.len() - 1) as u32
    }

    /// Mark the initial state.
    pub fn set_initial(&mut self, s: u32) {
        self.initial = s;
    }

    /// Mark a state accepting.
    pub fn set_accepting(&mut self, s: u32) {
        self.accepting[s as usize] = true;
    }

    /// Add an ε-transition with an action.
    pub fn add_eps(&mut self, from: u32, action: EpsAction, to: u32) {
        self.eps[from as usize].push((action, to));
    }

    /// Add a letter transition.
    pub fn add_step(&mut self, from: u32, label: Label, to: u32) {
        self.steps[from as usize].push((label, to));
    }

    /// Finish.
    pub fn build(self) -> RegisterAutomaton {
        RegisterAutomaton {
            n_regs: self.n_regs,
            initial: self.initial,
            accepting: self.accepting,
            eps: self.eps,
            steps: self.steps,
        }
    }
}

/// A search configuration: `(node, state, valuation id)`.
type Config = (u32, u32, u32);

/// The workspace of a register-automaton search, shared by every start of
/// one evaluation call. Register valuations (vectors of value ids) are
/// interned to dense ids once per call — they depend on the snapshot's
/// values, not on the start — so a configuration is three integers and a
/// step copies no register vector. The visited set is hashed (the
/// valuation space is not bounded up front); the BFS queue keeps every
/// configuration it ever held, so it doubles as the touched list and
/// clearing costs the configurations the last start reached.
struct ConfigSpace {
    regs: usize,
    /// Interned valuations, `regs` value ids each, in id order.
    valuations: Vec<u32>,
    ids: FxHashMap<Box<[u32]>, u32>,
    scratch: Vec<u32>,
    seen: FxHashSet<Config>,
    queue: Vec<Config>,
}

impl ConfigSpace {
    /// The id of the all-undefined valuation every search starts from.
    const ALL_UNDEF: u32 = 0;

    fn new(regs: usize) -> ConfigSpace {
        let mut space = ConfigSpace {
            regs,
            valuations: Vec::new(),
            ids: FxHashMap::default(),
            scratch: vec![GraphSnapshot::no_vid(); regs],
            seen: FxHashSet::default(),
            queue: Vec::new(),
        };
        let undef = space.intern_scratch();
        debug_assert_eq!(undef, ConfigSpace::ALL_UNDEF);
        space
    }

    fn valuation(&self, id: u32) -> &[u32] {
        &self.valuations[id as usize * self.regs..(id as usize + 1) * self.regs]
    }

    /// The id of `scratch`'s valuation, interning it if new.
    fn intern_scratch(&mut self) -> u32 {
        if let Some(&id) = self.ids.get(self.scratch.as_slice()) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.valuations.extend_from_slice(&self.scratch);
        self.ids.insert(self.scratch.clone().into_boxed_slice(), id);
        id
    }

    /// The valuation `id` with the registers `rs` set to `vid`.
    fn store(&mut self, id: u32, rs: &[Reg], vid: u32) -> u32 {
        let base = id as usize * self.regs;
        self.scratch
            .copy_from_slice(&self.valuations[base..base + self.regs]);
        for r in rs {
            self.scratch[r.0 as usize] = vid;
        }
        self.intern_scratch()
    }

    #[inline]
    fn visit(&mut self, cfg: Config) {
        if self.seen.insert(cfg) {
            self.queue.push(cfg);
        }
    }

    fn clear(&mut self) {
        for cfg in &self.queue {
            self.seen.remove(cfg);
        }
        self.queue.clear();
    }
}

impl RegisterAutomaton {
    /// Number of registers.
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// A copy of this automaton with every transition label rewritten
    /// through `f`. States, registers, ε-actions and acceptance are
    /// untouched, so the copy is exactly the compiled automaton of the
    /// label-substituted REM — how compiled query *templates* stamp out
    /// bound instances without re-running Thompson construction.
    pub fn map_labels(&self, mut f: impl FnMut(Label) -> Label) -> RegisterAutomaton {
        RegisterAutomaton {
            n_regs: self.n_regs,
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

    /// Does the automaton accept this data path?
    pub fn accepts(&self, w: &DataPath) -> bool {
        // Value table for the path: registers hold indices into it.
        let values = w.values();
        let labels = w.labels();
        type Cfg = (u32, u32, Box<[u32]>); // (pos, state, regs)
        let mut seen: FxHashSet<Cfg> = FxHashSet::default();
        let mut queue: VecDeque<Cfg> = VecDeque::new();
        let init: Cfg = (0, self.initial, vec![UNDEF; self.n_regs].into_boxed_slice());
        seen.insert(init.clone());
        queue.push_back(init);
        let reg_values = |regs: &[u32]| -> Vec<Option<&Value>> {
            regs.iter()
                .map(|&i| (i != UNDEF).then(|| &values[i as usize]))
                .collect()
        };
        while let Some((pos, state, regs)) = queue.pop_front() {
            if pos as usize == labels.len() && self.accepting[state as usize] {
                return true;
            }
            let cur = &values[pos as usize];
            for (action, to) in &self.eps[state as usize] {
                let next_regs = match action {
                    EpsAction::Jump => regs.clone(),
                    EpsAction::Store(rs) => {
                        let mut r2 = regs.clone();
                        for r in rs {
                            r2[r.0 as usize] = pos;
                        }
                        r2
                    }
                    EpsAction::Check(c) => {
                        if !c.eval(&reg_values(&regs), cur) {
                            continue;
                        }
                        regs.clone()
                    }
                };
                let cfg = (pos, *to, next_regs);
                if seen.insert(cfg.clone()) {
                    queue.push_back(cfg);
                }
            }
            if (pos as usize) < labels.len() {
                for &(l, to) in &self.steps[state as usize] {
                    if l == labels[pos as usize] {
                        let cfg = (pos + 1, to, regs.clone());
                        if seen.insert(cfg.clone()) {
                            queue.push_back(cfg);
                        }
                    }
                }
            }
        }
        false
    }

    /// Evaluate on a data graph from one start node: the set of nodes `v'`
    /// such that some path `from →π v'` has `δ(π)` accepted.
    ///
    /// Freezes the graph once ([`GraphSnapshot`]) and delegates to
    /// [`RegisterAutomaton::eval_from_snapshot`]. For repeated evaluation
    /// over one graph, build the snapshot yourself and reuse it.
    pub fn eval_from(&self, g: &DataGraph, from: NodeId) -> Vec<NodeId> {
        self.eval_from_snapshot(&g.snapshot(), from)
    }

    /// [`RegisterAutomaton::eval_from`] against a frozen snapshot.
    ///
    /// Configurations are `(node, state, registers)` where registers hold
    /// the snapshot's interned value ids (data complexity is polynomial for
    /// a fixed automaton; the register count drives the exponent, matching
    /// the PSPACE combined complexity of memory RPQs). Conditions evaluate
    /// by integer vid comparison; letter transitions walk the snapshot's
    /// per-label CSR slices.
    pub fn eval_from_snapshot(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId> {
        let Some(start) = s.idx(from) else {
            return Vec::new();
        };
        let mut hit = ReachedRows::new(s.n(), usize::MAX);
        self.search(s, &mut ConfigSpace::new(self.n_regs), start, &mut hit);
        hit.node_ids(|d| s.id_at(d))
    }

    /// The configuration-BFS kernel behind every per-start entry point:
    /// explore `(node, state, valuation)` from `(start, initial, ⊥…⊥)` and
    /// record the rows reached in an accepting state in `hit`, stopping
    /// early once `hit` is full. `space` is the caller's per-call
    /// workspace; the search clears what the previous start touched, so a
    /// start costs the configurations it reaches, never `n`.
    fn search(
        &self,
        s: &GraphSnapshot,
        space: &mut ConfigSpace,
        start: u32,
        hit: &mut ReachedRows,
    ) {
        let undef = GraphSnapshot::no_vid();
        let null_vid = s.null_vid();
        space.clear();
        space.visit((start, self.initial, ConfigSpace::ALL_UNDEF));
        let mut head = 0;
        while let Some(&(node, state, val)) = space.queue.get(head) {
            head += 1;
            if self.accepting[state as usize] && hit.insert(node) {
                return;
            }
            let cur_vid = s.vid(node);
            for (action, to) in &self.eps[state as usize] {
                let next = match action {
                    EpsAction::Jump => val,
                    EpsAction::Store(rs) => space.store(val, rs, cur_vid),
                    EpsAction::Check(c) => {
                        if !c.eval_vids(space.valuation(val), cur_vid, null_vid, undef) {
                            continue;
                        }
                        val
                    }
                };
                space.visit((node, *to, next));
            }
            for &(l, to) in &self.steps[state as usize] {
                for &w in s.out(l, node) {
                    space.visit((w, to, val));
                }
            }
        }
    }

    /// Full evaluation `e(G)` as a [`Relation`] over the snapshot's dense
    /// node indices: the per-start BFS from every row, all starts sharing
    /// one workspace.
    pub fn eval_snapshot(&self, s: &GraphSnapshot) -> Relation {
        let mut space = ConfigSpace::new(self.n_regs);
        crate::eval_by(s.n(), |u, hit| self.search(s, &mut space, u, hit))
    }

    /// Does any start row reach an answer? Stops at the first answer of
    /// the first matching start row.
    pub fn holds_snapshot(&self, s: &GraphSnapshot) -> bool {
        let mut space = ConfigSpace::new(self.n_regs);
        crate::holds_by(s.n(), |u, hit| self.search(s, &mut space, u, hit))
    }

    /// Full evaluation `e(G)` as sorted `(NodeId, NodeId)` pairs. The graph
    /// is frozen once; the per-start BFS shares the snapshot.
    pub fn eval_pairs(&self, g: &DataGraph) -> Vec<(NodeId, NodeId)> {
        self.eval_pairs_snapshot(&g.snapshot())
    }

    /// [`RegisterAutomaton::eval_pairs`] against a prebuilt snapshot.
    pub fn eval_pairs_snapshot(&self, s: &GraphSnapshot) -> Vec<(NodeId, NodeId)> {
        let mut out: Vec<(NodeId, NodeId)> = self
            .eval_snapshot(s)
            .iter_pairs()
            .map(|(i, j)| (s.id_at(i as u32), s.id_at(j as u32)))
            .collect();
        out.sort();
        out
    }

    /// Symbolic nonemptiness: is `L(A)` nonempty over an infinite value
    /// domain? Returns a witness data path (with integer values realizing
    /// the equality pattern) when nonempty.
    ///
    /// Register contents are abstracted by an equality partition; distinct
    /// classes denote distinct values, which is sound because the domain is
    /// infinite. This is the standard PSPACE construction of \[25, 31\].
    pub fn find_witness(&self) -> Option<DataPath> {
        // Symbolic config: (state, cur class, reg classes), canonically
        // renamed. Transition records for witness replay:
        //   eps: no letter; letter(l, Some(r)): new value equals register r;
        //   letter(l, None): fresh value.
        type SymCfg = (u32, u8, Box<[u8]>);
        #[derive(Clone)]
        struct Parent {
            cfg: SymCfg,
            step: Option<(Label, Option<Reg>)>,
            action: Option<EpsAction>,
        }
        let canon = |cur: u8, regs: &[u8]| -> (u8, Box<[u8]>) {
            let mut map = [UNDEF_CLASS; 256];
            let mut next = 0u8;
            let rename = |c: u8, map: &mut [u8; 256], next: &mut u8| -> u8 {
                if c == UNDEF_CLASS {
                    return UNDEF_CLASS;
                }
                if map[c as usize] == UNDEF_CLASS {
                    map[c as usize] = *next;
                    *next += 1;
                }
                map[c as usize]
            };
            let new_cur = rename(cur, &mut map, &mut next);
            let new_regs: Vec<u8> = regs
                .iter()
                .map(|&c| rename(c, &mut map, &mut next))
                .collect();
            (new_cur, new_regs.into_boxed_slice())
        };

        let init_cfg: SymCfg = {
            let (c, r) = canon(0, &vec![UNDEF_CLASS; self.n_regs]);
            (self.initial, c, r)
        };
        let mut parents: FxHashMap<SymCfg, Option<Parent>> = FxHashMap::default();
        parents.insert(init_cfg.clone(), None);
        let mut queue: VecDeque<SymCfg> = VecDeque::new();
        queue.push_back(init_cfg);
        let mut accept_cfg: Option<SymCfg> = None;

        'bfs: while let Some(cfg) = queue.pop_front() {
            let (state, cur, ref regs) = cfg;
            if self.accepting[state as usize] {
                accept_cfg = Some(cfg.clone());
                break 'bfs;
            }
            for (action, to) in &self.eps[state as usize] {
                let next_regs: Box<[u8]> = match action {
                    EpsAction::Jump => regs.clone(),
                    EpsAction::Store(rs) => {
                        let mut r2 = regs.clone();
                        for r in rs {
                            r2[r.0 as usize] = cur;
                        }
                        r2
                    }
                    EpsAction::Check(c) => {
                        if !c.eval_sym(regs, cur) {
                            continue;
                        }
                        regs.clone()
                    }
                };
                let (nc, nr) = canon(cur, &next_regs);
                let next: SymCfg = (*to, nc, nr);
                if !parents.contains_key(&next) {
                    parents.insert(
                        next.clone(),
                        Some(Parent {
                            cfg: cfg.clone(),
                            step: None,
                            action: Some(action.clone()),
                        }),
                    );
                    queue.push_back(next);
                }
            }
            for &(l, to) in &self.steps[state as usize] {
                // choice: new current value equals some register's class, or fresh
                let mut choices: Vec<(u8, Option<Reg>)> = Vec::new();
                let mut seen_classes = [false; 256];
                for (ri, &c) in regs.iter().enumerate() {
                    if c != UNDEF_CLASS && !seen_classes[c as usize] {
                        seen_classes[c as usize] = true;
                        choices.push((c, Some(Reg(ri as u8))));
                    }
                }
                // fresh class = max used + 1 (canonicalized away anyway)
                let fresh = regs
                    .iter()
                    .copied()
                    .filter(|&c| c != UNDEF_CLASS)
                    .max()
                    .map_or(0, |m| m + 1)
                    .max(cur.wrapping_add(1));
                choices.push((fresh, None));
                for (new_cur, why) in choices {
                    let (nc, nr) = canon(new_cur, regs);
                    let next: SymCfg = (to, nc, nr);
                    if !parents.contains_key(&next) {
                        parents.insert(
                            next.clone(),
                            Some(Parent {
                                cfg: cfg.clone(),
                                step: Some((l, why)),
                                action: None,
                            }),
                        );
                        queue.push_back(next);
                    }
                }
            }
        }

        let accept = accept_cfg?;
        // Reconstruct the transition sequence, then replay concretely.
        let mut trace: Vec<Parent> = Vec::new();
        let mut cur = accept;
        while let Some(Some(p)) = parents.get(&cur) {
            trace.push(p.clone());
            cur = p.cfg.clone();
        }
        trace.reverse();

        let mut fresh_counter: i64 = 0;
        let mut fresh = || {
            fresh_counter += 1;
            Value::int(fresh_counter)
        };
        let mut regs: Vec<Option<Value>> = vec![None; self.n_regs];
        let mut current = fresh();
        let mut path = DataPath::single(current.clone());
        for p in trace {
            if let Some((l, why)) = p.step {
                current = match why {
                    Some(r) => regs[r.0 as usize].clone().expect("witness replay"),
                    None => fresh(),
                };
                path.push(l, current.clone());
            } else if let Some(EpsAction::Store(rs)) = p.action {
                for r in rs {
                    regs[r.0 as usize] = Some(current.clone());
                }
            }
        }
        debug_assert!(
            self.accepts(&path),
            "reconstructed witness must be accepted"
        );
        Some(path)
    }
}

// ----- closure properties (§3: REM/register automata are closed under
// union, intersection, concatenation and Kleene star, but not complement) --

impl Cond {
    /// Shift every register index by `offset` (for disjoint-register
    /// constructions).
    fn shift(&self, offset: u8) -> Cond {
        match self {
            Cond::True => Cond::True,
            Cond::Eq(r) => Cond::Eq(Reg(r.0 + offset)),
            Cond::Neq(r) => Cond::Neq(Reg(r.0 + offset)),
            Cond::And(a, b) => Cond::and(a.shift(offset), b.shift(offset)),
            Cond::Or(a, b) => Cond::or(a.shift(offset), b.shift(offset)),
        }
    }
}

impl EpsAction {
    fn shift(&self, offset: u8) -> EpsAction {
        match self {
            EpsAction::Jump => EpsAction::Jump,
            EpsAction::Store(rs) => {
                EpsAction::Store(rs.iter().map(|r| Reg(r.0 + offset)).collect())
            }
            EpsAction::Check(c) => EpsAction::Check(c.shift(offset)),
        }
    }
}

impl RegisterAutomaton {
    /// Copy `other`'s states into `b`, with states offset by the current
    /// state count and registers offset by `reg_offset`; returns the state
    /// offset.
    fn append_into(&self, b: &mut Builder, reg_offset: u8) -> u32 {
        let offset = b.state_count() as u32;
        for _ in 0..self.state_count() {
            b.add_state();
        }
        for (s, outs) in self.eps.iter().enumerate() {
            for (act, t) in outs {
                b.add_eps(s as u32 + offset, act.shift(reg_offset), *t + offset);
            }
        }
        for (s, outs) in self.steps.iter().enumerate() {
            for &(l, t) in outs {
                b.add_step(s as u32 + offset, l, t + offset);
            }
        }
        offset
    }

    fn accepting_states(&self) -> Vec<u32> {
        (0..self.state_count() as u32)
            .filter(|&s| self.accepting[s as usize])
            .collect()
    }

    /// `L(A) ∪ L(B)` — disjoint-register union.
    pub fn union(&self, other: &RegisterAutomaton) -> RegisterAutomaton {
        let regs = self.n_regs + other.n_regs;
        assert!(regs <= 255, "too many registers");
        let mut b = Builder::new(regs);
        let start = b.add_state();
        b.set_initial(start);
        let off_a = self.append_into(&mut b, 0);
        let off_b = other.append_into(&mut b, self.n_regs as u8);
        b.add_eps(start, EpsAction::Jump, self.initial + off_a);
        b.add_eps(start, EpsAction::Jump, other.initial + off_b);
        for s in self.accepting_states() {
            b.set_accepting(s + off_a);
        }
        for s in other.accepting_states() {
            b.set_accepting(s + off_b);
        }
        b.build()
    }

    /// `L(A) · L(B)` — data-path concatenation (shared junction value).
    pub fn concat(&self, other: &RegisterAutomaton) -> RegisterAutomaton {
        let regs = self.n_regs + other.n_regs;
        assert!(regs <= 255, "too many registers");
        let mut b = Builder::new(regs);
        let off_a = self.append_into(&mut b, 0);
        let off_b = other.append_into(&mut b, self.n_regs as u8);
        b.set_initial(self.initial + off_a);
        for s in self.accepting_states() {
            b.add_eps(s + off_a, EpsAction::Jump, other.initial + off_b);
        }
        for s in other.accepting_states() {
            b.set_accepting(s + off_b);
        }
        b.build()
    }

    /// `L(A)⁺` — registers persist across iterations, matching the paper's
    /// `(e⁺, w, σ) ⊢ σ'` chaining rule.
    pub fn plus(&self) -> RegisterAutomaton {
        let mut b = Builder::new(self.n_regs);
        let off = self.append_into(&mut b, 0);
        b.set_initial(self.initial + off);
        for s in self.accepting_states() {
            b.set_accepting(s + off);
            b.add_eps(s + off, EpsAction::Jump, self.initial + off);
        }
        b.build()
    }

    /// `L(A)* = {d} ∪ L(A)⁺` (single-value paths always included).
    pub fn star(&self) -> RegisterAutomaton {
        let mut b = Builder::new(self.n_regs);
        let start = b.add_state();
        b.set_initial(start);
        b.set_accepting(start);
        let off = self.append_into(&mut b, 0);
        b.add_eps(start, EpsAction::Jump, self.initial + off);
        for s in self.accepting_states() {
            b.set_accepting(s + off);
            b.add_eps(s + off, EpsAction::Jump, self.initial + off);
        }
        b.build()
    }

    /// `L(A) ∩ L(B)` — synchronized product with disjoint registers:
    /// letter transitions move in lockstep, ε-actions interleave (both
    /// sides read the same current data value, so conditions commute).
    pub fn intersect(&self, other: &RegisterAutomaton) -> RegisterAutomaton {
        let regs = self.n_regs + other.n_regs;
        assert!(regs <= 255, "too many registers");
        let shift = self.n_regs as u8;
        let mut b = Builder::new(regs);
        let pair_id = |p: u32, q: u32| p * other.state_count() as u32 + q;
        for p in 0..self.state_count() as u32 {
            for q in 0..other.state_count() as u32 {
                let s = b.add_state();
                debug_assert_eq!(s, pair_id(p, q));
                if self.accepting[p as usize] && other.accepting[q as usize] {
                    b.set_accepting(s);
                }
            }
        }
        b.set_initial(pair_id(self.initial, other.initial));
        for p in 0..self.state_count() as u32 {
            for q in 0..other.state_count() as u32 {
                for (act, p2) in &self.eps[p as usize] {
                    b.add_eps(pair_id(p, q), act.clone(), pair_id(*p2, q));
                }
                for (act, q2) in &other.eps[q as usize] {
                    b.add_eps(pair_id(p, q), act.shift(shift), pair_id(p, *q2));
                }
                for &(l1, p2) in &self.steps[p as usize] {
                    for &(l2, q2) in &other.steps[q as usize] {
                        if l1 == l2 {
                            b.add_step(pair_id(p, q), l1, pair_id(p2, q2));
                        }
                    }
                }
            }
        }
        b.build()
    }
}

/// The per-start configuration BFS the shared-workspace kernel replaced,
/// kept as the reference it is checked against: a fresh hash set of
/// `(node, state, boxed registers)` and answer mask per start, the mask
/// scanned in full.
#[cfg(test)]
impl RegisterAutomaton {
    pub(crate) fn reference_eval_from(&self, s: &GraphSnapshot, from: NodeId) -> Vec<NodeId> {
        let Some(start) = s.idx(from) else {
            return Vec::new();
        };
        let undef = GraphSnapshot::no_vid();
        let null_vid = s.null_vid();
        type Cfg = (u32, u32, Box<[u32]>);
        let mut seen: FxHashSet<Cfg> = FxHashSet::default();
        let mut out = vec![false; s.n()];
        let mut queue: VecDeque<Cfg> = VecDeque::new();
        let init: Cfg = (
            start,
            self.initial,
            vec![undef; self.n_regs].into_boxed_slice(),
        );
        seen.insert(init.clone());
        queue.push_back(init);
        while let Some((node, state, regs)) = queue.pop_front() {
            if self.accepting[state as usize] {
                out[node as usize] = true;
            }
            let cur_vid = s.vid(node);
            for (action, to) in &self.eps[state as usize] {
                let next_regs = match action {
                    EpsAction::Jump => regs.clone(),
                    EpsAction::Store(rs) => {
                        let mut r2 = regs.clone();
                        for r in rs {
                            r2[r.0 as usize] = cur_vid;
                        }
                        r2
                    }
                    EpsAction::Check(c) => {
                        if !c.eval_vids(&regs, cur_vid, null_vid, undef) {
                            continue;
                        }
                        regs.clone()
                    }
                };
                let cfg = (node, *to, next_regs);
                if seen.insert(cfg.clone()) {
                    queue.push_back(cfg);
                }
            }
            for &(l, to) in &self.steps[state as usize] {
                for &w in s.out(l, node) {
                    let cfg = (w, to, regs.clone());
                    if seen.insert(cfg.clone()) {
                        queue.push_back(cfg);
                    }
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
    use gde_datagraph::Alphabet;

    /// Build the automaton for `↓x.(a[x≠])⁺`: all values along an a-path
    /// differ from the first (§3's first example).
    fn all_differ_from_first(a: Label) -> RegisterAutomaton {
        let x = Reg(0);
        let mut b = Builder::new(1);
        let s0 = b.add_state(); // before storing
        let s1 = b.add_state(); // stored, ready to read a
        let s2 = b.add_state(); // after a, check x≠
        let s3 = b.add_state(); // checked; accepting, can loop
        b.set_initial(s0);
        b.add_eps(s0, EpsAction::Store(vec![x]), s1);
        b.add_step(s1, a, s2);
        b.add_eps(s2, EpsAction::Check(Cond::Neq(x)), s3);
        b.add_eps(s3, EpsAction::Jump, s1);
        b.set_accepting(s3);
        b.build()
    }

    fn dp(vals: &[i64], l: Label) -> DataPath {
        let mut p = DataPath::single(Value::int(vals[0]));
        for &v in &vals[1..] {
            p.push(l, Value::int(v));
        }
        p
    }

    #[test]
    fn accepts_all_differ() {
        let a = Label(0);
        let ra = all_differ_from_first(a);
        assert!(ra.accepts(&dp(&[1, 2, 3, 4], a)));
        assert!(ra.accepts(&dp(&[1, 2], a)));
        assert!(ra.accepts(&dp(&[1, 2, 2], a))); // repeats fine, just ≠ first
        assert!(!ra.accepts(&dp(&[1, 2, 1], a)));
        assert!(!ra.accepts(&dp(&[1], a))); // needs at least one step
    }

    #[test]
    fn null_comparisons_never_true() {
        let a = Label(0);
        let ra = all_differ_from_first(a);
        let mut p = DataPath::single(Value::int(1));
        p.push(a, Value::Null);
        // 1 ≠ ⊥ must NOT hold under SQL semantics
        assert!(!ra.accepts(&p));
        let mut p2 = DataPath::single(Value::Null);
        p2.push(a, Value::int(5));
        assert!(!ra.accepts(&p2));
    }

    #[test]
    fn graph_eval_from() {
        let a = Label(0);
        // cycle 0(v=1) -a-> 1(v=2) -a-> 2(v=1) -a-> 0
        let mut g = DataGraph::new();
        let mut al = Alphabet::new();
        al.intern("a");
        *g.alphabet_mut() = al;
        g.add_node(NodeId(0), Value::int(1)).unwrap();
        g.add_node(NodeId(1), Value::int(2)).unwrap();
        g.add_node(NodeId(2), Value::int(1)).unwrap();
        g.add_edge(NodeId(0), a, NodeId(1)).unwrap();
        g.add_edge(NodeId(1), a, NodeId(2)).unwrap();
        g.add_edge(NodeId(2), a, NodeId(0)).unwrap();
        let ra = all_differ_from_first(a);
        // from node 0 (value 1): can reach 1 (value 2, differs); cannot
        // accept at 2 (value 1 equals first); cannot accept at 0 again.
        let ends = ra.eval_from(&g, NodeId(0));
        assert_eq!(ends, vec![NodeId(1)]);
        // from node 1 (value 2): reach 2 (1≠2) and 0 (1≠2): both
        let ends = ra.eval_from(&g, NodeId(1));
        assert_eq!(ends, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn witness_extraction() {
        let a = Label(0);
        let ra = all_differ_from_first(a);
        let w = ra.find_witness().expect("language nonempty");
        assert!(ra.accepts(&w));
        assert!(!w.is_empty());
    }

    #[test]
    fn empty_language_no_witness() {
        // check x= immediately after storing x and stepping... build an
        // automaton requiring d≠d: store x, then check x≠ with no step.
        let x = Reg(0);
        let mut b = Builder::new(1);
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.set_initial(s0);
        b.add_eps(s0, EpsAction::Store(vec![x]), s1);
        b.add_eps(s1, EpsAction::Check(Cond::Neq(x)), s2);
        b.set_accepting(s2);
        let ra = b.build();
        assert!(ra.find_witness().is_none());
    }

    #[test]
    fn same_value_twice_witness() {
        // Σ* ↓x Σ+[x=] Σ*  over one letter — same data value occurs twice.
        let a = Label(0);
        let x = Reg(0);
        let mut b = Builder::new(1);
        let s0 = b.add_state();
        let s1 = b.add_state(); // stored
        let s2 = b.add_state(); // moved ≥1
        let s3 = b.add_state(); // checked =; accepting + trailing
        b.set_initial(s0);
        b.add_step(s0, a, s0);
        b.add_eps(s0, EpsAction::Store(vec![x]), s1);
        b.add_step(s1, a, s2);
        b.add_step(s2, a, s2);
        b.add_eps(s2, EpsAction::Check(Cond::Eq(x)), s3);
        b.add_step(s3, a, s3);
        b.set_accepting(s3);
        let ra = b.build();
        let w = ra.find_witness().expect("nonempty");
        assert!(ra.accepts(&w));
        // check witness really repeats a value
        let vals = w.values();
        assert!(vals
            .iter()
            .enumerate()
            .any(|(i, v)| vals[i + 1..].contains(v)));

        assert!(ra.accepts(&dp(&[7, 1, 7], a)));
        assert!(!ra.accepts(&dp(&[1, 2, 3], a)));
    }

    /// automaton for a single a-step whose target equals the first value:
    /// ↓x. a [x=]
    fn step_back_to_first(a: Label) -> RegisterAutomaton {
        let x = Reg(0);
        let mut b = Builder::new(1);
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let s3 = b.add_state();
        b.set_initial(s0);
        b.add_eps(s0, EpsAction::Store(vec![x]), s1);
        b.add_step(s1, a, s2);
        b.add_eps(s2, EpsAction::Check(Cond::Eq(x)), s3);
        b.set_accepting(s3);
        b.build()
    }

    #[test]
    fn closure_union() {
        let a = Label(0);
        let u = all_differ_from_first(a).union(&step_back_to_first(a));
        assert!(u.accepts(&dp(&[1, 2, 3], a))); // left branch
        assert!(u.accepts(&dp(&[1, 1], a))); // right branch
        assert!(!u.accepts(&dp(&[1, 2, 1], a))); // neither
        assert_eq!(u.n_regs(), 2);
    }

    #[test]
    fn closure_concat() {
        let a = Label(0);
        // (all-differ) · (step-back): e.g. 1 2 | 2 2? concat shares junction:
        // w1 = 1 a 2 (differs), w2 = 2 a 2 (returns to its own first = 2)
        let c = all_differ_from_first(a).concat(&step_back_to_first(a));
        assert!(c.accepts(&dp(&[1, 2, 2], a)));
        assert!(!c.accepts(&dp(&[1, 2, 3], a)));
        assert!(!c.accepts(&dp(&[1, 2], a))); // too short
    }

    #[test]
    fn closure_plus_and_star() {
        let a = Label(0);
        let once = step_back_to_first(a);
        let plus = once.plus();
        // (↓x a[x=])⁺: every step returns to the value it started from,
        // registers re-stored each iteration ⇒ constant-ish runs like
        // 1a1a1 and also 1a1 then 1a1 …
        assert!(plus.accepts(&dp(&[5, 5], a)));
        assert!(plus.accepts(&dp(&[5, 5, 5], a)));
        assert!(!plus.accepts(&dp(&[5, 6], a)));
        assert!(!plus.accepts(&dp(&[5], a)));
        let star = once.star();
        assert!(star.accepts(&dp(&[9], a))); // single value
        assert!(star.accepts(&dp(&[5, 5], a)));
        assert!(!star.accepts(&dp(&[5, 6], a)));
    }

    #[test]
    fn closure_intersection() {
        let a = Label(0);
        // all-differ-from-first ∩ "length ≥ 2 path whose last equals second"
        // simpler: all-differ ∩ all-differ = all-differ
        let d = all_differ_from_first(a);
        let i = d.intersect(&d);
        assert!(i.accepts(&dp(&[1, 2, 3], a)));
        assert!(!i.accepts(&dp(&[1, 2, 1], a)));
        // intersect with step-back: w must both differ-from-first everywhere
        // and have the single step return to the first value — contradiction
        let contradiction = d.intersect(&step_back_to_first(a));
        assert!(contradiction.find_witness().is_none());
        // union of automaton with its "complementish" partner is not
        // universal (no complement closure): witness exists outside both
        let u = d.union(&step_back_to_first(a));
        assert!(!u.accepts(&dp(&[1, 2, 1], a)));
    }

    #[test]
    fn closure_ops_compose_with_graph_eval() {
        use gde_datagraph::NodeId;
        let a = Label(0);
        let mut g = DataGraph::new();
        g.alphabet_mut().intern("a");
        // 0(v1) -a-> 1(v1), 1 -a-> 2(v2)
        g.add_node(NodeId(0), Value::int(1)).unwrap();
        g.add_node(NodeId(1), Value::int(1)).unwrap();
        g.add_node(NodeId(2), Value::int(2)).unwrap();
        g.add_edge(NodeId(0), a, NodeId(1)).unwrap();
        g.add_edge(NodeId(1), a, NodeId(2)).unwrap();
        let u = step_back_to_first(a).plus();
        let pairs = u.eval_pairs(&g);
        assert_eq!(pairs, vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn cond_negation_swaps() {
        let c = Cond::and(Cond::Eq(Reg(0)), Cond::Neq(Reg(1)));
        let n = c.negate();
        assert_eq!(n, Cond::or(Cond::Neq(Reg(0)), Cond::Eq(Reg(1))));
    }

    /// Remark 2: the two-valued collapse agrees with SQL's three-valued
    /// logic on *true*, for every condition over every null pattern.
    #[test]
    fn remark2_two_valued_equals_three_valued_on_true() {
        let conds = [
            Cond::Eq(Reg(0)),
            Cond::Neq(Reg(0)),
            Cond::and(Cond::Eq(Reg(0)), Cond::Neq(Reg(1))),
            Cond::or(Cond::Eq(Reg(0)), Cond::Neq(Reg(1))),
            Cond::or(
                Cond::and(Cond::Eq(Reg(0)), Cond::Eq(Reg(1))),
                Cond::Neq(Reg(0)),
            ),
        ];
        let vals = [Value::int(1), Value::int(2), Value::Null];
        for c in &conds {
            for r0 in &vals {
                for r1 in &vals {
                    for cur in &vals {
                        let regs: Vec<Option<&Value>> = vec![Some(r0), Some(r1)];
                        let two = c.eval(&regs, cur);
                        let three = c.eval_sql3(&regs, cur);
                        assert_eq!(
                            two,
                            three == Some(true),
                            "cond {c:?} regs ({r0},{r1}) cur {cur}"
                        );
                    }
                }
            }
        }
    }

    /// Unknown genuinely arises in 3VL where 2VL says false — the collapse
    /// is a collapse, not an identity.
    #[test]
    fn remark2_unknown_exists() {
        let c = Cond::Eq(Reg(0));
        let null = Value::Null;
        let regs: Vec<Option<&Value>> = vec![Some(&null)];
        assert_eq!(c.eval_sql3(&regs, &Value::int(1)), None);
        assert!(!c.eval(&regs, &Value::int(1)));
    }

    #[test]
    fn cond_eval_undefined_register_false() {
        let regs: Vec<Option<&Value>> = vec![None];
        let v = Value::int(1);
        assert!(!Cond::Eq(Reg(0)).eval(&regs, &v));
        assert!(!Cond::Neq(Reg(0)).eval(&regs, &v));
        assert!(Cond::True.eval(&regs, &v));
    }
}
