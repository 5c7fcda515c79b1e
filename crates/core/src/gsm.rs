//! Graph schema mappings (Definition 1 of the paper) and their
//! classification (LAV, GAV, relational, relational/reachability).

use gde_automata::{Nfa, Regex};
use gde_datagraph::{Alphabet, DataGraph, Label, NodeId};

/// One mapping rule `(q, q')`: an RPQ over the source alphabet paired with
/// an RPQ over the target alphabet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Source-side RPQ `q` over `Σ_s`.
    pub source: Regex,
    /// Target-side RPQ `q'` over `Σ_t`.
    pub target: Regex,
}

/// Classification of a mapping, per §4–§6 of the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MappingClass {
    /// Every source query is atomic (a single letter) — local-as-view.
    pub lav: bool,
    /// Every target query is atomic — global-as-view.
    pub gav: bool,
    /// Every target query is a word RPQ (Definition 3).
    pub relational: bool,
    /// Every target query is a word RPQ or the reachability query `Σ_t*`
    /// (the §5 class for which Theorem 1 proves undecidability).
    pub relational_reachability: bool,
}

/// A graph schema mapping `M`: a set of rules over `(Σ_s, Σ_t)`.
///
/// `(G_s, G_t) |= M` iff `q(G_s) ⊆ q'(G_t)` for every rule — where
/// containment is over *nodes with their data values*: a pair
/// `((n,d), (n',d'))` in a source answer must appear, with the same ids and
/// the same values, in the target answer.
#[derive(Clone, Debug)]
pub struct Gsm {
    source_alphabet: Alphabet,
    target_alphabet: Alphabet,
    rules: Vec<Rule>,
}

impl Gsm {
    /// Create a mapping over the two alphabets.
    pub fn new(source_alphabet: Alphabet, target_alphabet: Alphabet) -> Gsm {
        Gsm {
            source_alphabet,
            target_alphabet,
            rules: Vec::new(),
        }
    }

    /// The source alphabet `Σ_s`.
    pub fn source_alphabet(&self) -> &Alphabet {
        &self.source_alphabet
    }

    /// The target alphabet `Σ_t`.
    pub fn target_alphabet(&self) -> &Alphabet {
        &self.target_alphabet
    }

    /// Add a rule.
    pub fn add_rule(&mut self, source: Regex, target: Regex) -> &mut Self {
        self.rules.push(Rule { source, target });
        self
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the mapping empty (every target is a solution)?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// A LAV "copy" mapping `{(a, a) | a ∈ Σ}` over a shared alphabet —
    /// the identity mapping used by Theorem 6 and many tests.
    pub fn copy_mapping(alphabet: &Alphabet) -> Gsm {
        let mut m = Gsm::new(alphabet.clone(), alphabet.clone());
        for l in alphabet.labels() {
            m.add_rule(Regex::Atom(l), Regex::Atom(l));
        }
        m
    }

    /// Classify the mapping.
    pub fn classify(&self) -> MappingClass {
        let lav = self.rules.iter().all(|r| r.source.as_atom().is_some());
        let gav = self.rules.iter().all(|r| r.target.as_atom().is_some());
        let relational = self.rules.iter().all(|r| r.target.as_word().is_some());
        let relational_reachability = self.rules.iter().all(|r| {
            r.target.as_word().is_some() || r.target.is_reachability(&self.target_alphabet)
        });
        MappingClass {
            lav,
            gav,
            relational,
            relational_reachability,
        }
    }

    /// Is this a relational mapping (Definition 3)?
    pub fn is_relational(&self) -> bool {
        self.classify().relational
    }

    /// Every rule's source answers `q(G_s)`, in rule order, each sorted:
    /// one evaluation per rule, all on one snapshot of `gs`. Canonical
    /// solutions read both their fresh paths and `dom(M, G_s)`
    /// ([`Gsm::dom_of`]) from this.
    pub fn rule_answers(&self, gs: &DataGraph) -> Vec<Vec<(NodeId, NodeId)>> {
        let s = gs.snapshot();
        self.rules
            .iter()
            .map(|rule| Nfa::from_regex(&rule.source).eval_pairs_snapshot(&s))
            .collect()
    }

    /// `dom(M, G_s)` from the rules' source answers ([`Gsm::rule_answers`]):
    /// all nodes appearing in some answer, sorted and deduplicated.
    pub fn dom_of(answers: &[Vec<(NodeId, NodeId)>]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = answers
            .iter()
            .flatten()
            .flat_map(|&(u, v)| [u, v])
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// `dom(M, G_s)`: all nodes appearing in some source-query answer
    /// (sorted, deduplicated). These are exactly the nodes that every
    /// solution must contain with their source values.
    pub fn dom(&self, gs: &DataGraph) -> Vec<NodeId> {
        Gsm::dom_of(&self.rule_answers(gs))
    }

    /// Does *any* solution exist for this source graph? The only
    /// obstructions are rules whose target language is empty (while the
    /// source query matches) or contains only ε (while a source pair has
    /// distinct endpoints).
    pub fn has_solution(&self, gs: &DataGraph) -> bool {
        for (rule, pairs) in self.rules.iter().zip(self.rule_answers(gs)) {
            if pairs.is_empty() {
                continue;
            }
            let nfa = Nfa::from_regex(&rule.target);
            if !nfa.language_nonempty() {
                return false;
            }
            // is there a non-empty word? (all targets can be satisfied by a
            // fresh path then)
            let only_epsilon = rule.target.max_word_len() == Some(0);
            if only_epsilon && pairs.iter().any(|(u, v)| u != v) {
                return false;
            }
        }
        true
    }

    /// Parse a mapping from its text form: one `rule <src-rpq> => <tgt-rpq>`
    /// per line, `#` comments, blank lines ignored. Source labels are
    /// resolved against (and extend) `source_alphabet`; target labels build
    /// a fresh target alphabet. This is the format the `gde` CLI reads.
    pub fn parse_mapping_text(text: &str, source_alphabet: &Alphabet) -> Result<Gsm, String> {
        let mut sa = source_alphabet.clone();
        let mut ta = Alphabet::new();
        let mut rules: Vec<(Regex, Regex)> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("rule")
                .ok_or_else(|| format!("line {}: expected 'rule <src> => <tgt>'", i + 1))?;
            let (src, tgt) = rest
                .split_once("=>")
                .ok_or_else(|| format!("line {}: missing '=>'", i + 1))?;
            let q = gde_automata::parse_regex(src.trim(), &mut sa)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            let q2 = gde_automata::parse_regex(tgt.trim(), &mut ta)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            rules.push((q, q2));
        }
        let mut m = Gsm::new(sa, ta);
        for (q, q2) in rules {
            m.add_rule(q, q2);
        }
        Ok(m)
    }

    /// Check `(G_s, G_t) |= M`.
    ///
    /// Target-side labels are matched by *name* between the mapping's target
    /// alphabet and the target graph's alphabet, so graphs built with an
    /// independent interner still check correctly.
    pub fn is_solution(&self, gs: &DataGraph, gt: &DataGraph) -> bool {
        // translate mapping target labels into gt's alphabet
        let lmap: Vec<Option<Label>> = self
            .target_alphabet
            .iter()
            .map(|(_, name)| gt.alphabet().label(name))
            .collect();
        for (rule, src_pairs) in self.rules.iter().zip(self.rule_answers(gs)) {
            if src_pairs.is_empty() {
                continue;
            }
            let translated = match translate_regex(&rule.target, &lmap) {
                Some(e) => e,
                None => {
                    // target uses a label gt does not even have: the rule can
                    // still hold if its language is empty or if no source
                    // pairs exist (handled above)
                    return false;
                }
            };
            let nfa = Nfa::from_regex(&translated);
            for (u, v) in src_pairs {
                // nodes must be present with identical data values
                if gs.value(u) != gt.value(u) || gs.value(v) != gt.value(v) {
                    return false;
                }
                if !nfa.eval_from(gt, u).contains(&v) {
                    return false;
                }
            }
        }
        true
    }
}

/// Rewrite a regex over the mapping's target alphabet into the graph's
/// alphabet; `None` if some label is missing there.
pub(crate) fn translate_regex(e: &Regex, lmap: &[Option<Label>]) -> Option<Regex> {
    Some(match e {
        Regex::Empty => Regex::Empty,
        Regex::Epsilon => Regex::Epsilon,
        Regex::Atom(l) => Regex::Atom(lmap[l.index()]?),
        Regex::Concat(es) => Regex::Concat(
            es.iter()
                .map(|e| translate_regex(e, lmap))
                .collect::<Option<Vec<_>>>()?,
        ),
        Regex::Union(es) => Regex::Union(
            es.iter()
                .map(|e| translate_regex(e, lmap))
                .collect::<Option<Vec<_>>>()?,
        ),
        Regex::Plus(e) => Regex::Plus(Box::new(translate_regex(e, lmap)?)),
        Regex::Star(e) => Regex::Star(Box::new(translate_regex(e, lmap)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde_automata::parse_regex;
    use gde_datagraph::Value;

    fn alphabets() -> (Alphabet, Alphabet) {
        (
            Alphabet::from_labels(["a", "b"]),
            Alphabet::from_labels(["x", "y"]),
        )
    }

    fn simple_mapping() -> Gsm {
        let (mut sa, mut ta) = alphabets();
        let qa = parse_regex("a", &mut sa).unwrap();
        let qxy = parse_regex("x y", &mut ta).unwrap();
        let mut m = Gsm::new(sa, ta);
        m.add_rule(qa, qxy);
        m
    }

    fn source() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_node(NodeId(0), Value::int(10)).unwrap();
        g.add_node(NodeId(1), Value::int(20)).unwrap();
        g.add_edge_str(NodeId(0), "a", NodeId(1)).unwrap();
        g.add_edge_str(NodeId(1), "b", NodeId(0)).unwrap();
        g
    }

    #[test]
    fn classification() {
        let m = simple_mapping();
        let c = m.classify();
        assert!(c.lav);
        assert!(!c.gav);
        assert!(c.relational);
        assert!(c.relational_reachability);

        // add a reachability rule: stays relational/reachability, loses
        // relational
        let mut m2 = m.clone();
        let reach = Regex::reachability(m2.target_alphabet());
        m2.add_rule(Regex::Atom(m2.source_alphabet().label("b").unwrap()), reach);
        let c2 = m2.classify();
        assert!(!c2.relational);
        assert!(c2.relational_reachability);

        // a Kleene-starred non-universal target breaks both
        let mut m3 = m.clone();
        let xstar = Regex::Star(Box::new(Regex::Atom(
            m3.target_alphabet().label("x").unwrap(),
        )));
        m3.add_rule(Regex::Atom(m3.source_alphabet().label("a").unwrap()), xstar);
        let c3 = m3.classify();
        assert!(!c3.relational);
        assert!(!c3.relational_reachability);
    }

    #[test]
    fn copy_mapping_is_lav_gav() {
        let al = Alphabet::from_labels(["a", "b"]);
        let m = Gsm::copy_mapping(&al);
        let c = m.classify();
        assert!(c.lav && c.gav && c.relational);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn dom_collects_answer_nodes() {
        let m = simple_mapping();
        let gs = source();
        assert_eq!(m.dom(&gs), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn solution_checking_positive() {
        let m = simple_mapping();
        let gs = source();
        let mut gt = DataGraph::new();
        gt.add_node(NodeId(0), Value::int(10)).unwrap();
        gt.add_node(NodeId(1), Value::int(20)).unwrap();
        gt.add_node(NodeId(5), Value::int(99)).unwrap();
        gt.add_edge_str(NodeId(0), "x", NodeId(5)).unwrap();
        gt.add_edge_str(NodeId(5), "y", NodeId(1)).unwrap();
        assert!(m.is_solution(&gs, &gt));
    }

    #[test]
    fn solution_checking_negative_missing_path() {
        let m = simple_mapping();
        let gs = source();
        let mut gt = DataGraph::new();
        gt.add_node(NodeId(0), Value::int(10)).unwrap();
        gt.add_node(NodeId(1), Value::int(20)).unwrap();
        gt.add_edge_str(NodeId(0), "x", NodeId(1)).unwrap(); // x alone ≠ x y
        assert!(!m.is_solution(&gs, &gt));
    }

    #[test]
    fn solution_checking_negative_wrong_value() {
        let m = simple_mapping();
        let gs = source();
        let mut gt = DataGraph::new();
        gt.add_node(NodeId(0), Value::int(10)).unwrap();
        gt.add_node(NodeId(1), Value::int(999)).unwrap(); // value mismatch
        gt.add_node(NodeId(5), Value::int(0)).unwrap();
        gt.add_edge_str(NodeId(0), "x", NodeId(5)).unwrap();
        gt.add_edge_str(NodeId(5), "y", NodeId(1)).unwrap();
        assert!(!m.is_solution(&gs, &gt));
    }

    #[test]
    fn solution_checking_nodes_must_exist() {
        let m = simple_mapping();
        let gs = source();
        let gt = DataGraph::new();
        assert!(!m.is_solution(&gs, &gt));
    }

    #[test]
    fn mapping_text_roundtrip() {
        let sa = Alphabet::from_labels(["follows", "paid"]);
        let text = r#"
# social → contact exchange
rule follows => knows trusts
rule paid+  => owes   # chains of payments become one debt edge
"#;
        let m = Gsm::parse_mapping_text(text, &sa).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.classify().relational);
        assert!(!m.classify().gav);
        assert_eq!(
            m.rules()[1].target.as_atom(),
            m.target_alphabet().label("owes")
        );
        // errors carry line numbers
        let err = Gsm::parse_mapping_text("regel a => b", &sa).unwrap_err();
        assert!(err.contains("line 1"));
        let err = Gsm::parse_mapping_text("rule a -> b", &sa).unwrap_err();
        assert!(err.contains("missing '=>'"));
    }

    #[test]
    fn solution_existence() {
        let gs = source();
        // normal mapping: always satisfiable
        assert!(simple_mapping().has_solution(&gs));
        // ε-only target over a non-loop pair: unsatisfiable
        let (mut sa, ta) = alphabets();
        let mut m = Gsm::new(sa.clone(), ta.clone());
        m.add_rule(parse_regex("a", &mut sa).unwrap(), Regex::Epsilon);
        assert!(!m.has_solution(&gs));
        // but fine on a source whose a-pairs are loops
        let mut loopy = DataGraph::new();
        loopy.add_node(NodeId(0), Value::int(1)).unwrap();
        loopy.add_edge_str(NodeId(0), "a", NodeId(0)).unwrap();
        loopy.alphabet_mut().intern("b");
        assert!(m.has_solution(&loopy));
        // empty target language: unsatisfiable when the source query fires
        let (mut sa2, ta2) = alphabets();
        let mut m2 = Gsm::new(sa2.clone(), ta2);
        m2.add_rule(parse_regex("a", &mut sa2).unwrap(), Regex::Empty);
        assert!(!m2.has_solution(&gs));
        // ...but vacuously fine when it does not
        let mut empty_src = DataGraph::new();
        empty_src.alphabet_mut().intern("a");
        empty_src.alphabet_mut().intern("b");
        assert!(m2.has_solution(&empty_src));
    }

    #[test]
    fn empty_mapping_accepts_anything() {
        let (sa, ta) = alphabets();
        let m = Gsm::new(sa, ta);
        assert!(m.is_empty());
        assert!(m.is_solution(&source(), &DataGraph::new()));
    }

    #[test]
    fn reachability_rule_satisfied_by_any_path() {
        let (mut sa, ta) = alphabets();
        let qa = parse_regex("a", &mut sa).unwrap();
        let mut m = Gsm::new(sa, ta.clone());
        m.add_rule(qa, Regex::reachability(&ta));
        let gs = source();
        // solution: a long zig-zag path 0 -x-> 7 -y-> 8 -x-> 1
        let mut gt = DataGraph::new();
        gt.add_node(NodeId(0), Value::int(10)).unwrap();
        gt.add_node(NodeId(1), Value::int(20)).unwrap();
        gt.add_node(NodeId(7), Value::int(1)).unwrap();
        gt.add_node(NodeId(8), Value::int(2)).unwrap();
        gt.add_edge_str(NodeId(0), "x", NodeId(7)).unwrap();
        gt.add_edge_str(NodeId(7), "y", NodeId(8)).unwrap();
        gt.add_edge_str(NodeId(8), "x", NodeId(1)).unwrap();
        assert!(m.is_solution(&gs, &gt));
        // but a graph lacking the connectivity is not
        let bad = {
            let mut b = DataGraph::new();
            b.add_node(NodeId(0), Value::int(10)).unwrap();
            b.add_node(NodeId(1), Value::int(20)).unwrap();
            b
        };
        assert!(!m.is_solution(&gs, &bad));
    }
}
