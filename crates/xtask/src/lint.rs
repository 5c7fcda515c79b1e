//! The serve-path source lint: a small, dependency-free scanner that
//! enforces the engine's fault-isolation discipline at the source level.
//!
//! The serving engine promises that a poisoned lock or a stray `None`
//! never takes the whole service down — panics are contained per call and
//! locks recover via `par::{lock,read,write}_recover`. That promise only
//! holds if serve-path code actually routes through those helpers, so the
//! lint forbids the raw forms on the files listed in
//! [`SERVE_PATH_FILES`]:
//!
//! 1. **No bare `.unwrap()`** — a panic message with no context is
//!    useless inside a contained worker. Use `.expect("invariant: …")`
//!    when the invariant genuinely holds, or propagate the error.
//! 2. **`.expect(…)` messages must start with `"invariant: "`** — the
//!    prefix is a claim, reviewable in isolation, that the failure is a
//!    bug and not an input condition.
//! 3. **No raw `.lock()` / `.read()` / `.write()`** on anything other
//!    than `self` — go through `par::lock_recover` /
//!    `par::read_recover` / `par::write_recover` (or a `self` wrapper
//!    method that does), so poisoned locks recover instead of cascading.
//! 4. **No `cache.insert(…)` outside `cache.rs`** — every insertion into
//!    the sub-relation cache must go through the `CacheHandle` so the
//!    byte budget and eviction accounting stay truthful.
//!
//! Test modules (everything after the file's `#[cfg(test)]` marker) and
//! comment lines are exempt: tests *should* unwrap freely.

use std::fmt;
use std::path::Path;

/// Files the lint gates, relative to the workspace root: the engine's
/// serve path, the evaluation layers it calls while holding serving
/// invariants, and the wire codecs every server worker runs. `par.rs`
/// (which defines the recover helpers) is deliberately absent.
pub const SERVE_PATH_FILES: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/server/src/handlers.rs",
    "crates/server/src/json.rs",
    "crates/server/src/protocol.rs",
    "crates/core/src/solution.rs",
    "crates/dataquery/src/canon.rs",
    "crates/dataquery/src/compiled.rs",
    "crates/dataquery/src/ree.rs",
    "crates/dataquery/src/rem.rs",
    "crates/dataquery/src/cache.rs",
    "crates/datagraph/src/relation.rs",
    "crates/datagraph/src/merge.rs",
    "crates/datagraph/src/snapshot.rs",
];

/// Which rule a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Bare `.unwrap()` on a serve path.
    BareUnwrap,
    /// `.expect(…)` whose message doesn't start with `"invariant: "`.
    ExpectPrefix,
    /// Raw `.lock()` / `.read()` / `.write()` not going through the
    /// recover helpers.
    RawLock,
    /// `cache.insert(…)` bypassing the `CacheHandle`.
    CacheBypass,
}

/// One lint finding, printable as `file:line: message`.
#[derive(Debug)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{:?}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Blank out comment lines (keeping the line structure so offsets still
/// map to line numbers) and cut the text at the first `#[cfg(test)]`.
fn scannable(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let t = line.trim_start();
        if t.starts_with("//") {
            out.push('\n');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn line_of(text: &str, offset: usize) -> usize {
    text[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

/// Lint one file's source text. Returns all violations, in offset order
/// per rule.
pub fn lint_file(path: &Path, text: &str) -> Vec<Violation> {
    let file = path.display().to_string();
    let is_cache_rs = path.file_name().and_then(|n| n.to_str()) == Some("cache.rs");
    let body = scannable(text);
    let mut out = Vec::new();

    // rule 1: bare unwrap
    for (at, _) in body.match_indices(".unwrap()") {
        out.push(Violation {
            file: file.clone(),
            line: line_of(&body, at),
            rule: Rule::BareUnwrap,
            msg: "bare `.unwrap()` on a serve path; use `.expect(\"invariant: …\")` \
                  or propagate the error"
                .into(),
        });
    }

    // rule 2: expect message prefix ("invariant: ")
    for (at, _) in body.match_indices(".expect(") {
        let after = body[at + ".expect(".len()..].trim_start();
        if !after.starts_with("\"invariant: ") {
            out.push(Violation {
                file: file.clone(),
                line: line_of(&body, at),
                rule: Rule::ExpectPrefix,
                msg: "`.expect(…)` on a serve path must state its claim as \
                      `\"invariant: …\"`"
                    .into(),
            });
        }
    }

    // rule 3: raw lock/read/write — allowed only on `self` (a wrapper
    // method owning the recover call)
    for pat in [".lock()", ".read()", ".write()"] {
        for (at, _) in body.match_indices(pat) {
            let recv_end = at;
            let recv_start = body[..recv_end]
                .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map(|i| i + 1)
                .unwrap_or(0);
            if &body[recv_start..recv_end] != "self" {
                out.push(Violation {
                    file: file.clone(),
                    line: line_of(&body, at),
                    rule: Rule::RawLock,
                    msg: format!(
                        "raw `{pat}` on a serve path; use \
                         `par::{}_recover` so poisoned locks recover",
                        &pat[1..pat.len() - 2]
                    ),
                });
            }
        }
    }

    // rule 4: cache inserts bypassing the handle
    if !is_cache_rs {
        for (at, _) in body.match_indices("cache.insert(") {
            out.push(Violation {
                file: file.clone(),
                line: line_of(&body, at),
                rule: Rule::CacheBypass,
                msg: "`cache.insert(…)` bypasses the `CacheHandle` budget \
                      accounting; insert through the handle in cache.rs"
                    .into(),
            });
        }
    }

    out.sort_by_key(|v| v.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture() -> (PathBuf, String) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/seeded.rs");
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        (path, text)
    }

    /// The seeded fixture trips every rule — proves the gate actually
    /// fires, not just that the tree happens to be clean.
    #[test]
    fn seeded_fixture_trips_every_rule() {
        let (path, text) = fixture();
        let vs = lint_file(&path, &text);
        for rule in [
            Rule::BareUnwrap,
            Rule::ExpectPrefix,
            Rule::RawLock,
            Rule::CacheBypass,
        ] {
            assert!(
                vs.iter().any(|v| v.rule == rule),
                "fixture should trip {rule:?}, got {vs:?}"
            );
        }
    }

    /// Unwraps after `#[cfg(test)]`, in comments, and prefixed expects
    /// are all exempt.
    #[test]
    fn exemptions_hold() {
        let src = r#"
fn f(m: &std::sync::Mutex<u32>) -> u32 {
    // commented .unwrap() is fine
    let v = compute().expect("invariant: compute is total here");
    *par::lock_recover(m) + v
}
#[cfg(test)]
mod tests {
    fn t() { Some(1).unwrap(); x.lock().unwrap(); }
}
"#;
        assert!(lint_file(Path::new("x.rs"), src).is_empty());
    }

    /// `self.lock()` wrapper methods and `cache.insert` inside cache.rs
    /// are allowed.
    #[test]
    fn self_receiver_and_cache_rs_allowed() {
        let src = "fn len(&self) -> usize { self.lock().map.len() }\n";
        assert!(lint_file(Path::new("x.rs"), src).is_empty());
        let ins = "fn put(&self) { self.cache.insert(k, v); }\n";
        assert!(!lint_file(Path::new("x.rs"), ins).is_empty());
        assert!(lint_file(Path::new("cache.rs"), ins).is_empty());
    }

    /// The real serve-path files must pass — this is the enforced gate:
    /// `cargo test` fails if a bare unwrap sneaks back in.
    #[test]
    fn serve_path_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("invariant: manifest dir has two ancestors");
        for rel in SERVE_PATH_FILES {
            let path = root.join(rel);
            let text = std::fs::read_to_string(&path).expect("serve-path file readable");
            let vs = lint_file(&path, &text);
            assert!(vs.is_empty(), "{rel} has lint violations: {vs:#?}");
        }
    }
}
