//! `gde` — a small command-line front end to the library.
//!
//! ```text
//! gde query <graph-file> <lang> <query>
//!     lang ∈ {rpq, ree, rem, gxpath, gxnode}
//!     prints the matching pairs (or nodes, for gxnode)
//!
//! gde exchange <source-file> <mapping-file> [query <ree>]
//!     builds the universal solution (printed in graph text format); with a
//!     query, also prints the certain answers 2ⁿ
//!
//! gde check <source-file> <mapping-file> <target-file>
//!     does the target satisfy the mapping for the source?
//! ```
//!
//! Graph files use the `gde_datagraph::io` text format. Mapping files have
//! one `rule <source-rpq> => <target-rpq>` per line (with `#` comments).

use gde_automata::parse_regex;
use gde_core::{answer_once, universal_solution, Gsm, Semantics};
use gde_datagraph::io::{parse_graph, serialize_graph};
use gde_datagraph::{Alphabet, DataGraph};
use gde_dataquery::{parse_ree, parse_rem, DataQuery};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  gde query <graph-file> <rpq|ree|rem|gxpath|gxnode> <query>");
            eprintln!("  gde exchange <source-file> <mapping-file> [query <ree>]");
            eprintln!("  gde check <source-file> <mapping-file> <target-file>");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("query") => cmd_query(args.get(1..).unwrap_or(&[])),
        Some("exchange") => cmd_exchange(args.get(1..).unwrap_or(&[])),
        Some("check") => cmd_check(args.get(1..).unwrap_or(&[])),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
    }
}

fn load_graph(path: &str) -> Result<DataGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_graph(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parse a mapping file: `rule <src-rpq> => <tgt-rpq>` lines.
fn load_mapping(path: &str, source_alphabet: &Alphabet) -> Result<Gsm, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Gsm::parse_mapping_text(&text, source_alphabet).map_err(|e| format!("{path}: {e}"))
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let [graph_file, lang, query] = args else {
        return Err("query needs <graph-file> <lang> <query>".into());
    };
    let mut g = load_graph(graph_file)?;
    match lang.as_str() {
        "gxnode" => {
            let phi =
                gde_gxpath::parse_node_expr(query, g.alphabet_mut()).map_err(|e| e.to_string())?;
            for node in gde_gxpath::eval_node(&phi, &g) {
                println!("{node}");
            }
            Ok(())
        }
        "gxpath" => {
            let alpha =
                gde_gxpath::parse_path_expr(query, g.alphabet_mut()).map_err(|e| e.to_string())?;
            let r = gde_gxpath::eval_path(&alpha, &g);
            for (i, j) in r.iter() {
                println!("{}\t{}", g.id_at(i as u32), g.id_at(j as u32));
            }
            Ok(())
        }
        _ => {
            let q: DataQuery = match lang.as_str() {
                "rpq" => parse_regex(query, g.alphabet_mut())
                    .map_err(|e| e.to_string())?
                    .into(),
                "ree" => parse_ree(query, g.alphabet_mut())
                    .map_err(|e| e.to_string())?
                    .into(),
                "rem" => parse_rem(query, g.alphabet_mut())
                    .map_err(|e| e.to_string())?
                    .into(),
                other => return Err(format!("unknown language {other:?}")),
            };
            for (u, v) in q.eval_pairs(&g) {
                println!("{u}\t{v}");
            }
            Ok(())
        }
    }
}

fn cmd_exchange(args: &[String]) -> Result<(), String> {
    let (source_file, mapping_file, query) = match args {
        [s, m] => (s, m, None),
        [s, m, kw, q] if kw == "query" => (s, m, Some(q)),
        _ => return Err("exchange needs <source-file> <mapping-file> [query <ree>]".into()),
    };
    let gs = load_graph(source_file)?;
    let m = load_mapping(mapping_file, gs.alphabet())?;
    let sol = universal_solution(&m, &gs).map_err(|e| e.to_string())?;
    println!(
        "# universal solution ({} invented nodes)",
        sol.invented.len()
    );
    print!("{}", serialize_graph(&sol.graph));
    if let Some(qsrc) = query {
        let mut ta = m.target_alphabet().clone();
        let q: DataQuery = parse_ree(qsrc, &mut ta).map_err(|e| e.to_string())?.into();
        println!("# certain answers to {qsrc}");
        let certain = answer_once(&m, &gs, &q.compile(), Semantics::nulls())
            .map_err(|e| e.to_string())?
            .into_tuples();
        match certain {
            gde_core::certain::CertainAnswers::Pairs(pairs) => {
                for (u, v) in pairs.iter() {
                    println!("{u}\t{v}");
                }
            }
            gde_core::certain::CertainAnswers::AllVacuously => {
                println!("# (no solution exists: every tuple is vacuously certain)");
            }
        }
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let [source_file, mapping_file, target_file] = args else {
        return Err("check needs <source-file> <mapping-file> <target-file>".into());
    };
    let gs = load_graph(source_file)?;
    let gt = load_graph(target_file)?;
    let m = load_mapping(mapping_file, gs.alphabet())?;
    if m.is_solution(&gs, &gt) {
        println!("OK: target is a solution for the source under the mapping");
        Ok(())
    } else {
        Err("target is NOT a solution".into())
    }
}
