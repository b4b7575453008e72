//! `mdm` — a command-line Metadata Management System (paper §6.1).
//!
//! The paper's MDM tool lets data stewards govern the BDI ontology and
//! analysts pose OMQs. This CLI drives the same pipeline over the built-in
//! SUPERSEDE deployment:
//!
//! ```text
//! mdm demo                     overview of the running-example deployment
//! mdm query [--evolved] [Q]    answer a SPARQL OMQ (default: the Code 8 query)
//! mdm explain [--evolved]      show the rewriting phases for the Code 8 query
//! mdm dump [--evolved]         TriG dump of the whole ontology T
//! mdm validate                 consistency + datatype integrity checks
//! mdm wordpress                replay the Wordpress release series (Fig. 11)
//! mdm audit                    change-taxonomy and Table 6 summaries
//! mdm snapshot <file>          persist the deployment as one JSON image
//! mdm load <file>              restore an image and re-run the Code 8 query
//! ```
//!
//! Run via `cargo run --bin mdm -- <command>`.

use bdi::core::supersede;
use bdi::core::system::{AnswerRequest, BdiSystem};
use bdi::core::{typing, validate};
use bdi::evolution::{industrial, wordpress};
use bdi::rdf::trig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let evolved = args.iter().any(|a| a == "--evolved");
    let rest: Vec<&String> = args
        .iter()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();

    match command {
        "demo" => demo(evolved),
        "query" => query(evolved, rest.first().map(|s| s.as_str())),
        "explain" => explain(evolved),
        "dump" => dump(evolved),
        "validate" => return validate_cmd(evolved),
        "wordpress" => wordpress_cmd(),
        "audit" => audit(),
        "snapshot" => return snapshot_cmd(evolved, rest.first().map(|s| s.as_str())),
        "load" => return load_cmd(rest.first().map(|s| s.as_str())),
        "help" | "--help" | "-h" => help(),
        other => {
            eprintln!("unknown command: {other}\n");
            help();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn build(evolved: bool) -> BdiSystem {
    let mut system = supersede::build_running_example();
    if evolved {
        supersede::evolve_with_w4(&mut system);
    }
    system
}

fn help() {
    println!(
        "mdm — Metadata Management System for the BDI ontology\n\n\
         USAGE: mdm <command> [--evolved] [args]\n\n\
         COMMANDS:\n\
         \x20 demo        overview of the running-example deployment\n\
         \x20 query [Q]   answer a SPARQL OMQ (default: the paper's Code 8 query)\n\
         \x20 explain     show the rewriting pipeline phase by phase\n\
         \x20 dump        TriG dump of the whole ontology T\n\
         \x20 validate    consistency + datatype integrity checks\n\
         \x20 wordpress   replay the Wordpress release series (Figure 11)\n\
         \x20 audit       change-taxonomy and industrial-applicability summary\n\n\
         FLAGS:\n\
         \x20 --evolved   include the w4 release (VoD API v2) in the deployment"
    );
}

fn demo(evolved: bool) {
    let system = build(evolved);
    let o = system.ontology();
    println!(
        "SUPERSEDE deployment{}",
        if evolved { " (evolved with w4)" } else { "" }
    );
    println!("  concepts in G:        {}", o.concepts().len());
    println!(
        "  |G| / |S| / |M|:      {} / {} / {} triples",
        o.global_graph_len(),
        o.source_graph_len(),
        o.mapping_graph_len()
    );
    println!("  wrappers:             {}", system.registry().len());
    println!("  release log:");
    for entry in system.release_log() {
        println!(
            "    #{} {} (source {})",
            entry.seq, entry.wrapper, entry.source
        );
    }
}

fn query(evolved: bool, q: Option<&str>) {
    let system = build(evolved);
    let sparql = q
        .map(str::to_owned)
        .unwrap_or_else(supersede::exemplary_query);
    match system.serve(AnswerRequest::sparql(&sparql)) {
        Ok(answer) => {
            println!("walks ({}):", answer.walk_exprs.len());
            for w in &answer.walk_exprs {
                println!("  {w}");
            }
            println!("\n{}", answer.relation);
        }
        Err(e) => eprintln!("query failed: {e}"),
    }
}

fn explain(evolved: bool) {
    let system = build(evolved);
    let rewriting = system
        .rewrite(supersede::exemplary_omq())
        .expect("running example rewrites");
    println!("OMQ:\n{}", rewriting.well_formed.omq);
    println!(
        "Algorithm 2: {} concept→ID replacement(s)",
        rewriting.well_formed.replacements.len()
    );
    println!(
        "Algorithm 3: concepts = [{}], φ expanded to {} triples",
        rewriting
            .expanded
            .concepts
            .iter()
            .map(|c| c.local_name())
            .collect::<Vec<_>>()
            .join(", "),
        rewriting.expanded.query.phi.len()
    );
    println!(
        "Algorithm 5: {} candidate walk(s) → {} covering, minimal, non-equivalent",
        rewriting.candidates,
        rewriting.walks.len()
    );
    for walk in &rewriting.walks {
        println!("  {walk}");
    }
}

fn dump(evolved: bool) {
    let system = build(evolved);
    println!(
        "{}",
        trig::write_trig(
            &system.ontology().store().quads(),
            system.ontology().prefixes()
        )
    );
}

fn validate_cmd(evolved: bool) -> ExitCode {
    let system = build(evolved);
    let violations = validate::check_ontology(system.ontology());
    let typing =
        typing::validate_all(system.ontology(), system.registry()).expect("all wrappers scan");
    println!("consistency violations: {}", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    println!("datatype violations:    {}", typing.len());
    for v in &typing {
        println!(
            "  wrapper {} attribute {}: expected {:?}, found {} ({} row(s))",
            v.wrapper, v.attribute, v.expected, v.found, v.count
        );
    }
    if violations.is_empty() && typing.is_empty() {
        println!("ontology T is consistent and type-clean ✓");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn snapshot_cmd(evolved: bool, path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: mdm snapshot <file> [--evolved]");
        return ExitCode::FAILURE;
    };
    let mut system = supersede::build_running_example();
    if evolved {
        supersede::evolve_with_w4(&mut system);
    }
    let image =
        bdi::core::snapshot::snapshot(&system, system.store()).expect("builtin wrappers serialize");
    let json = bdi::core::snapshot::to_json(&image).expect("serializes");
    match std::fs::write(path, &json) {
        Ok(()) => {
            println!("wrote {} bytes to {path}", json.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_cmd(path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: mdm load <file>");
        return ExitCode::FAILURE;
    };
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let image = match bdi::core::snapshot::from_json(&json) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("invalid snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let system = match bdi::core::snapshot::restore(&image) {
        Ok(system) => system,
        Err(e) => {
            eprintln!("restore failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "restored: {} wrappers, |T| = {} triples",
        system.registry().len(),
        system.ontology().store().len()
    );
    match system.serve(AnswerRequest::sparql(supersede::exemplary_query())) {
        Ok(answer) => {
            println!(
                "Code 8 query over the restored deployment:\n{}",
                answer.relation
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("query failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn wordpress_cmd() {
    for r in wordpress::replay() {
        println!(
            "v{:<5} fields={:<3} +{:<3} triples (cumulative {})",
            r.version, r.fields, r.stats.source_triples_added, r.cumulative_source_triples
        );
    }
}

fn audit() {
    let (stats, avg) = industrial::table6();
    println!("industrial applicability (Table 6):");
    for s in &stats {
        println!(
            "  {:<16} {:>3} changes → partially {:>6.2}%, fully {:>6.2}%",
            s.name,
            s.total(),
            s.partially_pct,
            s.fully_pct
        );
    }
    println!(
        "  weighted: {:.2}% + {:.2}% = {:.2}% solved",
        avg.partially_pct, avg.fully_pct, avg.solved_pct
    );
}
