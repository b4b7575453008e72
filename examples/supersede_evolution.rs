//! The full evolution story of §2.1 + §4: the VoD API releases a new
//! version renaming `lagRatio` → `bufferingRatio`; the data steward
//! registers release `w4`; analyst queries keep working unchanged and now
//! union both schema versions — including historical data.
//!
//! Also dumps the Turtle serialization of the ontology's graphs, mirroring
//! Figures 3–6.
//!
//! ```text
//! cargo run --example supersede_evolution
//! ```

use bdi::core::supersede;
use bdi::core::system::AnswerRequest;
use bdi::core::vocab::graphs;
use bdi::rdf::model::GraphName;

fn main() {
    let mut system = supersede::build_running_example();

    println!("=== Before evolution ===");
    let before = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .expect("answers");
    println!(
        "walks: {}  → {} rows",
        before.rewriting.walks.len(),
        before.relation.len()
    );
    println!("{}\n", before.relation);

    // --- The provider releases API v2; the steward reacts (§4.1). ---
    println!("=== Release R = ⟨w4, G, F⟩ (Algorithm 1) ===");
    let stats = supersede::evolve_with_w4(&mut system);
    println!(
        "wrapper {} registered for source {} (new source: {})",
        stats.wrapper, stats.source, stats.new_source
    );
    println!(
        "S grew by {} triples ({} attributes created, {} reused — VoDmonitorId is shared \
         across versions); M grew by {} triples\n",
        stats.source_triples_added,
        stats.attributes_created,
        stats.attributes_reused,
        stats.mapping_triples_added
    );

    println!("=== After evolution: the SAME query, untouched ===");
    let after = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .expect("answers");
    println!(
        "walks: {}  → {} rows (union of both schema versions)",
        after.rewriting.walks.len(),
        after.relation.len()
    );
    for expr in &after.walk_exprs {
        println!("  {expr}");
    }
    println!("{}\n", after.relation);

    // --- Figures 3/4/6: the ontology's RDF graphs. ---
    println!("=== Global graph G (Figure 3, Turtle) ===");
    println!("{}", system.ontology().graph_turtle(&graphs::global()));
    println!("=== Source graph S after evolution (Figures 4/6, Turtle) ===");
    println!("{}", system.ontology().graph_turtle(&graphs::source()));
    println!("=== Mapping graph M (owl:sameAs links) ===");
    println!("{}", system.ontology().graph_turtle(&graphs::mapping()));
    println!("=== LAV named graph of w4 ===");
    let w4 = GraphName::Named(bdi::core::vocab::wrapper_uri("w4"));
    println!("{}", system.ontology().graph_turtle(&w4));
}
