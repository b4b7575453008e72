//! Tables 1 & 2 — the running example's wrapper outputs and exemplary
//! query answer, regenerated end-to-end.
//!
//! ```text
//! cargo run --release -p bdi-bench --bin tables1_2
//! ```

use bdi_core::supersede;
use bdi_core::system::AnswerRequest;
use bdi_relational::SourceResolver;

fn main() {
    let system = supersede::build_running_example();

    println!("Table 1 — sample output of each wrapper\n");
    for name in ["w1", "w2", "w3"] {
        let rel = system.registry().resolve(name).expect("wrapper registered");
        println!("{name}:\n{rel}\n");
    }

    println!("Table 2 — exemplary query: for each applicationId, its lagRatio instances\n");
    let answer = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .expect("query answers");
    println!("{}", answer.relation);
    println!("\nRewriting produced {} walk(s):", answer.walk_exprs.len());
    for expr in &answer.walk_exprs {
        println!("  {expr}");
    }

    // §2.1 evolution: after w4, the same query unions both schema versions.
    let mut system = system;
    supersede::evolve_with_w4(&mut system);
    let evolved = system
        .serve(AnswerRequest::sparql(supersede::exemplary_query()))
        .expect("query answers");
    println!("\nAfter the w4 release (lagRatio → bufferingRatio), the same OMQ yields:");
    println!("{}", evolved.relation);
    println!("\nwalks:");
    for expr in &evolved.walk_exprs {
        println!("  {expr}");
    }

    assert_eq!(answer.relation.len(), 3);
    assert_eq!(evolved.relation.len(), 5);
    println!("\nTables 1 and 2 regenerated successfully (3 rows before, 5 after evolution).");
}
