//! SPARQL algebra rendering.
//!
//! The paper manipulates OMQs through their SPARQL-algebra form (Code 4):
//!
//! ```text
//! (project (?v1 … ?vn)
//!   (join
//!     (table (vars ?v1 … ?vn) (row [?v1 attr1] … ))
//!     (bgp (triple s1 p1 attr1) … )))
//! ```
//!
//! [`to_algebra`] produces that s-expression for any supported query. It is
//! a rendering only: the rewriting pipeline reads the parsed query, and the
//! unit tests assert against this form to show fidelity with the ARQ
//! output shown in the paper.

use super::ast::*;
use std::fmt::Write as _;

/// Renders the algebra s-expression of a query.
pub fn to_algebra(query: &SelectQuery) -> String {
    let mut out = String::new();
    let projection = query.projection();
    out.push_str("(project (");
    for (i, v) in projection.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{v}");
    }
    out.push_str(")\n");

    let has_table = query.values.as_ref().is_some_and(|v| !v.rows.is_empty());
    if has_table {
        out.push_str("  (join\n");
        let values = query.values.as_ref().expect("checked above");
        out.push_str("    (table (vars");
        for v in &values.vars {
            let _ = write!(out, " {v}");
        }
        out.push_str(")\n");
        for row in &values.rows {
            out.push_str("      (row");
            for (v, t) in values.vars.iter().zip(row) {
                let _ = write!(out, " [{v} {t}]");
            }
            out.push_str(")\n");
        }
        out.push_str("    )\n");
        write_bgp(&mut out, query, "    ");
        out.push_str("  ))");
    } else {
        write_bgp(&mut out, query, "  ");
        out.push(')');
    }
    out
}

fn write_bgp(out: &mut String, query: &SelectQuery, indent: &str) {
    out.push_str(indent);
    out.push_str("(bgp\n");
    for qp in &query.patterns {
        out.push_str(indent);
        match &qp.graph {
            GraphSpec::Active => {
                let _ = writeln!(out, "  (triple {})", qp.pattern);
            }
            GraphSpec::Named(g) => {
                let _ = writeln!(out, "  (graph <{}> (triple {}))", g.as_str(), qp.pattern);
            }
            GraphSpec::Var(v) => {
                let _ = writeln!(out, "  (graph {v} (triple {}))", qp.pattern);
            }
        }
    }
    out.push_str(indent);
    out.push_str(")\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparql::parser::parse_query;
    use crate::turtle::PrefixMap;

    #[test]
    fn algebra_of_the_template_query_matches_code4_shape() {
        let mut prefixes = PrefixMap::new();
        prefixes.insert("sup", "http://e/sup/");
        prefixes.insert("G", "http://e/G/");
        let q = parse_query(
            "SELECT ?x ?y FROM <http://e/Global> WHERE {
                VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
                sup:App G:hasFeature sup:applicationId .
                sup:App sup:hasMonitor sup:Monitor
            }",
            &prefixes,
        )
        .unwrap();
        let algebra = to_algebra(&q);
        assert!(algebra.starts_with("(project (?x ?y)"));
        assert!(algebra.contains("(join"));
        assert!(algebra.contains("(table (vars ?x ?y)"));
        assert!(algebra
            .contains("(row [?x <http://e/sup/applicationId>] [?y <http://e/sup/lagRatio>])"));
        assert!(algebra.contains("(bgp"));
        assert!(algebra.contains(
            "(triple <http://e/sup/App> <http://e/G/hasFeature> <http://e/sup/applicationId>)"
        ));
    }

    #[test]
    fn algebra_without_values_has_no_join() {
        let q = parse_query("SELECT ?s WHERE { ?s ?p ?o . }", &PrefixMap::new()).unwrap();
        let algebra = to_algebra(&q);
        assert!(!algebra.contains("(join"));
        assert!(algebra.contains("(triple ?s ?p ?o)"));
    }

    #[test]
    fn graph_blocks_render() {
        let q = parse_query(
            "SELECT ?g WHERE { GRAPH ?g { ?s ?p ?o } }",
            &PrefixMap::new(),
        )
        .unwrap();
        assert!(to_algebra(&q).contains("(graph ?g (triple ?s ?p ?o))"));
    }
}
