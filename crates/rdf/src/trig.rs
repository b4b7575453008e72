//! TriG subset reader and writer — Turtle extended with named graphs.
//!
//! The full BDI ontology `T` is a *dataset* (default graph + the `G`/`S`/`M`
//! graphs + one LAV named graph per wrapper), which plain Turtle cannot
//! express. This module supports the TriG fragment needed to serialize and
//! reload `T` losslessly:
//!
//! ```text
//! @prefix ex: <http://example.org/> .
//! ex:defaultSubject ex:p ex:o .            # default graph
//! GRAPH ex:g1 { ex:a ex:p ex:b . }         # named graphs
//! ex:g2 { ex:c ex:p ex:d . }               # brace form without keyword
//! ```

use crate::model::{GraphName, Iri, Quad, Term, Triple};
use crate::store::QuadStore;
use crate::turtle::{parse_turtle, write_turtle, PrefixMap, TurtleError};

/// Errors raised while parsing TriG.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum TrigError {
    #[error(transparent)]
    Turtle(#[from] TurtleError),
    #[error("unterminated graph block for {0}")]
    UnterminatedGraph(String),
    #[error("expected graph name before `{{` at offset {0}")]
    MissingGraphName(usize),
}

/// Serializes an entire store (default graph + all named graphs) as TriG.
pub fn write_trig(store: &QuadStore, prefixes: &PrefixMap) -> String {
    let mut out = String::new();
    for (pfx, ns) in prefixes.iter() {
        out.push_str(&format!("@prefix {pfx}: <{ns}> .\n"));
    }
    out.push('\n');

    // Default graph first, as plain triples.
    let default_triples: Vec<Triple> = store
        .graph_quads(&GraphName::Default)
        .into_iter()
        .map(Quad::into_triple)
        .collect();
    if !default_triples.is_empty() {
        out.push_str(&strip_prefix_header(&write_turtle(
            default_triples.iter(),
            prefixes,
        )));
        out.push('\n');
    }

    for graph in store.named_graphs() {
        let triples: Vec<Triple> = store
            .graph_quads(&GraphName::Named(graph.clone()))
            .into_iter()
            .map(Quad::into_triple)
            .collect();
        out.push_str(&format!("GRAPH {} {{\n", prefixes.compact(&graph)));
        for line in strip_prefix_header(&write_turtle(triples.iter(), prefixes)).lines() {
            if line.is_empty() {
                continue;
            }
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("}\n\n");
    }
    out
}

/// `write_turtle` emits its own prefix header; drop it when embedding.
fn strip_prefix_header(turtle: &str) -> String {
    turtle
        .lines()
        .filter(|l| !l.starts_with("@prefix"))
        .collect::<Vec<_>>()
        .join("\n")
        .trim_start()
        .to_owned()
        + "\n"
}

/// Parses a TriG document into quads.
pub(crate) fn parse_trig(input: &str) -> Result<Vec<Quad>, TrigError> {
    // Strategy: split the document into (graph, turtle-fragment) sections by
    // scanning for GRAPH blocks at brace level zero, then reuse the Turtle
    // parser per section with the shared prefix header.
    let mut prefix_header = String::new();
    let mut sections: Vec<(GraphName, String)> = Vec::new();
    let mut default_body = String::new();

    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    let n = chars.len();

    while i < n {
        // Skip whitespace/comments between statements.
        while i < n && (chars[i].is_whitespace()) {
            i += 1;
        }
        if i >= n {
            break;
        }
        if chars[i] == '#' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // @prefix directive.
        if input[offset(&chars, i)..].starts_with("@prefix") {
            let start = i;
            let end = statement_end(&chars, i).ok_or(TrigError::Turtle(
                TurtleError::UnexpectedEof("@prefix directive"),
            ))?;
            i = end + 1; // consume '.'
            prefix_header.push_str(&slice(&chars, start, i));
            prefix_header.push('\n');
            continue;
        }
        // GRAPH keyword (case-insensitive) or `name {`.
        let rest = &input[offset(&chars, i)..];
        let (graph_name_start, explicit_keyword) = if rest.len() >= 5
            && rest[..5].eq_ignore_ascii_case("graph")
            && rest[5..].starts_with(char::is_whitespace)
        {
            (i + 5, true)
        } else {
            (i, false)
        };

        // Look ahead: is there a `{` before the statement-ending `.`? Then
        // it is a graph block; otherwise it is a default-graph statement.
        let mut j = graph_name_start;
        let mut saw_brace = false;
        while j < n {
            match chars[j] {
                '{' => {
                    saw_brace = true;
                    break;
                }
                '.' if !explicit_keyword && ends_statement(&chars, j) => break,
                '"' => j = skip_string(&chars, j),
                '<' => j = skip_angle(&chars, j),
                _ => {}
            }
            j += 1;
        }

        if !saw_brace {
            // Default-graph statement: copy up to and including the '.'.
            let start = i;
            let k = statement_end(&chars, i).ok_or(TrigError::Turtle(
                TurtleError::UnexpectedEof("default graph statement"),
            ))?;
            default_body.push_str(&slice(&chars, start, k + 1));
            default_body.push('\n');
            i = k + 1;
            continue;
        }

        // Graph block: name is chars[graph_name_start..j] trimmed.
        let name_text = slice(&chars, graph_name_start, j).trim().to_owned();
        if name_text.is_empty() {
            return Err(TrigError::MissingGraphName(i));
        }
        // Body: from after '{' to the matching '}' (no nesting in TriG).
        let body_start = j + 1;
        let mut k = body_start;
        let mut depth = 1;
        while k < n && depth > 0 {
            match chars[k] {
                '{' => depth += 1,
                '}' => depth -= 1,
                '"' => k = skip_string(&chars, k),
                '<' => k = skip_angle(&chars, k),
                _ => {}
            }
            k += 1;
        }
        if depth != 0 {
            return Err(TrigError::UnterminatedGraph(name_text));
        }
        let body = slice(&chars, body_start, k - 1);
        sections.push((
            GraphName::Named(resolve_graph_name(&name_text, &prefix_header)?),
            body,
        ));
        i = k;
    }

    let mut quads = Vec::new();
    let parse_section = |body: &str| -> Result<Vec<Triple>, TrigError> {
        let full = format!("{prefix_header}\n{body}");
        let (triples, _) = parse_turtle(&full)?;
        Ok(triples)
    };
    for triple in parse_section(&default_body)? {
        quads.push(Quad {
            subject: triple.subject,
            predicate: triple.predicate,
            object: triple.object,
            graph: GraphName::Default,
        });
    }
    for (graph, body) in sections {
        for triple in parse_section(&body)? {
            quads.push(Quad {
                subject: triple.subject,
                predicate: triple.predicate,
                object: triple.object,
                graph: graph.clone(),
            });
        }
    }
    Ok(quads)
}

fn offset(chars: &[char], i: usize) -> usize {
    chars[..i].iter().map(|c| c.len_utf8()).sum()
}

/// Index of the closing `"` of a string starting at `chars[start] == '"'`.
fn skip_string(chars: &[char], start: usize) -> usize {
    let mut k = start + 1;
    while k < chars.len() && chars[k] != '"' {
        if chars[k] == '\\' {
            k += 1;
        }
        k += 1;
    }
    k
}

/// Index of the closing `>` of an IRI starting at `chars[start] == '<'`.
fn skip_angle(chars: &[char], start: usize) -> usize {
    let mut k = start + 1;
    while k < chars.len() && chars[k] != '>' {
        k += 1;
    }
    k
}

/// True when the `.` at `chars[i]` terminates a statement: it is followed
/// by whitespace, EOF, a comment or a brace — not a character of a name.
fn ends_statement(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        None => true,
        Some(c) => c.is_whitespace() || matches!(c, '#' | '}' | '{'),
    }
}

/// Index of the statement-terminating `.` starting the scan at `from`,
/// skipping string literals and angle-bracket IRIs.
fn statement_end(chars: &[char], from: usize) -> Option<usize> {
    let mut k = from;
    while k < chars.len() {
        match chars[k] {
            '"' => k = skip_string(chars, k),
            '<' => k = skip_angle(chars, k),
            '.' if ends_statement(chars, k) => return Some(k),
            _ => {}
        }
        k += 1;
    }
    None
}

fn slice(chars: &[char], from: usize, to: usize) -> String {
    chars[from..to].iter().collect()
}

fn resolve_graph_name(text: &str, prefix_header: &str) -> Result<Iri, TrigError> {
    if let Some(stripped) = text.strip_prefix('<') {
        let inner = stripped.trim_end_matches('>');
        return Ok(Iri::try_new(inner).map_err(|e| TurtleError::BadIri(e.to_string()))?);
    }
    // Prefixed name: reuse the Turtle parser on a synthetic statement.
    let doc = format!("{prefix_header}\n{text} {text} {text} .");
    let (triples, _) = parse_turtle(&doc)?;
    match &triples[0].subject {
        Term::Iri(iri) => Ok(iri.clone()),
        other => Err(TrigError::Turtle(TurtleError::Expected {
            expected: "graph IRI",
            found: other.to_string(),
        })),
    }
}

/// Loads a TriG document into a store, returning how many quads were new.
pub fn load_trig(store: &QuadStore, input: &str) -> Result<usize, TrigError> {
    let quads = parse_trig(input)?;
    Ok(store.extend(quads))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> QuadStore {
        let store = QuadStore::new();
        store.insert(&Quad::new(
            Iri::new("http://e/s"),
            Iri::new("http://e/p"),
            Iri::new("http://e/o"),
            GraphName::Default,
        ));
        store.insert(&Quad::new(
            Iri::new("http://e/a"),
            Iri::new("http://e/p"),
            crate::model::Literal::string("lit \"quoted\""),
            GraphName::Named(Iri::new("http://e/g1")),
        ));
        store.insert(&Quad::new(
            Iri::new("http://e/b"),
            Iri::new("http://e/q"),
            Iri::new("http://e/c"),
            GraphName::Named(Iri::new("http://e/g2")),
        ));
        store
    }

    #[test]
    fn round_trip_store_to_trig_and_back() {
        let store = sample_store();
        let mut prefixes = PrefixMap::new();
        prefixes.insert("e", "http://e/");
        let doc = write_trig(&store, &prefixes);

        let reloaded = QuadStore::new();
        let n = load_trig(&reloaded, &doc).unwrap();
        assert_eq!(n, 3);
        let mut a: Vec<String> = store.iter_all().iter().map(|q| q.to_string()).collect();
        let mut b: Vec<String> = reloaded.iter_all().iter().map(|q| q.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_graph_keyword_and_brace_forms() {
        let doc = r#"
            @prefix e: <http://e/> .
            e:x e:p e:y .
            GRAPH e:g1 { e:a e:p e:b . }
            e:g2 { e:c e:p e:d . }
        "#;
        let quads = parse_trig(doc).unwrap();
        assert_eq!(quads.len(), 3);
        assert_eq!(
            quads
                .iter()
                .filter(|q| q.graph == GraphName::Default)
                .count(),
            1
        );
        assert!(quads
            .iter()
            .any(|q| q.graph == GraphName::Named(Iri::new("http://e/g2"))));
    }

    #[test]
    fn angle_bracket_graph_names() {
        let doc = r#"
            @prefix e: <http://e/> .
            GRAPH <http://e/gX> { e:a e:p e:b . }
        "#;
        let quads = parse_trig(doc).unwrap();
        assert_eq!(quads[0].graph, GraphName::Named(Iri::new("http://e/gX")));
    }

    #[test]
    fn literals_with_braces_do_not_confuse_the_scanner() {
        let doc = r#"
            @prefix e: <http://e/> .
            e:x e:p "contains { braces } and a dot ." .
            GRAPH e:g { e:a e:p "also } here" . }
        "#;
        let quads = parse_trig(doc).unwrap();
        assert_eq!(quads.len(), 2);
        let lit = quads
            .iter()
            .find(|q| q.graph == GraphName::Default)
            .unwrap();
        assert!(lit.object.to_string().contains("braces"));
    }

    #[test]
    fn unterminated_graph_is_an_error() {
        let doc = "@prefix e: <http://e/> . GRAPH e:g { e:a e:p e:b .";
        assert!(matches!(
            parse_trig(doc),
            Err(TrigError::UnterminatedGraph(_))
        ));
    }

    #[test]
    fn empty_document_parses() {
        assert!(parse_trig("").unwrap().is_empty());
        assert!(parse_trig("# just a comment\n").unwrap().is_empty());
    }
}
