//! The text front doors that read outside input — `sparql::parse_query`,
//! `turtle::parse_turtle`, `trig::load_trig` and `Omq::parse` — return
//! `Err` on malformed input and never panic. Inputs are token soup over the
//! grammar's punctuation, its keywords and multibyte characters, so most of
//! them get past the lexer and into the productions.

use bdi::core::Omq;
use bdi::rdf::sparql;
use bdi::rdf::store::QuadStore;
use bdi::rdf::trig::load_trig;
use bdi::rdf::turtle::{parse_turtle, PrefixMap};
use proptest::prelude::*;

const FRAGMENTS: &[&str] = &[
    "e:",
    "e:a",
    "GRAPH ",
    "PREFIX ",
    "@prefix ",
    "SELECT ",
    "WHERE ",
    "VALUES ",
    "<http://e/x>",
    "\"s\"",
    "\\q",
    " . ",
    "^^",
    "?x ",
    "_:b ",
    "a ",
    "1.5",
    "ééé",
    "日本",
    "😀",
];

fn arb_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[<>{}\"\\\\@^:._#?;,]{1,4}",
        "[a-zé \n]{1,3}",
        (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_owned()),
    ];
    prop::collection::vec(piece, 0..24).prop_map(|parts| parts.concat())
}

fn prefixes() -> PrefixMap {
    let mut p = PrefixMap::with_common_vocabularies();
    p.insert("e", "http://e/");
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn document_readers_never_panic(text in arb_text()) {
        let turtle = parse_turtle(&text);
        let trig = load_trig(&QuadStore::new(), &text);
        // Every Turtle document is a TriG document.
        prop_assert!(turtle.is_err() || trig.is_ok());
    }

    #[test]
    fn query_readers_never_panic(text in arb_text()) {
        let _ = sparql::parse_query(&text, &prefixes());
        let _ = Omq::parse(&text, &prefixes());
    }
}

#[test]
fn a_multibyte_name_before_a_brace_is_an_error() {
    assert!(load_trig(&QuadStore::new(), "ééé { }").is_err());
}

#[test]
fn a_brace_in_a_comment_does_not_close_a_graph_block() {
    let doc = "@prefix e: <http://e/> .\nGRAPH e:g {\n # closes } early\n e:a e:p e:b .\n}";
    assert_eq!(load_trig(&QuadStore::new(), doc), Ok(1));
}
