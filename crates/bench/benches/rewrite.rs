//! Rewriting (Algorithms 2–5) and release-handling (Algorithm 1) rows —
//! the machinery behind Figure 8, Table 2 and Figure 11:
//!
//! * **Running example** — the exemplary OMQ rewritten, and the same
//!   question answered end to end from SPARQL.
//! * **Chain worst case** — `build_chain_system` with every concept served
//!   by `W` disjoint wrappers, so rewriting emits all `W^C` walks: `C = 5`
//!   at growing `W` (Figure 8's axis), `W = 3` at growing `C`, and
//!   `C = 3, W = 4`. Systems are built before timing; rows time
//!   `rewrite` alone.
//! * **Phase-2 pruning** — `C = 4, W = 3` with 0 vs 8 distractor wrappers
//!   per concept that miss a queried feature: §5.3's "a wrapper provides
//!   all features of a concept or is not considered" must cost linear
//!   time, not more walks.
//! * **Algorithm 1** — registering the running example's `w4` release on a
//!   fresh deployment (setup untimed; the timed part also ingests the v2
//!   documents the new wrapper reads), and the 15-release WordPress replay
//!   behind Figure 11.
//!
//! Run with `cargo bench -p bdi_bench --bench rewrite`. Results are printed
//! and written to `BENCH_rewrite.json` at the workspace root (skipped under
//! `BDI_BENCH_FAST`).

use bdi_bench::synthetic;
use bdi_bench::{measure, measure_with_setup, Measurement};
use bdi_core::release::Release;
use bdi_core::supersede;
use bdi_core::system::{AnswerRequest, BdiSystem};
use bdi_evolution::wordpress;
use bdi_rdf::model::{Iri, Triple};
use bdi_relational::Schema;
use bdi_wrappers::supersede as data;
use bdi_wrappers::TableWrapper;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Times `system`'s rewriting of the `concepts`-long chain query, checking
/// every iteration still yields `walks` walks.
fn rewrite_row(
    id: String,
    records: &mut Vec<Measurement>,
    system: &BdiSystem,
    concepts: usize,
    walks: u64,
) -> f64 {
    measure(id, records, || {
        let rewriting = system
            .rewrite(synthetic::chain_query(concepts))
            .expect("rewrites");
        assert_eq!(rewriting.walks.len() as u64, walks);
        rewriting.walks.len()
    })
}

/// The `C = 4, W = 3` chain plus `k` distractors per concept, each
/// providing only the concept's ID (it misses the data feature, so phase 2
/// prunes it).
fn chain_with_distractors(k: usize) -> BdiSystem {
    let mut system = synthetic::build_chain_system(4, 3, 0);
    for i in 1..=4usize {
        let concept = Iri::new(format!("http://www.essi.upc.edu/~snadal/synthetic/C{i}"));
        let id_feature = synthetic::chain_id_feature(i);
        for d in 0..k {
            let wrapper = Arc::new(
                TableWrapper::new(
                    format!("distractor_{i}_{d}"),
                    format!("DD_{i}_{d}"),
                    Schema::from_parts::<&str>(&[&format!("id{i}")], &[]).expect("unique"),
                    vec![],
                )
                .expect("valid"),
            );
            system
                .register_release(Release::new(
                    wrapper,
                    vec![Triple::new(
                        concept.clone(),
                        Iri::new(bdi_core::vocab::g::HAS_FEATURE.as_str()),
                        id_feature.clone(),
                    )],
                    BTreeMap::from([(format!("id{i}"), id_feature.clone())]),
                ))
                .expect("release applies");
        }
    }
    system
}

fn main() {
    let mut records: Vec<Measurement> = Vec::new();

    // ---- Running example (Table 2).
    let system = supersede::build_running_example();
    let query = supersede::exemplary_query();
    measure("rewrite/running_example", &mut records, || {
        system
            .rewrite(supersede::exemplary_omq())
            .expect("rewrites")
            .walks
            .len()
    });
    measure("answer/running_example_sparql", &mut records, || {
        system
            .serve(AnswerRequest::sparql(&query))
            .expect("answers")
            .relation
            .len()
    });

    // ---- Figure 8's regime at bench-friendly sizes: C = 5, growing W.
    for w in [1usize, 2, 4, 6] {
        let system = synthetic::build_chain_system(5, w, 0);
        let walks = synthetic::predicted_walks(5, w);
        rewrite_row(
            format!("rewrite/chain_c5/{w}"),
            &mut records,
            &system,
            5,
            walks,
        );
    }
    // The complementary axis: W = 3, growing chain length.
    for c in [2usize, 3, 4, 5, 6] {
        let system = synthetic::build_chain_system(c, 3, 0);
        let walks = synthetic::predicted_walks(c, 3);
        rewrite_row(
            format!("rewrite/chain_w3/{c}"),
            &mut records,
            &system,
            c,
            walks,
        );
    }
    let system = synthetic::build_chain_system(3, 4, 0);
    let walks = synthetic::predicted_walks(3, 4);
    rewrite_row(
        "rewrite/chain_c3_w4".to_owned(),
        &mut records,
        &system,
        3,
        walks,
    );

    // ---- Phase-2 pruning: distractors must not change the walks.
    let walks = synthetic::predicted_walks(4, 3);
    let [clean_ns, noisy_ns] = [0, 8].map(|k| {
        let system = chain_with_distractors(k);
        rewrite_row(
            format!("rewrite/chain_c4_w3/{k}_distractors"),
            &mut records,
            &system,
            4,
            walks,
        )
    });

    // ---- Algorithm 1: one release on a fresh deployment.
    measure_with_setup(
        "release/register_w4",
        &mut records,
        supersede::build_running_example,
        |mut system| {
            data::ingest_vod_v2(system.store());
            let w4 = data::wrapper_w4(system.store().clone());
            system
                .register_release(supersede::release_w4(Arc::new(w4)))
                .expect("release applies")
                .source_triples_added
        },
    );
    measure("wordpress/replay_15_releases", &mut records, || {
        wordpress::replay()
            .last()
            .expect("non-empty")
            .cumulative_source_triples
    });

    let pruning_overhead = noisy_ns / clean_ns;
    println!();
    println!("overhead: 8 pruned distractors per concept (vs none) = {pruning_overhead:.2}x");

    bdi_bench::write_results(
        "rewrite",
        "Algorithms 2-5 on the running example and W^C chains (systems built untimed); Algorithm 1: register w4, WordPress 15-release replay",
        &records,
        "ratios",
        &[("pruning_8_distractors_overhead", pruning_overhead)],
    );
}
