//! Criterion benches for query rewriting (Algorithms 2–5) and end-to-end
//! answering — the machinery behind Figure 8 and Table 2.

use bdi_bench::synthetic;
use bdi_core::supersede;
use bdi_core::system::AnswerRequest;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_running_example(c: &mut Criterion) {
    let system = supersede::build_running_example();
    let query = supersede::exemplary_query();

    c.bench_function("rewrite/running_example", |b| {
        b.iter(|| {
            let rewriting = system
                .rewrite(black_box(supersede::exemplary_omq()))
                .expect("rewrites");
            black_box(rewriting.walks.len())
        })
    });

    c.bench_function("answer/running_example_sparql", |b| {
        b.iter(|| {
            let answer = system
                .serve(AnswerRequest::sparql(black_box(&query)))
                .expect("answers");
            black_box(answer.relation.len())
        })
    });
}

fn bench_chain_scaling(c: &mut Criterion) {
    // Figure 8's regime, at bench-friendly sizes: C=5 concepts, growing W.
    let mut group = c.benchmark_group("rewrite/chain_c5");
    for w in [1usize, 2, 4, 6] {
        let system = synthetic::build_chain_system(5, w, 0);
        group.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| {
                let rewriting = system
                    .rewrite(black_box(synthetic::chain_query(5)))
                    .expect("rewrites");
                assert_eq!(
                    rewriting.walks.len() as u64,
                    synthetic::predicted_walks(5, w)
                );
                black_box(rewriting.walks.len())
            })
        });
    }
    group.finish();
}

fn bench_concept_scaling(c: &mut Criterion) {
    // Complementary axis: fixed W=3, growing chain length.
    let mut group = c.benchmark_group("rewrite/chain_w3");
    for concepts in [2usize, 3, 4, 5, 6] {
        let system = synthetic::build_chain_system(concepts, 3, 0);
        group.bench_with_input(
            BenchmarkId::from_parameter(concepts),
            &concepts,
            |b, &concepts| {
                b.iter(|| {
                    let rewriting = system
                        .rewrite(black_box(synthetic::chain_query(concepts)))
                        .expect("rewrites");
                    black_box(rewriting.walks.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_execution(c: &mut Criterion) {
    // Walk evaluation over real data: C=3, W=2, growing row counts.
    let mut group = c.benchmark_group("execute/chain_c3_w2");
    for rows in [10usize, 100, 1000] {
        let system = synthetic::build_chain_system(3, 2, rows);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| {
                let answer = system
                    .serve(AnswerRequest::omq(black_box(synthetic::chain_query(3))))
                    .expect("answers");
                black_box(answer.relation.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_running_example,
    bench_chain_scaling,
    bench_concept_scaling,
    bench_execution
);
criterion_main!(benches);
