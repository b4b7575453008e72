//! Differential property test for walk execution: the streaming physical
//! plan engine (`Engine::Streaming`) must return **byte-identical** answers
//! — same rows, same order — to the eager `ops::*` reference engine
//! (`Engine::Eager`), over
//! randomized chain systems with randomized wrapper data (null join keys,
//! cross-typed numerics, duplicate rows) and every `VersionScope`, with the
//! semi-join pass injecting its key sets into the probe scans or not —
//! including the path of a source that claims no filters at all. Every
//! wrapper kind's native scan honours random IN-set conjunctions over the
//! same hazard-laden value domain exactly like the reference
//! `ScanRequest::apply`. The same reference pins the append-aware scan
//! cache: after every step of a random sequence of appends, clears and
//! queries over table and document wrappers, a persistent context answers
//! exactly like a fresh one.

use bdi::core::exec::{self, Engine, ExecOptions};
use bdi::core::system::{AnswerRequest, VersionScope};
use bdi::relational::plan::{ColumnFilter, Predicate};
use bdi::relational::{
    BatchIter, PlanSource, Relation, RelationError, ScanMark, ScanRequest, SourceResolver, Value,
};
use bdi_bench::{compile_and_execute, synthetic};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A generated wrapper row: optional own id, optional next id, one datum.
/// Ids come from a tiny pool so joins both hit and miss; `None` becomes
/// `Value::Null` (null keys never join).
type RawRow = (Option<i64>, Option<i64>, u8);

/// Ids 0..=4 or (one case in six) a null.
fn arb_id() -> impl Strategy<Value = Option<i64>> {
    (0i64..6).prop_map(|i| if i == 5 { None } else { Some(i) })
}

fn arb_raw_row() -> impl Strategy<Value = RawRow> {
    (arb_id(), arb_id(), 0u8..9)
}

/// The datum selector exercises every Eq-class hazard: cross-type numeric
/// equality (`Int(2)` = `Float(2.0)`), signed zero (`-0.0` = `0.0` = `Int(0)`),
/// NaN (self-equal under the total order), and plain duplicates — all of
/// which must dedup identically in both engines.
fn datum(selector: u8) -> Value {
    match selector {
        0 => Value::Int(2),
        1 => Value::Float(2.0),
        2 => Value::Null,
        3 => Value::Str("x".into()),
        4 => Value::Int(7),
        5 => Value::Float(-0.0),
        6 => Value::Float(0.0),
        7 => Value::Float(f64::NAN),
        _ => Value::Float(0.5),
    }
}

/// Random IN-sets (possibly empty) over the same hazard domain the data is
/// drawn from, so every key set collides with NaN, signed zero, nulls and
/// cross-typed numerics.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop::collection::vec(0u8..9, 0..4).prop_map(|ss| Predicate::in_set(ss.into_iter().map(datum)))
}

fn id_value(id: Option<i64>) -> Value {
    id.map(Value::Int).unwrap_or(Value::Null)
}

/// Materializes a generated data cube into a chain system.
fn build_system(
    concepts: usize,
    wrappers: usize,
    data: &[Vec<RawRow>],
) -> bdi::core::system::BdiSystem {
    synthetic::build_chain_system_with(concepts, wrappers, 0, usize::MAX, |i, j, schema| {
        let wrapper_index = (i - 1) * wrappers + (j - 1);
        let last = schema.index_of("next_id").is_none();
        data.get(wrapper_index)
            .map(|rows| {
                rows.iter()
                    .map(|(id, next, d)| {
                        let mut row = vec![id_value(*id)];
                        if !last {
                            row.push(id_value(*next));
                        }
                        row.push(datum(*d));
                        row
                    })
                    .collect()
            })
            .unwrap_or_default()
    })
}

fn streaming() -> ExecOptions {
    ExecOptions {
        engine: Engine::Streaming,
        ..ExecOptions::default()
    }
}

fn eager() -> ExecOptions {
    ExecOptions {
        engine: Engine::Eager,
        ..ExecOptions::default()
    }
}

fn scope_for(
    seed: usize,
    upto: usize,
    concepts: usize,
    wrappers: usize,
    system: &bdi::core::system::BdiSystem,
) -> VersionScope {
    match seed {
        0 => VersionScope::All,
        1 => VersionScope::Latest,
        2 => VersionScope::UpToRelease(upto % (concepts * wrappers)),
        _ => VersionScope::Only(
            // An arbitrary allow-list: every even-indexed release.
            system
                .release_log()
                .iter()
                .filter(|e| e.seq % 2 == 0)
                .map(|e| e.wrapper.clone())
                .collect::<BTreeSet<_>>(),
        ),
    }
}

/// Forwards the scan contract of a delegating source to the registry it
/// wraps — the streaming scan and the resume, so the differential suites
/// run the wrappers' native cursors, not an adapter over an eager scan —
/// after running `$check` on each request.
macro_rules! forward_scans {
    (|$request:ident| $check:block) => {
        fn scan_batches<'a>(
            &'a self,
            name: &str,
            $request: &ScanRequest,
            batch_rows: usize,
        ) -> Result<(BatchIter<'a>, Option<ScanMark>), RelationError> {
            $check
            self.0.scan_batches(name, $request, batch_rows)
        }

        fn resume_batches<'a>(
            &'a self,
            name: &str,
            request: &ScanRequest,
            batch_rows: usize,
            mark: &ScanMark,
        ) -> Result<Option<(BatchIter<'a>, ScanMark)>, RelationError> {
            self.0.resume_batches(name, request, batch_rows, mark)
        }
    };
}

/// A plan source over the system's registry that claims **no** filters, so
/// the semi-join pass never reduces a probe scan and every join's hash
/// probe does the filtering — the worst-capability wrapper a deployment
/// could contain.
struct NoClaims<'a>(&'a bdi_wrappers::WrapperRegistry);

impl PlanSource for NoClaims<'_> {
    forward_scans!(|request| {
        // The executor must never hand a claims-nothing source a filter.
        assert!(
            request.filters().is_empty(),
            "unclaimed filter reached the source: {request}"
        );
    });

    fn claims(&self, _source: &str, _filter: &ColumnFilter) -> bool {
        false
    }
}

impl SourceResolver for NoClaims<'_> {
    fn resolve(&self, name: &str) -> Result<Relation, RelationError> {
        self.0.resolve(name)
    }
}

/// A plan source that scans like the registry but maintains **no** sketches:
/// `stats` stays `None` and filtered scan hints vanish, so the planner falls
/// back to syntactic join order and heuristic scheduling. Answers must not
/// move.
struct NoStats<'a>(&'a bdi_wrappers::WrapperRegistry);

impl PlanSource for NoStats<'_> {
    forward_scans!(|_request| {});

    fn data_version(&self, name: &str) -> u64 {
        self.0.data_version(name)
    }

    fn claims(&self, source: &str, filter: &ColumnFilter) -> bool {
        self.0.claims(source, filter)
    }

    fn scan_hint(&self, name: &str, request: &ScanRequest) -> Option<u64> {
        // Unfiltered hints are exact row counts (part of the scheduling
        // contract); only the stats-derived filtered estimates disappear.
        if request.filters().is_empty() {
            self.0.scan_hint(name, request)
        } else {
            None
        }
    }
    // `stats` keeps the trait default: `None`.
}

impl SourceResolver for NoStats<'_> {
    fn resolve(&self, name: &str) -> Result<Relation, RelationError> {
        self.0.resolve(name)
    }
}

/// A plan source serving **adversarially distorted** sketches: every count
/// in the snapshot (and every filtered scan hint) is scaled by the factor,
/// so the planner prices plans against numbers that are wrong by orders of
/// magnitude. Misestimates may change join order or semi-join mode — never
/// rows. Unfiltered hints stay exact: they are the contract-bound row
/// counts, not estimates.
struct WrongStats<'a>(&'a bdi_wrappers::WrapperRegistry, f64);

impl PlanSource for WrongStats<'_> {
    forward_scans!(|_request| {});

    fn data_version(&self, name: &str) -> u64 {
        self.0.data_version(name)
    }

    fn claims(&self, source: &str, filter: &ColumnFilter) -> bool {
        self.0.claims(source, filter)
    }

    fn scan_hint(&self, name: &str, request: &ScanRequest) -> Option<u64> {
        let hint = self.0.scan_hint(name, request)?;
        if request.filters().is_empty() {
            Some(hint)
        } else {
            Some(((hint as f64 * self.1).round() as u64).max(1))
        }
    }

    fn stats(&self, name: &str) -> Option<std::sync::Arc<bdi::relational::TableStats>> {
        self.0
            .stats(name)
            .map(|s| std::sync::Arc::new(s.scaled(self.1)))
    }
}

impl SourceResolver for WrongStats<'_> {
    fn resolve(&self, name: &str) -> Result<Relation, RelationError> {
        self.0.resolve(name)
    }
}

/// Regression: the hash-join build side follows the sides' sizes, so a
/// push that makes the other side the smaller one flips it, and answers
/// follow the canonical sorted-order contract — both engines must emit
/// identical rows before and after the flip.
#[test]
fn filtered_join_build_side_flip_is_order_stable() {
    // w1: 2 rows joining both w2 rows via next_id=0. The tie builds on w1;
    // one more w1 row makes w2 the smaller side — different natural
    // orders, same multiset.
    let data = vec![
        vec![(Some(1), Some(0), 0u8), (Some(1), Some(0), 8)],
        vec![(Some(0), Some(0), 3), (Some(0), Some(0), 5)],
    ];
    let system = build_system(2, 1, &data);
    let w1 = system.registry().get("w_1_1").unwrap().as_table().unwrap();
    let answer = |options: ExecOptions| {
        system
            .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(options))
            .unwrap()
            .relation
    };
    for rows in [4, 6] {
        let reference = answer(eager());
        assert_eq!(reference.len(), rows); // w1 rows × 2 w2 rows
        for semijoin_max_keys in [0, usize::MAX] {
            let streamed = answer(ExecOptions {
                semijoin_max_keys,
                ..streaming()
            });
            assert_eq!(streamed.rows(), reference.rows());
        }
        w1.push(vec![Value::Int(2), Value::Int(0), datum(4)])
            .unwrap();
    }
}

/// An empty build side injects the canonical empty IN-set into the probe
/// scan, which then selects nothing: the answer is empty however the probe
/// data looks, on every engine.
#[test]
fn empty_in_set_selects_nothing() {
    let probe: Vec<RawRow> = (0..8).map(|i| (Some(i), None, 0u8)).collect();
    let system = build_system(2, 1, &[Vec::new(), probe]);
    for options in [eager(), streaming()] {
        let answer = system
            .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(options))
            .unwrap();
        assert!(answer.relation.is_empty());
    }
    assert_eq!(system.planner_stats().semijoin_insets, 1);
}

/// NaN and signed zero as join keys: interning puts `-0.0`, `0.0` and
/// `Int(0)` in one Eq class and NaN in its own, self-equal one, so the
/// key set the semi-join injects into the probe scan keeps exactly the
/// rows the eager join matches — on and off, the engines agree.
#[test]
fn nan_and_signed_zero_join_keys_agree_across_engines() {
    let build = |next: Value, d: u8| vec![Value::Int(0), next, datum(d)];
    let build_rows = vec![
        build(Value::Float(-0.0), 0),
        build(Value::Float(f64::NAN), 1),
        build(Value::Int(2), 3),
    ];
    // 16 probe rows with distinct ids: the 3 build keys promise a 4-fold
    // reduction, so the pass fires.
    let mut probe_rows = vec![
        vec![Value::Int(0), datum(4)],
        vec![Value::Float(f64::NAN), datum(5)],
        vec![Value::Float(2.0), datum(6)],
    ];
    probe_rows.extend((3..16).map(|i| vec![Value::Int(i), datum(8)]));
    let system = synthetic::build_chain_system_with(2, 1, 0, usize::MAX, |i, _, _| {
        if i == 1 {
            build_rows.clone()
        } else {
            probe_rows.clone()
        }
    });
    let answer = |options: ExecOptions| {
        system
            .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(options))
            .unwrap()
            .relation
    };
    let reference = answer(eager());
    assert_eq!(reference.len(), 3, "each build key matches one probe row");
    // Reduced first: an unreduced run would leave the probe scan warm in
    // the persistent context, and the pass stands down for a warm scan.
    for semijoin_max_keys in [usize::MAX, 0] {
        let streamed = answer(ExecOptions {
            semijoin_max_keys,
            ..streaming()
        });
        assert_eq!(streamed.rows(), reference.rows(), "{semijoin_max_keys}");
    }
    assert_eq!(system.planner_stats().semijoin_insets, 1);
}

proptest! {
    // Building whole systems per case is comparatively heavy; keep the case
    // count moderate.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streaming_engine_matches_eager_reference(
        concepts in 1usize..4,
        wrappers in 1usize..4,
        data in prop::collection::vec(prop::collection::vec(arb_raw_row(), 0..10), 1..10),
        scope_seed in 0usize..4,
        upto in 0usize..6,
    ) {
        let system = build_system(concepts, wrappers, &data);
        let scope = scope_for(scope_seed, upto, concepts, wrappers, &system);

        let request = AnswerRequest::omq(synthetic::chain_query(concepts)).scope(scope.clone());
        let reference = system.serve(request.clone().options(eager())).unwrap();
        let streamed = system.serve(request.options(streaming())).unwrap();
        // Byte-identical: same schema, same rows, same order.
        prop_assert!(
            streamed.relation.rows() == reference.relation.rows(),
            "mismatch (scope={:?}):\n streamed {:?}\n reference {:?}",
            &scope,
            streamed.relation.rows(),
            reference.relation.rows()
        );
        prop_assert!(streamed.relation.schema().same_shape(reference.relation.schema()));
        // Diagnostics are engine-independent.
        prop_assert_eq!(&streamed.walk_exprs, &reference.walk_exprs);
        prop_assert_eq!(
            streamed.rewriting.walks.len(),
            reference.rewriting.walks.len()
        );

        // The streaming batch-scan path at adversarial batch sizes —
        // one-row batches, tiny batches, one giant batch — pinned to the
        // same eager reference. Batch size is an ExecContext knob, so this goes
        // through compile/execute with an explicit context.
        let all_scope_reference = system
            .serve(AnswerRequest::omq(synthetic::chain_query(concepts)).options(eager()))
            .unwrap();
        let compiled = exec::compile_query(
            system.ontology(),
            system.registry(),
            system.rewrite(synthetic::chain_query(concepts)).unwrap(),
            &streaming(),
        )
        .unwrap();
        for batch_rows in [1usize, 3, 1 << 20] {
            let ctx = bdi::relational::ExecContext::new().with_scan_batch_rows(batch_rows);
            let streamed = exec::execute_compiled(
                system.ontology(),
                system.registry(),
                &compiled,
                Some(&ctx),
            )
            .unwrap();
            prop_assert!(
                streamed.relation.rows() == all_scope_reference.relation.rows(),
                "batch path mismatch (batch_rows={}):\n streamed {:?}\n reference {:?}",
                batch_rows,
                streamed.relation.rows(),
                all_scope_reference.relation.rows()
            );
        }
    }

    // The row-order contract, an oracle independent of the engine
    // comparison: every answer of either engine, under every scope — lone
    // walks included — and with the semi-join pass on or off, is a set in
    // canonical order, each row strictly greater than the one before.
    #[test]
    fn every_answer_is_a_sorted_set(
        concepts in 1usize..4,
        wrappers in 1usize..4,
        data in prop::collection::vec(prop::collection::vec(arb_raw_row(), 0..10), 1..10),
        upto in 0usize..6,
    ) {
        let system = build_system(concepts, wrappers, &data);
        for scope_seed in 0..4 {
            let scope = scope_for(scope_seed, upto, concepts, wrappers, &system);
            for semijoin_max_keys in [0, usize::MAX] {
                for options in [eager(), streaming()] {
                    let options = ExecOptions { semijoin_max_keys, ..options };
                    let answer = system
                        .serve(
                            AnswerRequest::omq(synthetic::chain_query(concepts))
                                .scope(scope.clone())
                                .options(options.clone()),
                        )
                        .unwrap();
                    let rows = answer.relation.rows();
                    prop_assert!(
                        rows.windows(2).all(|pair| pair[0] < pair[1]),
                        "not a sorted set ({:?}, {} walks, {:?}, semijoin {}): {:?}",
                        &scope,
                        answer.rewriting.walks.len(),
                        options.engine,
                        semijoin_max_keys,
                        rows
                    );
                }
            }
        }
    }

    // The pushdown the semi-join pass relies on: a random conjunction of
    // IN-sets over an ID column and a data column (hazard-laden value
    // domain), pushed into the native scan of every wrapper kind — tables,
    // documents, a `$limit` pipeline — yields exactly the rows the eager
    // reference `ScanRequest::apply` keeps of the full scan, at any batch
    // size, claimed or not.
    #[test]
    fn randomized_predicate_conjunctions_match_eager(
        first in prop::collection::vec(arb_raw_row(), 0..8),
        second in prop::collection::vec(arb_raw_row(), 0..8),
        docs in prop::collection::vec((arb_id(), 0u8..9), 0..8),
        id_pred in prop::option::of(arb_predicate()),
        data_pred in prop::option::of(arb_predicate()),
        batch_rows in 1usize..4,
    ) {
        let (system, _store) = append_fixture(&first, &second, &docs);
        for wrapper in system.registry().iter() {
            let names = wrapper.schema().names();
            let mut request = ScanRequest::full(wrapper.schema());
            if let Some(p) = &id_pred {
                request = request.with_predicate(names[0], p.clone());
            }
            if let Some(p) = &data_pred {
                request = request.with_predicate(names[names.len() - 1], p.clone());
            }
            let reference = request.apply(&wrapper.scan().unwrap()).unwrap();
            let (batches, _) = wrapper.scan_batches(&request, batch_rows).unwrap();
            let native: Vec<_> = batches.flat_map(|batch| batch.unwrap()).collect();
            prop_assert!(
                native == reference.rows(),
                "{} under {}:\n native {:?}\n reference {:?}",
                wrapper.name(),
                request,
                native,
                reference.rows()
            );
        }
    }

    // The semi-join sideways pass and the cursor-only scan route are pure
    // execution-time decisions: over random join shapes (multi-concept
    // chains with null keys, cross-typed numerics and duplicate rows),
    // every semijoin_max_keys × context value cap combination must
    // reproduce the eager reference byte for byte — 0 disables the pass, 1
    // exercises hint scheduling whose threshold almost never admits an
    // IN-set, 8 fires on small builds, ∞ always fires; under the default
    // cap these small scans are all cached, under a cap of 1 every one of
    // them runs cursor-only (two fixed rows per wrapper keep each scan's
    // estimate above it). The key budgets of one cap share one persistent
    // context, so cross-talk between them would surface here too.
    #[test]
    fn semijoin_and_cursor_modes_match_eager(
        concepts in 1usize..4,
        wrappers in 1usize..3,
        data in prop::collection::vec(prop::collection::vec(arb_raw_row(), 0..10), 1..10),
    ) {
        let padded: Vec<Vec<RawRow>> = (0..concepts * wrappers)
            .map(|w| {
                let mut rows = data.get(w).cloned().unwrap_or_default();
                rows.extend([(Some(0), Some(0), 0u8), (Some(1), Some(1), 1)]);
                rows
            })
            .collect();
        let system = build_system(concepts, wrappers, &padded);
        let request = AnswerRequest::omq(synthetic::chain_query(concepts));
        let reference = system.serve(request.clone().options(eager())).unwrap();
        for value_cap in [None, Some(1usize)] {
            if let Some(cap) = value_cap {
                system.set_context_value_cap(cap);
            }
            for max_keys in [0usize, 1, 8, usize::MAX] {
                let streamed = system
                    .serve(request.clone().options(ExecOptions {
                        semijoin_max_keys: max_keys,
                        ..streaming()
                    }))
                    .unwrap();
                prop_assert!(
                    streamed.relation.rows() == reference.relation.rows(),
                    "mismatch (max_keys={} value_cap={:?}):\n streamed {:?}\n reference {:?}",
                    max_keys,
                    value_cap,
                    streamed.relation.rows(),
                    reference.relation.rows()
                );
                // The path taken: cached scans without a cap in reach, none
                // at all under a cap every scan exceeds.
                let cached = system.context_stats().cached_scans;
                prop_assert!(
                    if value_cap.is_some() { cached == 0 } else { cached > 0 },
                    "max_keys={} value_cap={:?} left {} cached scans",
                    max_keys,
                    value_cap,
                    cached
                );
            }
        }
    }

    // The residue path: a source claiming no filters receives none — the
    // semi-join pass stands down and each join's hash probe does the
    // filtering — and the answer still matches the eager reference exactly,
    // as it does against the registry, which claims the key sets.
    #[test]
    fn claims_nothing_source_takes_the_residue_path(
        concepts in 2usize..4,
        wrappers in 1usize..3,
        data in prop::collection::vec(prop::collection::vec(arb_raw_row(), 0..10), 1..10),
    ) {
        let system = build_system(concepts, wrappers, &data);
        let rewriting = system.rewrite(synthetic::chain_query(concepts)).unwrap();
        let no_claims = NoClaims(system.registry());
        let reference = compile_and_execute(
            system.ontology(),
            &no_claims,
            &rewriting,
            &eager(),
        )
        .unwrap();
        for source_claims in [false, true] {
            let options = ExecOptions { semijoin_max_keys: usize::MAX, ..streaming() };
            let streamed = if source_claims {
                compile_and_execute(system.ontology(), system.registry(), &rewriting, &options)
            } else {
                compile_and_execute(system.ontology(), &no_claims, &rewriting, &options)
            }
            .unwrap();
            prop_assert!(
                streamed.relation.rows() == reference.relation.rows(),
                "mismatch (source_claims={}):\n streamed {:?}\n reference {:?}",
                source_claims,
                streamed.relation.rows(),
                reference.relation.rows()
            );
        }
    }

    // The stats-quality sweep: sketches {exact, absent, adversarially wrong
    // by 1000x either way} × semi-join key budgets {tiny (bloom-degraded),
    // small, unbounded}, over random join shapes. Statistics feed *planning only* — plans may differ under
    // every combination, but each answer must match the eager reference byte
    // for byte.
    #[test]
    fn stats_quality_never_changes_answers(
        concepts in 1usize..4,
        wrappers in 1usize..3,
        data in prop::collection::vec(prop::collection::vec(arb_raw_row(), 0..10), 1..10),
        distortion_seed in 0usize..3,
    ) {
        let system = build_system(concepts, wrappers, &data);
        let rewriting = system.rewrite(synthetic::chain_query(concepts)).unwrap();
        let reference =
            compile_and_execute(system.ontology(), system.registry(), &rewriting, &eager())
                .unwrap();
        let distortion = [0.001, 0.5, 1000.0][distortion_seed];
        let no_stats = NoStats(system.registry());
        let wrong_stats = WrongStats(system.registry(), distortion);
        for semijoin_max_keys in [1usize, 2, usize::MAX] {
            let options = ExecOptions {
                semijoin_max_keys,
                ..streaming()
            };
            let exact = compile_and_execute(
                system.ontology(), system.registry(), &rewriting, &options,
            ).unwrap();
            let absent = compile_and_execute(
                system.ontology(), &no_stats, &rewriting, &options,
            ).unwrap();
            let wrong = compile_and_execute(
                system.ontology(), &wrong_stats, &rewriting, &options,
            ).unwrap();
            for (label, answer) in
                [("exact", &exact), ("absent", &absent), ("wrong", &wrong)]
            {
                prop_assert!(
                    answer.relation.rows() == reference.relation.rows(),
                    "mismatch (stats={} distortion={} max_keys={}):\n streamed {:?}\n reference {:?}",
                    label,
                    distortion,
                    semijoin_max_keys,
                    answer.relation.rows(),
                    reference.relation.rows()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Append-aware scans: persistent context vs fresh context vs eager
// ---------------------------------------------------------------------------

/// One step of a mutation history over the append-aware fixture.
#[derive(Debug, Clone)]
enum Step {
    /// Insert one document into `c` (plain wrapper) or `l` (`$limit`).
    Doc {
        limited: bool,
        id: Option<i64>,
        datum: u8,
    },
    /// Push one row into the first or the second concept's table wrapper.
    Row { first: bool, row: RawRow },
    /// `clear` a collection and refill it — possibly past its old length.
    Refill {
        limited: bool,
        docs: Vec<(Option<i64>, u8)>,
    },
    /// No mutation: the queries repeat on warm caches.
    Requery,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let doc = || {
        (any::<bool>(), arb_id(), 0u8..9).prop_map(|(limited, id, datum)| Step::Doc {
            limited,
            id,
            datum,
        })
    };
    prop_oneof![
        // Twice: appends are the case under test.
        doc(),
        doc(),
        (any::<bool>(), arb_raw_row()).prop_map(|(first, row)| Step::Row { first, row }),
        (
            any::<bool>(),
            prop::collection::vec((arb_id(), 0u8..9), 0..8)
        )
            .prop_map(|(limited, docs)| Step::Refill { limited, docs }),
        Just(Step::Requery),
    ]
}

/// [`datum`]'s JSON image (NaN has none: that selector leaves the field
/// out, which a wrapper reads as null).
fn json_doc(id: Option<i64>, selector: u8) -> serde_json::Value {
    use serde_json::json;
    let val = match selector {
        0 => json!(2),
        1 => json!(2.0),
        2 => serde_json::Value::Null,
        3 => json!("x"),
        4 => json!(7),
        5 => json!(-0.0),
        6 => json!(0.0),
        7 => return json!({ "id": id }),
        _ => json!(0.5),
    };
    json!({ "id": id, "val": val })
}

/// A 2-concept chain whose terminal concept has three versions: the
/// chain's table wrapper `w_2_1`, a document wrapper `w_2_2` over
/// collection `c`, and a `$limit 3` document wrapper `w_2_3` over `l`.
fn append_fixture(
    first: &[RawRow],
    second: &[RawRow],
    docs: &[(Option<i64>, u8)],
) -> (bdi::core::system::BdiSystem, bdi::docstore::DocStore) {
    use bdi::docstore::{DocStore, Pipeline, Projection};
    use bdi::relational::Schema;
    use bdi::wrappers::JsonWrapper;
    use std::sync::Arc;

    let mut system = build_system(2, 1, &[first.to_vec(), second.to_vec()]);
    let store = DocStore::new();
    for collection in ["c", "l"] {
        store
            .insert_many(collection, docs.iter().map(|(id, d)| json_doc(*id, *d)))
            .unwrap();
    }
    let project = vec![
        Projection::field("id2", "id"),
        Projection::field("f2", "val"),
    ];
    for (name, collection, pipeline) in [
        ("w_2_2", "c", Pipeline::new().project(project.clone())),
        (
            "w_2_3",
            "l",
            Pipeline::new().limit(3).project(project.clone()),
        ),
    ] {
        let wrapper = JsonWrapper::new(
            name,
            format!("D_{name}"),
            Schema::from_parts(&["id2"], &["f2"]).unwrap(),
            store.clone(),
            collection,
            pipeline,
        )
        .unwrap();
        synthetic::register_extra_chain_wrapper_of(&mut system, 2, Arc::new(wrapper));
    }
    (system, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // After every step of a random history — document inserts, table
    // pushes, clear + refill, plain repeats — the pooled persistent context
    // (which upgrades its cached scans by what was appended), a fresh
    // context and the eager engine agree row for row, order included:
    // through the union of all three versions and through each version's lone walk, the `$limit`
    // one included — which must never resume.
    #[test]
    fn persistent_context_matches_fresh_and_eager_after_every_step(
        first in prop::collection::vec(arb_raw_row(), 0..8),
        second in prop::collection::vec(arb_raw_row(), 0..8),
        docs in prop::collection::vec((arb_id(), 0u8..9), 0..8),
        steps in prop::collection::vec(arb_step(), 1..8),
    ) {
        let (system, store) = append_fixture(&first, &second, &docs);
        let walk_through = |version: &str| {
            VersionScope::Only(BTreeSet::from(["w_1_1".to_owned(), version.to_owned()]))
        };
        let scopes = [
            VersionScope::All,
            walk_through("w_2_1"),
            walk_through("w_2_2"),
            walk_through("w_2_3"),
        ];
        let check = |label: &str| -> Result<(), TestCaseError> {
            for scope in &scopes {
                let answer = |options: ExecOptions| {
                    system
                        .serve(AnswerRequest::omq(synthetic::chain_query(2)).scope(scope.clone()).options(options))
                        .unwrap()
                        .relation
                };
                let reference = answer(eager());
                let fresh = answer(ExecOptions { reuse_scans: false, ..ExecOptions::default() });
                prop_assert!(
                    fresh.rows() == reference.rows(),
                    "{}: fresh context diverged from eager ({:?})",
                    label, scope
                );
                // Default options, and with the sideways pass off so every
                // probe scan goes through the cache.
                for semijoin_max_keys in [ExecOptions::default().semijoin_max_keys, 0] {
                    let persistent = answer(ExecOptions {
                        semijoin_max_keys,
                        ..ExecOptions::default()
                    });
                    prop_assert!(
                        persistent.rows() == reference.rows(),
                        "{}: persistent context diverged ({:?}, semijoin {}):\n {:?}\n {:?}",
                        label, scope, semijoin_max_keys,
                        persistent.rows(), reference.rows()
                    );
                }
            }
            Ok(())
        };
        check("initial")?;
        for (index, step) in steps.iter().enumerate() {
            let before = system.context_stats();
            match step {
                Step::Doc { limited, id, datum } => {
                    let collection = if *limited { "l" } else { "c" };
                    store.insert(collection, json_doc(*id, *datum)).unwrap();
                }
                Step::Row { first, row: (id, next, d) } => {
                    let (name, row) = if *first {
                        ("w_1_1", vec![id_value(*id), id_value(*next), datum(*d)])
                    } else {
                        ("w_2_1", vec![id_value(*id), datum(*d)])
                    };
                    let table = system.registry().get(name).unwrap().as_table().unwrap();
                    table.push(row).unwrap();
                }
                Step::Refill { limited, docs } => {
                    let collection = if *limited { "l" } else { "c" };
                    store.clear(collection);
                    store
                        .insert_many(collection, docs.iter().map(|(id, d)| json_doc(*id, *d)))
                        .unwrap();
                }
                Step::Requery => {}
            }
            check(&format!("after step {index} ({step:?})"))?;
            // The differential above is vacuous unless the cache really took
            // the path the step calls for.
            let after = system.context_stats();
            match step {
                Step::Doc { limited: false, .. } | Step::Row { .. } => prop_assert!(
                    after.resumed_scans > before.resumed_scans
                        && after.full_scans == before.full_scans,
                    "step {} ({:?}) did not resume: {:?} -> {:?}", index, step, before, after
                ),
                Step::Doc { limited: true, .. } | Step::Refill { .. } => prop_assert!(
                    after.resumed_scans == before.resumed_scans
                        && after.full_scans > before.full_scans,
                    "step {} ({:?}) did not re-read in full: {:?} -> {:?}",
                    index, step, before, after
                ),
                Step::Requery => prop_assert!(
                    (after.resumed_scans, after.full_scans)
                        == (before.resumed_scans, before.full_scans),
                    "a repeat touched a source: {:?} -> {:?}", before, after
                ),
            }
            // One entry per distinct scan, however many versions went by.
            prop_assert!(after.cached_scans <= 16, "stale versions kept: {:?}", after);
        }
    }

    // A `JsonWrapper` sketch folded over a history of inserts (asked for at
    // random points, so folds span one or many documents) and clears equals
    // a `StatsBuilder` fed the same rows from scratch, field by field.
    #[test]
    fn folded_json_sketches_equal_a_from_scratch_build(
        docs in prop::collection::vec((arb_id(), 0u8..9), 0..6),
        history in prop::collection::vec((arb_id(), 0u8..9, 0u8..8), 1..40),
    ) {
        use bdi::relational::StatsBuilder;

        let (system, store) = append_fixture(&[], &[], &docs);
        let wrapper = system.registry().get("w_2_2").unwrap();
        for (id, selector, action) in history {
            match action {
                // One history entry in eight clears first.
                0 => drop(store.clear("c")),
                _ => store.insert("c", json_doc(id, selector)).unwrap(),
            }
            // …and about half are followed by a stats request.
            if action % 2 == 1 {
                continue;
            }
            let folded = wrapper.column_stats().expect("no concurrent writer");
            let mut builder = StatsBuilder::new(wrapper.schema().names());
            for row in wrapper.scan().unwrap().rows() {
                builder.observe_row(row);
            }
            let scratch = builder.snapshot(wrapper.data_version());
            prop_assert_eq!(folded.rows(), scratch.rows());
            prop_assert_eq!(folded.data_version(), scratch.data_version());
            prop_assert_eq!(folded.columns().len(), scratch.columns().len());
            for ((name, f), (_, s)) in folded.columns().iter().zip(scratch.columns()) {
                prop_assert!(
                    f.distinct == s.distinct,
                    "column {}: folded {:?} != from scratch {:?}", name, f, s
                );
            }
        }
    }
}

/// The bloom degradation of the semi-join pass: when the build side's
/// distinct keys blow the `semijoin_max_keys` budget, a bloom filter ships
/// sideways instead of the pass silently disabling — and the IN-set path,
/// the bloom path, the disabled path and the eager reference all agree on
/// the rows.
#[test]
fn bloom_semijoin_fires_and_agrees_with_insets_and_eager() {
    // c1: 600 rows probing, 300 distinct join keys; c2: 64 distinct build
    // keys. With a key budget of 8 the IN-set is over budget (64 > 8) and
    // the bloom branch fires (64 distinct × selectivity gate 4 = 256 ≤ the
    // probe key column's 300 distinct values).
    let system = synthetic::build_chain_system_with(2, 1, 0, usize::MAX, |i, _, _| {
        if i == 1 {
            (0..600)
                .map(|r| vec![Value::Int(r), Value::Int(r % 300), Value::Float(r as f64)])
                .collect()
        } else {
            (0..64)
                .map(|r| vec![Value::Int(r), Value::Float(r as f64)])
                .collect()
        }
    });
    let reference = system
        .serve(AnswerRequest::omq(synthetic::chain_query(2)).options(eager()))
        .unwrap();
    assert!(!reference.relation.rows().is_empty());

    let bloom = system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(2)).options(ExecOptions {
                semijoin_max_keys: 8,
                ..streaming()
            }),
        )
        .unwrap();
    assert_eq!(bloom.relation.rows(), reference.relation.rows());
    assert!(
        system.planner_stats().semijoin_blooms >= 1,
        "bloom semi-join did not fire: {:?}",
        system.planner_stats()
    );

    let in_set = system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(2)).options(ExecOptions {
                semijoin_max_keys: usize::MAX,
                ..streaming()
            }),
        )
        .unwrap();
    assert_eq!(in_set.relation.rows(), reference.relation.rows());
    assert!(system.planner_stats().semijoin_insets >= 1);

    // A zero budget is no pass at all, bloom degradation included.
    let fired = system.planner_stats();
    let disabled = system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(2)).options(ExecOptions {
                semijoin_max_keys: 0,
                ..streaming()
            }),
        )
        .unwrap();
    assert_eq!(disabled.relation.rows(), reference.relation.rows());
    assert_eq!(system.planner_stats(), fired);
}

/// Cost-based join ordering: a 3-join chain in the worst syntactic order
/// (big ⋈ big first, the 2-row leaf last) is reordered to start from the
/// cheapest pair, the chosen order and its estimate surface in
/// `Answer::plan_notes`, and the rows match both the syntactic plan and the
/// eager reference.
#[test]
fn cost_based_ordering_reorders_and_reports_plan_notes() {
    let system = synthetic::build_chain_system_with(3, 1, 0, usize::MAX, |i, _, _| match i {
        // c1, c2: 200 rows each with distinct join keys (estimate 200 for
        // c1 ⋈ c2); c3: 2 rows (estimate 2 for c2 ⋈ c3) — the greedy walk
        // must seed from (c2, c3) and attach c1 last.
        1 | 2 => (0..200)
            .map(|r| vec![Value::Int(r), Value::Int(r), Value::Float(r as f64)])
            .collect(),
        _ => (0..2)
            .map(|r| vec![Value::Int(r), Value::Float(r as f64)])
            .collect(),
    });
    // A lone unfiltered walk is reordered too: every answer is a sorted
    // set, so the join order never shows in one.
    let reference = system
        .serve(AnswerRequest::omq(synthetic::chain_query(3)).options(eager()))
        .unwrap();

    let ordered = system
        .serve(AnswerRequest::omq(synthetic::chain_query(3)).options(streaming()))
        .unwrap();
    assert_eq!(ordered.relation.rows(), reference.relation.rows());
    assert_eq!(ordered.plan_notes.len(), 1);
    let note = &ordered.plan_notes[0];
    assert!(note.cost_based, "stats present: {note:?}");
    assert_eq!(note.join_order.len(), 3);
    assert_eq!(note.join_order.last().map(String::as_str), Some("w_1_1"));
    assert_ne!(note.join_order[0], "w_1_1");
    assert!(note.estimated_rows.is_some());
    assert_eq!(note.actual_rows, Some(ordered.relation.len() as u64));

    let syntactic = system
        .serve(
            AnswerRequest::omq(synthetic::chain_query(3)).options(ExecOptions {
                cost_based_joins: false,
                ..streaming()
            }),
        )
        .unwrap();
    assert_eq!(syntactic.relation.rows(), reference.relation.rows());
    let note = &syntactic.plan_notes[0];
    assert!(!note.cost_based);
    assert_eq!(note.join_order.first().map(String::as_str), Some("w_1_1"));

    let stats = system.planner_stats();
    assert!(stats.cost_based_plans >= 1, "{stats:?}");
    assert!(stats.syntactic_plans >= 1, "{stats:?}");
}

/// Mutate-then-requery: a wrapper push bumps `data_version`, the next
/// `column_stats` call serves a *fresh* sketch keyed by the new version
/// (never the stale one), and both engines see the new row.
#[test]
fn data_version_bump_refreshes_sketches() {
    use bdi::wrappers::Wrapper;
    let mut system = synthetic::build_chain_system_with(1, 1, 0, usize::MAX, |_, _, _| {
        vec![vec![Value::Int(0), Value::Float(0.0)]]
    });
    let wrapper = synthetic::register_extra_chain_wrapper_handle(
        &mut system,
        1,
        2,
        vec![vec![Value::Int(1), Value::Float(0.1)]],
    );
    let before = wrapper
        .column_stats()
        .expect("table wrappers keep sketches");
    assert_eq!(before.rows(), 1);
    assert_eq!(before.data_version(), wrapper.data_version());

    wrapper
        .push(vec![Value::Int(7), Value::Float(0.7)])
        .expect("push matches schema");
    // The refreshed sketch counts the pushed row under the bumped version.
    let after = wrapper.column_stats().expect("sketch refreshed after push");
    assert_eq!(after.rows(), 2);
    assert_eq!(after.column("id1").map(|c| c.distinct), Some(2));
    assert_eq!(after.data_version(), wrapper.data_version());
    assert_ne!(after.data_version(), before.data_version());

    // Differential requery: the new row reaches both engines identically.
    let request = || AnswerRequest::omq(synthetic::chain_query(1));
    let reference = system.serve(request().options(eager())).unwrap();
    let streamed = system.serve(request().options(streaming())).unwrap();
    assert_eq!(streamed.relation.rows(), reference.relation.rows());
    assert_eq!(streamed.relation.len(), 3);
}
