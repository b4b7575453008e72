//! The analyze driver: file discovery, lint dispatch, escape-comment
//! suppression, text/JSON reporting, and the `--self-test` harness that
//! asserts every lint still flags its bad fixture.

use crate::lexer::{self, Escape, Lexed};
use crate::lints::{self, deadline, durability, lock_hold, Diagnostic};
use serde_json::json;
use std::collections::BTreeMap;
use std::path::Path;

/// Files the `deadline` lint covers, with the functions whose loops must
/// stay cancellable: the operator pull path, the plan driver's entry
/// point (`execute_plan`), the one loop that interns a source's batches
/// (`InternedBatches::next`) with the scan-cache fill that drains it, a
/// query's per-walk pull loop (`walk_sorted_run`), and the pager producer
/// and consumer.
const DEADLINE_TARGETS: &[(&str, &[&str])] = &[
    ("crates/relational/src/plan/operator.rs", &["next_batch"]),
    (
        "crates/relational/src/plan/context.rs",
        &["next", "collect_scan"],
    ),
    ("crates/relational/src/plan/driver.rs", &["execute_plan"]),
    ("crates/core/src/exec.rs", &["walk_sorted_run"]),
    (
        "crates/wrappers/src/remote.rs",
        &["run", "fetch_page_with_retry", "next"],
    ),
];

/// Functions a call to which is deadline evidence for the loop making it.
/// Each must also be a registered target above, so the lint itself proves
/// its loops check. `next` is not eligible: every iterator has one.
const CHECKING_CALLS: &[&str] = &["next_batch", "collect_scan"];

/// Directories whose sources the `lock_hold` lint walks.
const LOCK_HOLD_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/relational/src",
    "crates/wrappers/src",
    "crates/docstore/src",
    "crates/server/src",
];

/// The write path, and the entry points the `durability` lint holds to the
/// WAL-append-before-apply contract: `BdiSystem::apply` and the
/// `DurableSystem` shim's three writes, each of which must reach it.
const DURABLE_RS: &str = "crates/core/src/durable.rs";
const DURABLE_ENTRY_POINTS: &[&str] = &["apply", "insert_doc", "insert_docs", "push_row"];

/// A full analysis run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving (unsuppressed) diagnostics, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Escapes that suppressed a diagnostic, with their reasons.
    pub escapes_used: Vec<(String, Escape)>,
    /// Files scanned (for the JSON report).
    pub files_scanned: usize,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable rendering: one `file:line: [lint] message` per
    /// diagnostic, then the escape tally.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&diag.to_string());
            out.push('\n');
        }
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for diag in &self.diagnostics {
            *counts.entry(diag.lint).or_default() += 1;
        }
        if !counts.is_empty() {
            let summary: Vec<String> = counts.iter().map(|(l, n)| format!("{l}: {n}")).collect();
            out.push_str(&format!("analyze: FAILED ({})\n", summary.join(", ")));
        } else {
            out.push_str(&format!(
                "analyze: ok — {} files scanned, {} escape(s) in use\n",
                self.files_scanned,
                self.escapes_used.len()
            ));
        }
        if !self.escapes_used.is_empty() {
            out.push_str("escapes in use:\n");
            for (file, escape) in &self.escapes_used {
                out.push_str(&format!(
                    "  {}:{}: allow({}) — {}\n",
                    file, escape.line, escape.lint, escape.reason
                ));
            }
        }
        out
    }

    /// Machine-readable rendering for CI artifacts.
    pub fn render_json(&self) -> String {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for diag in &self.diagnostics {
            *counts.entry(diag.lint).or_default() += 1;
        }
        json!({
            "ok": (self.ok()),
            "files_scanned": (self.files_scanned),
            "diagnostics": (self.diagnostics.iter().map(|d| json!({
                "file": (d.file.clone()),
                "line": (d.line),
                "lint": (d.lint),
                "message": (d.message.clone()),
            })).collect::<Vec<_>>()),
            "counts": (counts.iter().map(|(l, n)| ((*l).to_owned(), json!(n))).collect::<BTreeMap<String, serde_json::Value>>()),
            "escapes_used": (self.escapes_used.iter().map(|(file, e)| json!({
                "file": (file.clone()),
                "line": (e.line),
                "lint": (e.lint.clone()),
                "reason": (e.reason.clone()),
            })).collect::<Vec<_>>()),
        })
        .to_string()
    }
}

/// Runs every lint over the tree rooted at `root`. IO errors on required
/// files surface as diagnostics (an unreadable contract file must fail the
/// build, not skip the check).
pub fn analyze(root: &Path) -> Report {
    let mut files: BTreeMap<String, (String, Lexed)> = BTreeMap::new();
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Discover and lex every file any lint wants, keyed by root-relative
    // path with `/` separators.
    let mut wanted: Vec<String> = Vec::new();
    for dir in LOCK_HOLD_DIRS {
        wanted.extend(rust_files_under(&root.join(dir), root));
    }
    for (file, _) in DEADLINE_TARGETS {
        wanted.push((*file).to_owned());
    }
    wanted.sort();
    wanted.dedup();
    for rel in &wanted {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => {
                let lexed = lexer::lex(&src);
                files.insert(rel.clone(), (src, lexed));
            }
            Err(e) => diags.push(Diagnostic::new(
                rel,
                1,
                lints::ESCAPE,
                format!("cannot read required file: {e}"),
            )),
        }
    }

    // deadline over the registered operator/pager functions; a checking
    // call that is not itself registered would be evidence nobody checks.
    for call in CHECKING_CALLS {
        if !DEADLINE_TARGETS.iter().any(|(_, fns)| fns.contains(call)) {
            diags.push(Diagnostic::new(
                "xtask/src/driver.rs",
                1,
                lints::DEADLINE,
                format!("checking call `{call}` is not a registered deadline target"),
            ));
        }
    }
    for (rel, fn_names) in DEADLINE_TARGETS {
        if let Some((_, lexed)) = files.get(*rel) {
            diags.extend(deadline::check(rel, lexed, fn_names, CHECKING_CALLS));
        }
    }

    // durability over the write path and its entry points. The file
    // is in the lock_hold walk already; an unreadable copy was reported
    // above, but a *missing* one must fail here — losing the durable tier
    // silently would retire the contract with it.
    match files.get(DURABLE_RS) {
        Some((_, lexed)) => {
            diags.extend(durability::check(DURABLE_RS, lexed, DURABLE_ENTRY_POINTS));
        }
        None => diags.push(Diagnostic::new(
            DURABLE_RS,
            1,
            lints::DURABILITY,
            "the durable tier's source is missing; the WAL-append-before-apply \
             contract has nothing to check",
        )),
    }

    // lock_hold over every lock-bearing crate.
    for (rel, (_, lexed)) in &files {
        diags.extend(lock_hold::check(rel, lexed));
    }

    // Escape suppression, per file.
    let escapes_by_file: BTreeMap<String, Vec<Escape>> = files
        .iter()
        .map(|(rel, (_, lexed))| (rel.clone(), lexer::escapes(&lexed.comments)))
        .collect();
    let (diagnostics, escapes_used) = suppress(diags, &escapes_by_file);

    let mut report = Report {
        diagnostics,
        escapes_used,
        files_scanned: files.len(),
    };
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Applies escape comments to raw diagnostics: an
/// `// analyze: allow(lint, reason)` on the same line as — or the line
/// directly above — a diagnostic of that lint suppresses it. Malformed
/// escapes (no reason), unknown lint names, and stale escapes (matching
/// nothing) become diagnostics themselves, so the escape inventory can
/// only shrink deliberately.
pub fn suppress(
    raw: Vec<Diagnostic>,
    escapes_by_file: &BTreeMap<String, Vec<Escape>>,
) -> (Vec<Diagnostic>, Vec<(String, Escape)>) {
    let mut kept: Vec<Diagnostic> = Vec::new();
    let mut used: Vec<(String, Escape)> = Vec::new();
    let mut used_keys: Vec<(String, u32)> = Vec::new();
    for diag in raw {
        let escape = escapes_by_file.get(&diag.file).and_then(|escapes| {
            escapes.iter().find(|e| {
                e.lint == diag.lint
                    && !e.reason.is_empty()
                    && (e.line == diag.line || e.line + 1 == diag.line)
            })
        });
        match escape {
            Some(escape) => {
                let key = (diag.file.clone(), escape.line);
                if !used_keys.contains(&key) {
                    used_keys.push(key);
                    used.push((diag.file.clone(), escape.clone()));
                }
            }
            None => kept.push(diag),
        }
    }
    for (file, escapes) in escapes_by_file {
        for escape in escapes {
            let was_used = used_keys.contains(&(file.clone(), escape.line));
            if escape.lint.is_empty() || escape.reason.is_empty() {
                kept.push(Diagnostic::new(
                    file,
                    escape.line,
                    lints::ESCAPE,
                    "malformed escape: write `// analyze: allow(<lint>, <reason>)` — \
                     the reason is required",
                ));
            } else if !lints::ALL_LINTS.contains(&escape.lint.as_str()) {
                kept.push(Diagnostic::new(
                    file,
                    escape.line,
                    lints::ESCAPE,
                    format!(
                        "escape names unknown lint `{}` (known: {})",
                        escape.lint,
                        lints::ALL_LINTS.join(", ")
                    ),
                ));
            } else if !was_used {
                kept.push(Diagnostic::new(
                    file,
                    escape.line,
                    lints::ESCAPE,
                    format!(
                        "stale escape: allow({}) suppresses nothing on this or the next line — \
                         remove it",
                        escape.lint
                    ),
                ));
            }
        }
    }
    (kept, used)
}

/// Recursively lists `.rs` files under `dir` as root-relative `/`-joined
/// strings. Missing directories yield nothing (the caller's file set is
/// validated elsewhere).
fn rust_files_under(dir: &Path, root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&current) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel_string(rel));
                }
            }
        }
    }
    out.sort();
    out
}

fn rel_string(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// `--self-test`: every lint must flag its bad fixture (with its own lint
/// name) and pass its good fixture — a silently broken lint fails the
/// build. Returns the failures, empty on success.
pub fn self_test() -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |lint: &str, diags: Vec<Diagnostic>, want_bad: bool| {
        if want_bad {
            if diags.is_empty() {
                failures.push(format!("{lint}: bad fixture produced no diagnostics"));
            } else if !diags.iter().all(|d| d.lint == lint) {
                failures.push(format!(
                    "{lint}: bad fixture produced foreign diagnostics: {diags:?}"
                ));
            }
        } else if !diags.is_empty() {
            failures.push(format!("{lint}: good fixture flagged: {diags:?}"));
        }
    };

    let bad = lexer::lex(include_str!("../fixtures/deadline_bad.rs"));
    let good = lexer::lex(include_str!("../fixtures/deadline_good.rs"));
    // Only functions the bad fixture has: an unmatched name is a diagnostic
    // of its own and would flag the fixture whatever its loops look like.
    expect(
        lints::DEADLINE,
        deadline::check("fixture", &bad, &["next_batch", "run"], &[]),
        true,
    );
    expect(
        lints::DEADLINE,
        deadline::check(
            "fixture",
            &good,
            &["next_batch", "run", "collect_scan"],
            &[],
        ),
        false,
    );
    // A loop whose one piece of evidence is a call: to a listed checking
    // function it passes, to an unlisted helper it fails.
    let bad = lexer::lex(include_str!("../fixtures/deadline_call_bad.rs"));
    let good = lexer::lex(include_str!("../fixtures/deadline_call_good.rs"));
    expect(
        lints::DEADLINE,
        deadline::check("fixture", &bad, &["drain"], CHECKING_CALLS),
        true,
    );
    expect(
        lints::DEADLINE,
        deadline::check("fixture", &good, &["drain"], CHECKING_CALLS),
        false,
    );

    let bad = lexer::lex(include_str!("../fixtures/durability_bad.rs"));
    let good = lexer::lex(include_str!("../fixtures/durability_good.rs"));
    let entry_points = ["apply", "insert_doc", "insert_docs", "push_row"];
    expect(
        lints::DURABILITY,
        durability::check("fixture", &bad, &entry_points),
        true,
    );
    expect(
        lints::DURABILITY,
        durability::check("fixture", &good, &entry_points),
        false,
    );

    let bad = lexer::lex(include_str!("../fixtures/lock_hold_bad.rs"));
    let good = lexer::lex(include_str!("../fixtures/lock_hold_good.rs"));
    expect(lints::LOCK_HOLD, lock_hold::check("fixture", &bad), true);
    expect(lints::LOCK_HOLD, lock_hold::check("fixture", &good), false);

    // The escape mechanism itself: a reasoned allow suppresses, a stale or
    // reasonless one is reported.
    let escaped_src = "fn run(n: u32) {\n    // analyze: allow(deadline, n is bounded by the caller)\n    for _ in 0..n {\n        step();\n    }\n}\n";
    let lexed = lexer::lex(escaped_src);
    let raw = deadline::check("fixture", &lexed, &["run"], &[]);
    let escapes: BTreeMap<String, Vec<Escape>> =
        [("fixture".to_owned(), lexer::escapes(&lexed.comments))].into();
    let (kept, used) = suppress(raw, &escapes);
    if !kept.is_empty() || used.len() != 1 {
        failures.push(format!(
            "escape: reasoned allow failed to suppress (kept={kept:?}, used={used:?})"
        ));
    }
    let stale_src = "// analyze: allow(deadline, nothing here to suppress)\nfn g() {}\n";
    let lexed = lexer::lex(stale_src);
    let escapes: BTreeMap<String, Vec<Escape>> =
        [("fixture".to_owned(), lexer::escapes(&lexed.comments))].into();
    let (kept, _) = suppress(Vec::new(), &escapes);
    if !kept.iter().any(|d| d.message.contains("stale escape")) {
        failures.push("escape: stale allow was not reported".to_owned());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        let failures = self_test();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn suppression_requires_matching_lint_and_adjacency() {
        let escapes: BTreeMap<String, Vec<Escape>> = [(
            "f".to_owned(),
            vec![Escape {
                line: 10,
                lint: "lock_hold".to_owned(),
                reason: "why".to_owned(),
            }],
        )]
        .into();
        let raw = vec![
            Diagnostic::new("f", 11, lints::LOCK_HOLD, "adjacent"),
            Diagnostic::new("f", 13, lints::LOCK_HOLD, "too far"),
            Diagnostic::new("f", 11, lints::DEADLINE, "wrong lint"),
        ];
        let (kept, used) = suppress(raw, &escapes);
        assert_eq!(used.len(), 1);
        let kept_msgs: Vec<&str> = kept.iter().map(|d| d.message.as_str()).collect();
        assert!(kept_msgs.contains(&"too far"));
        assert!(kept_msgs.contains(&"wrong lint"));
        assert!(!kept_msgs.contains(&"adjacent"));
    }
}
