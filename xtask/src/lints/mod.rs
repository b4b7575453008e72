//! The lint registry: each lint is a pure function from lexed source to
//! diagnostics, so every one unit-tests against its fixture pair and the
//! driver composes them over the real tree.

pub mod deadline;
pub mod durability;
pub mod lock_hold;

/// Lint names, as they appear in diagnostics and escape comments.
pub const LOCK_HOLD: &str = "lock_hold";
pub const DEADLINE: &str = "deadline";
pub const DURABILITY: &str = "durability";
/// Meta-lint for the escape mechanism itself (malformed/unknown/stale
/// `// analyze: allow(...)` comments). Not escapable.
pub const ESCAPE: &str = "escape";

/// Every escapable lint (what an `allow(...)` may name).
pub const ALL_LINTS: &[&str] = &[LOCK_HOLD, DEADLINE, DURABILITY];

/// One finding: `file:line: [lint] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
}

impl Diagnostic {
    pub fn new(file: &str, line: u32, lint: &'static str, message: impl Into<String>) -> Self {
        Self {
            file: file.to_owned(),
            line,
            lint,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}
