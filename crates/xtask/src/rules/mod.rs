//! The lint rules. Each rule is a [`Lint`] implementation scoped to the
//! part of the workspace where its invariant is load-bearing.

use crate::report::Diagnostic;
use crate::source::SourceFile;

mod ghost_sizing;
mod global_reduce;
mod half_normalization;
mod no_panic;
mod no_raw_instant;
mod safety_comment;

pub use ghost_sizing::GhostSizing;
pub use global_reduce::GlobalReduce;
pub use half_normalization::HalfNormalization;
pub use no_panic::NoPanic;
pub use no_raw_instant::NoRawInstant;
pub use safety_comment::SafetyComment;

/// A single statically-checked project invariant.
pub trait Lint {
    /// Stable rule name, used in reports and `quda-lint: allow(...)`.
    fn name(&self) -> &'static str;
    /// One-line description of the invariant.
    fn description(&self) -> &'static str;
    /// Whether the rule runs on this workspace-relative path.
    fn applies(&self, rel_path: &str) -> bool;
    /// Scan one file, pushing findings. Suppressions are handled by the
    /// caller; rules emit unconditionally via `emit`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// All rules, in reporting order.
pub fn builtin_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(NoPanic),
        Box::new(GlobalReduce),
        Box::new(HalfNormalization),
        Box::new(GhostSizing),
        Box::new(SafetyComment),
        Box::new(NoRawInstant),
    ]
}

/// Push a diagnostic at byte `offset` unless suppressed by an inline
/// `// quda-lint: allow(<rule>)` on the same or preceding line.
pub(crate) fn emit(
    file: &SourceFile,
    rule: &'static str,
    offset: usize,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let line = file.line_of(offset);
    if file.is_allowed(rule, line) {
        return;
    }
    out.push(Diagnostic {
        rule,
        path: file.rel_path.clone(),
        line,
        col: file.col_of(offset),
        message,
    });
}

/// True when `offset` falls in `#[cfg(test)]`-gated code.
pub(crate) fn in_test_code(file: &SourceFile, offset: usize) -> bool {
    file.is_test_line(file.line_of(offset))
}

/// Next non-whitespace byte at or after `from`.
pub(crate) fn next_nonspace(masked: &str, from: usize) -> Option<u8> {
    masked.as_bytes()[from..].iter().copied().find(|b| !b.is_ascii_whitespace())
}

/// Previous non-whitespace byte strictly before `at`.
pub(crate) fn prev_nonspace(masked: &str, at: usize) -> Option<u8> {
    masked.as_bytes()[..at].iter().rev().copied().find(|b| !b.is_ascii_whitespace())
}
