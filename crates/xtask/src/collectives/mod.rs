//! Flow-sensitive, interprocedural collective-ordering analysis — the
//! engine behind `cargo xtask collectives`.
//!
//! The lexical lints catch per-line style hazards; this pass catches the
//! cross-rank ones: a collective that only some ranks reach is not a bug
//! you can debug at runtime, it is a silent deadlock of the whole world
//! (the lockstep sanitizer in `quda-comm` catches it *at* runtime; this
//! pass catches it before the code ever runs). The analysis:
//!
//! 1. extracts every function from the masked token view into a flat
//!    model of call sites, branches and loops ([`model`]),
//! 2. classifies calls into collective kinds — `allreduce_*`, `barrier`
//!    and the solver-layer `reduce` are *symmetric* (every rank
//!    must issue them), `send`/`recv` are *paired*,
//! 3. closes over the call graph so wrappers of collectives count as
//!    collective sites at their callers,
//! 4. propagates rank-taint from `self.rank`-style expressions through
//!    simple `let` bindings, and
//! 5. runs four rules ([`rules`]): `rank-branch-collective`,
//!    `rank-loop-collective`, `tag-pairing`, `tag-namespace`.
//!
//! Findings use the same diagnostic format, `// quda-lint: allow(<rule>)`
//! suppressions and test-code exemptions as the lexical lints.

pub use crate::model;

pub mod rules;

use crate::report::Diagnostic;
use crate::source::SourceFile;

/// Run every collective rule over a set of parsed files.
pub fn analyze(files: &[SourceFile]) -> Vec<Diagnostic> {
    let model = model::Model::build(files);
    let mut out = Vec::new();
    rules::rank_branch_collective(&model, &mut out);
    rules::rank_loop_collective(&model, &mut out);
    rules::tag_pairing(&model, &mut out);
    rules::tag_namespace(&model, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    out
}

/// `(name, description)` of the collective rules, for `--list`.
pub fn rule_list() -> [(&'static str, &'static str); 4] {
    rules::rule_list()
}
