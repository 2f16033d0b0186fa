//! Hot-path performance analysis — the engine behind `cargo xtask hotpath`.
//!
//! The paper's performance model (Eq. 3–5) says the solve is
//! bandwidth-bound: every byte an inner loop spends on a fresh heap
//! allocation, a bounds check, or a lock handshake is a byte not spent
//! streaming gauge links. This pass encodes that budget as five
//! machine-checked rules over the hot crates (`solvers`, `dirac`,
//! `multigpu`, `math`; `hot-div` also covers the field accessors), built
//! on the same masked-text lexer and sub-AST program model
//! ([`crate::model`]) as the collective-ordering analysis:
//!
//! * `hot-alloc` — no allocating constructs (`Vec::new`, `vec!`,
//!   `.to_vec()`, `.collect()`, `.clone()`, `Box::new`, `format!`, ...)
//!   inside any loop body; allocation belongs in setup, reached through a
//!   workspace/scratch type.
//! * `hot-index` — the designated site-kernel modules (`blas.rs`,
//!   `su3.rs`, the dslash/clover kernels) must not iterate element-wise
//!   via `for i in 0..n { a[i] ... }`; the sanctioned forms are whole-site
//!   loads and stores through the site codec (`Precision::load_site`/
//!   `store_site`, one `N`-real run per call) and `chunks_exact` block
//!   slices, which elide bounds checks and autovectorize.
//! * `hot-lock` — no `Mutex`/`RwLock` acquisition inside a kernel loop.
//! * `scratch-reuse` — hot pack/unpack/codec entry points take `&mut`
//!   scratch buffers instead of returning freshly collected `Vec`s.
//! * `hot-div` — the site-kernel modules and the field accessors
//!   (`crates/fields/src/*_cb.rs`, `lattice/src/layout.rs`) must not
//!   divide or take a modulo by a runtime value inside a loop, nor call a
//!   layout's per-real `.index(site, n)`/`.pad_index(slot, n)` there; a
//!   site is read as the container's slice `data[N·cb..N·(cb+1)]`
//!   (`chunks_exact(N)`), `N` a compile-time constant.
//!
//! Findings use the same diagnostic format, `// quda-lint: allow(<rule>)`
//! suppressions and test-code exemptions as the other passes.

pub mod rules;

use crate::report::Diagnostic;
use crate::source::SourceFile;

/// Run every hot-path rule over a set of parsed files.
pub fn analyze(files: &[SourceFile]) -> Vec<Diagnostic> {
    let model = crate::model::Model::build(files);
    let mut out = Vec::new();
    rules::hot_alloc(&model, &mut out);
    rules::hot_index(&model, &mut out);
    rules::hot_lock(&model, &mut out);
    rules::scratch_reuse(&model, &mut out);
    rules::hot_div(&model, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    out
}

/// `(name, description)` of the hot-path rules, for `--list`.
pub fn rule_list() -> [(&'static str, &'static str); 5] {
    rules::rule_list()
}
