//! The five hot-path rules, evaluated over a [`Model`].
//!
//! All five are per-function: the [`Model`]'s flat loop list plus
//! byte-range containment is enough to ask "does this construct sit in a
//! loop body?", which is the whole question. Scope is the hot crates —
//! the ones the bandwidth model of the paper (Eq. 3–5) budgets — so a
//! `format!` in a cold CLI crate stays none of this pass's business.

use crate::model::{contains, FnInfo, Model};
use crate::report::Diagnostic;
use crate::source::SourceFile;

/// Rule names, stable for reports and `// quda-lint: allow(...)`.
pub const HOT_ALLOC: &str = "hot-alloc";
/// See [`HOT_ALLOC`].
pub const HOT_INDEX: &str = "hot-index";
/// See [`HOT_ALLOC`].
pub const HOT_LOCK: &str = "hot-lock";
/// See [`HOT_ALLOC`].
pub const SCRATCH_REUSE: &str = "scratch-reuse";
/// See [`HOT_ALLOC`].
pub const HOT_DIV: &str = "hot-div";

/// `(name, description)` of every hot-path rule, in reporting order.
pub fn rule_list() -> [(&'static str, &'static str); 5] {
    [
        (
            HOT_ALLOC,
            "no heap-allocating constructs (Vec::new, vec!, to_vec, collect, clone, Box::new, \
             format!, to_string) inside loop bodies of hot-crate code; allocate once in setup \
             and reach buffers through a workspace/scratch type",
        ),
        (
            HOT_INDEX,
            "site kernels must not iterate element-wise via `for i in 0..n { a[i] .. }`; use \
             whole-site loads and stores through the site codec or chunks_exact block slices, \
             which elide bounds checks and autovectorize",
        ),
        (
            HOT_LOCK,
            "no Mutex/RwLock acquisition inside a loop body of hot-crate code; hoist the guard \
             out of the loop or restructure so the kernel owns its data",
        ),
        (
            SCRATCH_REUSE,
            "hot pack/unpack/codec entry points must fill a &mut scratch buffer instead of \
             returning a freshly collected Vec, so steady-state iterations reuse capacity",
        ),
        (
            HOT_DIV,
            "site-kernel and field-accessor loops must not divide or take a modulo by a runtime \
             value, nor address a layout per real through `.index(site, n)`/`.pad_index(..)`; \
             read a site as the container's slice `data[N·cb..N·(cb+1)]` \
             (`chunks_exact(N)`), whose width is a compile-time constant",
        ),
    ]
}

/// The crates whose `src/` trees the rules police — the hot crates of the
/// paper's bandwidth model.
fn in_scope(rel_path: &str) -> bool {
    [
        "crates/solvers/src/",
        "crates/dirac/src/",
        "crates/multigpu/src/",
        "crates/math/src/",
        "crates/service/src/",
    ]
    .iter()
    .any(|p| rel_path.starts_with(p))
}

/// The designated element-wise kernel modules `hot-index` polices: the
/// files whose loops *are* the memory-bandwidth budget, and the per-site
/// spin algebra the Dslash and clover kernels inline (`nr.rs`, `clover.rs`).
fn is_site_kernel_file(rel_path: &str) -> bool {
    in_scope(rel_path)
        && [
            "/blas.rs",
            "/su3.rs",
            "/cpu_opt.rs",
            "/dslash.rs",
            "/clover_apply.rs",
            "/nr.rs",
            "/clover.rs",
        ]
        .iter()
        .any(|f| rel_path.ends_with(f))
}

/// The field accessors `hot-div` polices beside the site kernels: the
/// device field containers of `quda-fields` (`spinor_cb.rs`, `gauge_cb.rs`,
/// `clover_cb.rs`), whose site accessors every kernel calls once per
/// site, and the Eq. 5 layout of the device model. Gauge generation and host-side fields in the same
/// crate run at setup only and stay out of scope.
fn is_accessor_file(rel_path: &str) -> bool {
    (rel_path.starts_with("crates/fields/src/") && rel_path.ends_with("_cb.rs"))
        || rel_path == "crates/lattice/src/layout.rs"
}

/// Emit unless the site is test code or suppressed.
fn report(
    file: &SourceFile,
    rule: &'static str,
    offset: usize,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    if file.is_test_code(offset) {
        return;
    }
    crate::rules::emit(file, rule, offset, message, out);
}

/// Is `offset` inside the body of any loop of `f`?
fn in_loop(f: &FnInfo, offset: usize) -> bool {
    f.loops.iter().any(|l| contains(l.body_range, offset))
}

/// Allocating constructs `hot-alloc` hunts for. Each entry is
/// `(needle, word_start)`: `word_start` needles must begin at an
/// identifier boundary (`Vec::new` must not match `MyVec::new`'s tail);
/// needles starting with `.` anchor themselves.
const ALLOC_NEEDLES: &[(&str, bool)] = &[
    ("Vec::new", true),
    ("Vec::with_capacity", true),
    ("vec!", true),
    ("Box::new", true),
    ("String::new", true),
    ("String::with_capacity", true),
    ("format!", true),
    (".to_vec()", false),
    (".to_string()", false),
    (".to_owned()", false),
    (".clone()", false),
    (".collect()", false),
    (".collect::<", false),
];

/// Rule `hot-alloc`: an allocating construct inside any loop body of a
/// hot-crate function. The flat loop list makes nesting irrelevant — the
/// construct is scanned once per function and tested for containment in
/// any loop, so nested loops yield one finding, not one per level.
pub fn hot_alloc(model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        let file = &model.files[f.file];
        if !in_scope(&file.rel_path) || f.loops.is_empty() {
            continue;
        }
        let body = &file.masked[f.body.0..f.body.1];
        for &(needle, word_start) in ALLOC_NEEDLES {
            let mut from = 0;
            while let Some(pos) = body[from..].find(needle) {
                let at = f.body.0 + from + pos;
                from += pos + needle.len();
                if word_start && at > 0 && is_ident_byte(file.masked.as_bytes()[at - 1]) {
                    continue;
                }
                if !in_loop(f, at) {
                    continue;
                }
                report(
                    file,
                    HOT_ALLOC,
                    at,
                    format!(
                        "`{}` allocates inside a loop body in a hot crate; allocate in setup \
                         and thread the buffer through a workspace/scratch type",
                        needle.trim_start_matches('.').trim_end_matches("::<"),
                    ),
                    out,
                );
            }
        }
    }
}

/// Parse a `for` header as an element-wise counted range: returns the
/// loop variable when the header reads `<ident> in 0..<bound>` (or
/// `0..=<bound>`) with a *runtime* bound. Literal bounds (`for d in 0..4`)
/// are fixed-extent color/spin/dimension loops the compiler fully
/// unrolls — not element-wise site iteration.
fn counted_range_var(header: &str) -> Option<&str> {
    let t = header.trim();
    let (var, range) = t.split_once(" in ")?;
    let var = var.trim();
    if var.is_empty() || !var.bytes().all(is_ident_byte) {
        return None;
    }
    let range = range.trim();
    let bound = range.strip_prefix("0..")?.trim_start_matches('=').trim();
    if !bound.is_empty() && bound.bytes().all(|b| b.is_ascii_digit() || b == b'_') {
        return None;
    }
    Some(var)
}

/// Does the loop body index element-wise with `var`: `a[var]`,
/// `.get(var)` or `.set(var, ..)`? The delimiters in each pattern pin the
/// identifier on both sides, so plain substring search is boundary-exact.
fn body_indexes_with(body: &str, var: &str) -> bool {
    [format!("[{var}]"), format!(".get({var})"), format!(".set({var},")]
        .iter()
        .any(|pat| body.contains(pat.as_str()))
}

/// Rule `hot-index`: an element-wise counted loop that indexes with its
/// counter, inside one of the designated site-kernel files. One finding
/// per loop, anchored at the loop keyword.
pub fn hot_index(model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        let file = &model.files[f.file];
        if !is_site_kernel_file(&file.rel_path) {
            continue;
        }
        for l in &f.loops {
            let Some(var) = counted_range_var(&l.header) else {
                continue;
            };
            let body = &file.masked[l.body_range.0..l.body_range.1];
            if body_indexes_with(body, var) {
                report(
                    file,
                    HOT_INDEX,
                    l.offset,
                    format!(
                        "element-wise indexed loop `for {} in {}` in a site-kernel module; \
                         rewrite with whole-site codec loads/stores or chunks_exact block slices \
                         so bounds checks vanish and the loop autovectorizes",
                        var,
                        l.header.trim().split_once(" in ").map_or("0..n", |(_, r)| r.trim()),
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule `hot-lock`: a `Mutex`/`RwLock` acquisition inside a loop body.
/// `.lock()` always counts; `.read()`/`.write()` count only with zero
/// arguments (the `RwLock` guard shape — `io::Read`/`io::Write` calls
/// take a buffer).
pub fn hot_lock(model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        let file = &model.files[f.file];
        if !in_scope(&file.rel_path) {
            continue;
        }
        for c in &f.calls {
            if !c.is_method || !in_loop(f, c.offset) {
                continue;
            }
            let is_lock = c.callee == "lock"
                || ((c.callee == "read" || c.callee == "write") && c.args.is_empty());
            if is_lock {
                report(
                    file,
                    HOT_LOCK,
                    c.offset,
                    format!(
                        "`.{}()` acquires a lock inside a loop body in a hot crate; hoist the \
                         guard above the loop or restructure so the kernel owns its data",
                        c.callee
                    ),
                    out,
                );
            }
        }
    }
}

/// Entry-point name prefixes `scratch-reuse` treats as hot codec/gather
/// functions: the ghost pack/unpack surface of the multi-GPU exchange.
const SCRATCH_PREFIXES: &[&str] = &["encode", "decode", "gather", "scatter", "pack", "unpack"];

/// Rule `scratch-reuse`: a hot codec/gather entry point whose signature
/// returns a fresh `Vec` instead of filling a caller-owned buffer.
pub fn scratch_reuse(model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        let file = &model.files[f.file];
        if !in_scope(&file.rel_path) {
            continue;
        }
        if !SCRATCH_PREFIXES.iter().any(|p| f.name.starts_with(p)) {
            continue;
        }
        let sig: String =
            file.masked[f.name_offset..f.body.0].chars().filter(|c| !c.is_whitespace()).collect();
        // Only the return type matters: arguments of type Vec are fine.
        let Some(ret) = sig.split_once("->").map(|(_, r)| r) else {
            continue;
        };
        // `Result<Vec<..>, E>` counts too: the Ok payload is still a fresh
        // allocation per call on the steady-state path.
        if ret.starts_with("Vec<")
            || ret.contains("(Vec<")
            || ret.contains(",Vec<")
            || ret.contains("<Vec<")
        {
            report(
                file,
                SCRATCH_REUSE,
                f.name_offset,
                format!(
                    "hot entry point `{}` returns a freshly allocated Vec; take a `&mut` \
                     scratch buffer (cleared and refilled in place) so steady-state calls \
                     reuse capacity",
                    f.name
                ),
                out,
            );
        }
    }
}

/// Type suffixes of an integer literal (`8usize`, `0x10u32`).
const INT_SUFFIXES: [&str; 12] =
    ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// Is the right operand starting at `at` a compile-time divisor: an integer
/// literal (`4`, `0x10`, `8usize`) or an ALL_CAPS constant path
/// (`NV`, `HALF_SPINOR_REALS`, `P::STORAGE_BYTES`)? A float literal,
/// a binding, a field or a parenthesised expression is not.
fn is_const_divisor(masked: &str, at: usize) -> bool {
    let bytes = masked.as_bytes();
    let mut i = at;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < bytes.len() && (is_ident_byte(bytes[i]) || bytes[i] == b':') {
        i += 1;
    }
    let token = &masked[start..i];
    let Some(&first) = token.as_bytes().first() else {
        return false;
    };
    if first.is_ascii_digit() {
        let float = bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
        let digits = token.strip_prefix("0x").map_or_else(
            || token.trim_end_matches(|c: char| !c.is_ascii_digit() && c != '_').len(),
            |hex| 2 + hex.trim_end_matches(|c: char| !c.is_ascii_hexdigit() && c != '_').len(),
        );
        let suffix = &token[digits..];
        return !float && (suffix.is_empty() || INT_SUFFIXES.contains(&suffix));
    }
    let last = token.rsplit("::").next().unwrap_or(token);
    last.as_bytes().first().is_some_and(u8::is_ascii_uppercase)
        && last.bytes().all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// Rule `hot-div`: inside a loop body of a site-kernel or field-accessor
/// file, a `/` or `%` (or `/=`, `%=`) whose right operand is not a
/// compile-time divisor, and any two-argument `.index(..)`/`.pad_index(..)`
/// method call — the per-real Eq. 5 address, which divides by the
/// layout's runtime `n_vec`. One finding per operator or call.
pub fn hot_div(model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        let file = &model.files[f.file];
        let rel = &file.rel_path;
        if !(is_site_kernel_file(rel) || is_accessor_file(rel)) || f.loops.is_empty() {
            continue;
        }
        let bytes = file.masked.as_bytes();
        for at in f.body.0..f.body.1 {
            let op = bytes[at];
            if !(op == b'/' || op == b'%') || !in_loop(f, at) {
                continue;
            }
            let rhs = if bytes.get(at + 1) == Some(&b'=') { at + 2 } else { at + 1 };
            if is_const_divisor(&file.masked, rhs) {
                continue;
            }
            report(
                file,
                HOT_DIV,
                at,
                format!(
                    "`{}` by a runtime value inside a loop of a site-kernel/accessor module; \
                     hoist it out of the loop or make the divisor a compile-time constant",
                    op as char
                ),
                out,
            );
        }
        for c in &f.calls {
            let eq5 = c.callee == "index" || c.callee == "pad_index";
            if c.is_method && eq5 && c.args.len() == 2 && in_loop(f, c.offset) {
                report(
                    file,
                    HOT_DIV,
                    c.offset,
                    format!(
                        "`.{}(..)` computes an Eq. 5 address per real inside a loop (a divide \
                         and a modulo by the runtime n_vec each); read the site as the \
                         container's slice data[N·cb..N·(cb+1)]",
                        c.callee
                    ),
                    out,
                );
            }
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}
