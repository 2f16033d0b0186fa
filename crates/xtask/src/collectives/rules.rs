//! The four collective-ordering rules, evaluated over a [`Model`].
//!
//! Unlike the per-file lexical lints, these rules see the whole workspace
//! at once: the call-graph closure decides what counts as a collective
//! site, and tag pairing matches `send`s against `recv`s across files.
//! Diagnostics are only *emitted* for non-test code in the communication
//! hot paths (`crates/{comm,multigpu,solvers,core}/src`), but evidence —
//! a pairing `recv`, a callee definition — may live anywhere scanned.

use crate::model::{
    contains, is_int_literal, is_recv_site, is_registry_tag, is_send_site, resolve_tag, BranchInfo,
    Model,
};
use crate::report::Diagnostic;
use crate::source::{find_word, SourceFile};
use std::collections::{HashMap, HashSet};

/// Rule names, stable for reports and `// quda-lint: allow(...)`.
pub const RANK_BRANCH: &str = "rank-branch-collective";
/// See [`RANK_BRANCH`].
pub const RANK_LOOP: &str = "rank-loop-collective";
/// See [`RANK_BRANCH`].
pub const TAG_PAIRING: &str = "tag-pairing";
/// See [`RANK_BRANCH`].
pub const TAG_NAMESPACE: &str = "tag-namespace";

/// `(name, description)` of every collective rule, in reporting order.
pub fn rule_list() -> [(&'static str, &'static str); 4] {
    [
        (
            RANK_BRANCH,
            "symmetric collectives must be reached by every rank: a collective under a \
             rank-dependent branch with no matching collective on the other path hangs the world",
        ),
        (
            RANK_LOOP,
            "collectives inside a loop whose trip count depends on the rank desynchronize the \
             per-rank collective sequence",
        ),
        (
            TAG_PAIRING,
            "every send tag from the registry needs a matching recv somewhere (and vice versa); \
             an unpaired tag is a message no one will ever receive",
        ),
        (
            TAG_NAMESPACE,
            "message tags live in comm::tags: no tag constants outside the registry, no raw \
             integer tags at call sites, no value collisions inside the registry",
        ),
    ]
}

/// The crates whose `src/` trees the rules police.
fn in_scope(rel_path: &str) -> bool {
    ["crates/comm/src/", "crates/multigpu/src/", "crates/solvers/src/", "crates/core/src/"]
        .iter()
        .any(|p| rel_path.starts_with(p))
}

/// The one file allowed to define tag constants.
const TAG_REGISTRY: &str = "crates/comm/src/tags.rs";

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

/// Is the site at `offset` in `file` admissible as pairing evidence /
/// subject to emission? Test code is neither.
fn live_code(file: &SourceFile, offset: usize) -> bool {
    !file.is_test_code(offset)
}

/// Condensed condition text for messages.
fn short(text: &str) -> String {
    let squished = text.split_whitespace().collect::<Vec<_>>().join(" ");
    if squished.len() > 48 {
        format!("{}...", &squished[..45])
    } else {
        squished
    }
}

/// The end offset of a whole `if`/`else` construct.
fn branch_end(b: &BranchInfo) -> usize {
    b.else_range.map_or(b.then_range.1, |r| r.1.max(b.then_range.1))
}

/// Does the masked range contain `word` at an identifier boundary?
fn range_has_word(file: &SourceFile, range: (usize, usize), word: &str) -> bool {
    find_word(&file.masked[range.0..range.1], word, 0).is_some()
}

/// Rule `rank-branch-collective`: a symmetric collective reachable only
/// under rank-dependent control flow, either directly (inside a tainted
/// branch arm whose sibling issues no collective) or via an earlier
/// rank-dependent early return that only some ranks take.
pub fn rank_branch_collective(model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        let file = &model.files[f.file];
        if !in_scope(&file.rel_path) {
            continue;
        }
        for c in &f.calls {
            if !model.is_symmetric_site(f, c) {
                continue;
            }
            if let Some((b, in_then)) = f.innermost_tainted_branch(c.offset) {
                let sibling = if in_then { b.else_range } else { Some(b.then_range) };
                let matched = sibling.is_some_and(|r| {
                    f.calls.iter().any(|o| {
                        o.offset != c.offset
                            && contains(r, o.offset)
                            && model.is_symmetric_site(f, o)
                    })
                });
                if !matched {
                    let tail = if sibling.is_some() {
                        "the other branch issues no matching collective, so the ranks that \
                         take it desynchronize"
                    } else {
                        "ranks that skip the branch never issue it, and the world hangs at \
                         the next collective"
                    };
                    report(
                        file,
                        RANK_BRANCH,
                        c.offset,
                        format!(
                            "symmetric collective `{}` is only reached under the \
                             rank-dependent condition `{}`; {tail}",
                            c.callee,
                            short(&b.cond),
                        ),
                        out,
                    );
                }
            } else if let Some(b) = f.branches.iter().find(|b| {
                f.expr_tainted(&b.cond) && branch_end(b) <= c.offset && {
                    let then_returns = range_has_word(file, b.then_range, "return");
                    let else_returns =
                        b.else_range.is_some_and(|r| range_has_word(file, r, "return"));
                    then_returns != else_returns
                }
            }) {
                report(
                    file,
                    RANK_BRANCH,
                    c.offset,
                    format!(
                        "symmetric collective `{}` is unreachable for ranks that return early \
                         under the rank-dependent condition `{}` (line {}); the remaining \
                         ranks hang here",
                        c.callee,
                        short(&b.cond),
                        file.line_of(b.offset),
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule `rank-loop-collective`: any collective (symmetric or paired)
/// inside a loop whose header mentions the rank — different ranks run a
/// different number of iterations and disagree on the collective count.
pub fn rank_loop_collective(model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        let file = &model.files[f.file];
        if !in_scope(&file.rel_path) {
            continue;
        }
        for c in &f.calls {
            if !(model.is_symmetric_site(f, c) || is_send_site(c) || is_recv_site(c)) {
                continue;
            }
            if let Some(l) = f.enclosing_tainted_loop(c.offset) {
                report(
                    file,
                    RANK_LOOP,
                    c.offset,
                    format!(
                        "collective `{}` runs inside a loop whose trip count depends on the \
                         rank (`{}`); ranks disagree on how many collectives they issue",
                        c.callee,
                        short(&l.header),
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule `tag-pairing`: every registry-named send tag must have a recv with
/// the same canonical tag somewhere in non-test code, and vice versa.
pub fn tag_pairing(model: &Model, out: &mut Vec<Diagnostic>) {
    let mut send_tags: HashSet<String> = HashSet::new();
    let mut recv_tags: HashSet<String> = HashSet::new();
    // (file, offset, canonical tag, is_send) for every live paired call.
    let mut sites: Vec<(usize, usize, String, bool)> = Vec::new();
    for f in &model.fns {
        let file = &model.files[f.file];
        for c in &f.calls {
            let is_send = is_send_site(c);
            if !is_send && !is_recv_site(c) {
                continue;
            }
            if !live_code(file, c.offset) {
                continue;
            }
            let canon = resolve_tag(f, &c.args[1]);
            if is_send {
                send_tags.insert(canon.clone());
            } else {
                recv_tags.insert(canon.clone());
            }
            sites.push((f.file, c.offset, canon, is_send));
        }
    }
    for (file_idx, offset, canon, is_send) in sites {
        let file = &model.files[file_idx];
        if !in_scope(&file.rel_path) || !is_registry_tag(&canon) {
            continue;
        }
        let (have, verb, missing) =
            if is_send { (&recv_tags, "send", "recv") } else { (&send_tags, "recv", "send") };
        if !have.contains(&canon) {
            report(
                file,
                TAG_PAIRING,
                offset,
                format!(
                    "`{verb}` with tag `{canon}` has no matching `{missing}` with the same \
                     tag anywhere in non-test code; the message can never pair"
                ),
                out,
            );
        }
    }
}

/// Rule `tag-namespace`: tag constants only in the registry, no raw
/// integer tags at call sites, and no value collisions inside the
/// registry itself.
pub fn tag_namespace(model: &Model, out: &mut Vec<Diagnostic>) {
    for file in model.files {
        if !in_scope(&file.rel_path) {
            continue;
        }
        if file.rel_path == TAG_REGISTRY {
            registry_collisions(file, out);
            continue;
        }
        for c in scan_consts(file) {
            if is_tag_name(&c.name) && is_int_type(&c.ty) {
                report(
                    file,
                    TAG_NAMESPACE,
                    c.name_offset,
                    format!(
                        "tag constant `{}` defined outside the central registry \
                         ({TAG_REGISTRY}); ad-hoc tag namespaces collide silently — add it \
                         to `comm::tags` instead",
                        c.name
                    ),
                    out,
                );
            }
        }
    }
    for f in &model.fns {
        let file = &model.files[f.file];
        if !in_scope(&file.rel_path) {
            continue;
        }
        for c in &f.calls {
            if !is_send_site(c) && !is_recv_site(c) {
                continue;
            }
            let canon = resolve_tag(f, &c.args[1]);
            if is_int_literal(&canon) {
                report(
                    file,
                    TAG_NAMESPACE,
                    c.offset,
                    format!(
                        "raw integer tag `{canon}` at a `{}` call; use a named constant from \
                         `comm::tags` so pairing stays auditable",
                        c.callee
                    ),
                    out,
                );
            }
        }
    }
}

/// A `const NAME: TY = EXPR;` item found lexically.
struct ConstDef {
    name: String,
    name_offset: usize,
    ty: String,
    value: String,
}

/// Lexical scan for const items (generic `const N: usize` parameters have
/// no `=` and are skipped; `const fn` has no `:`).
fn scan_consts(file: &SourceFile) -> Vec<ConstDef> {
    let masked = &file.masked;
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = find_word(masked, "const", from) {
        from = at + 5;
        let mut i = at + 5;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let name_offset = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i == name_offset {
            continue;
        }
        let name = masked[name_offset..i].to_string();
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b':' {
            continue;
        }
        i += 1;
        let ty_start = i;
        let mut depth = 0i32;
        while i < bytes.len() {
            match bytes[i] {
                b'(' | b'[' | b'<' => depth += 1,
                b')' | b']' | b'>' => depth -= 1,
                b'=' | b';' | b',' if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'=' {
            continue;
        }
        let ty = masked[ty_start..i].trim().to_string();
        let value_start = i + 1;
        while i < bytes.len() && bytes[i] != b';' {
            i += 1;
        }
        out.push(ConstDef {
            name,
            name_offset,
            ty,
            value: masked[value_start..i].trim().to_string(),
        });
        from = i;
    }
    out
}

/// Does the name read as a message-tag constant (`TAG_X`, `X_TAG`, ...)?
fn is_tag_name(name: &str) -> bool {
    name.split('_').any(|seg| seg == "TAG" || seg == "TAGS")
}

fn is_int_type(ty: &str) -> bool {
    matches!(ty, "u8" | "u16" | "u32" | "u64" | "usize" | "i32" | "i64")
}

/// Check the registry itself: two constants with the same evaluated value
/// would let unrelated collectives cross-match. `*_BASE` constants are
/// namespace boundaries, not tags — they feed the evaluation environment
/// (`BASE + n`) but are exempt from the collision check, matching the
/// registry's own `ALL_NAMED` convention.
fn registry_collisions(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let mut env: HashMap<String, u64> = HashMap::new();
    let mut first_by_value: HashMap<u64, String> = HashMap::new();
    for c in scan_consts(file) {
        if !is_int_type(&c.ty) {
            continue;
        }
        let Some(v) = eval_tag_expr(&c.value, &env) else {
            continue;
        };
        env.insert(c.name.clone(), v);
        if c.name.ends_with("_BASE") {
            continue;
        }
        if let Some(earlier) = first_by_value.get(&v) {
            report(
                file,
                TAG_NAMESPACE,
                c.name_offset,
                format!(
                    "tag constant `{}` has the same value ({v:#x}) as `{earlier}`; \
                     collectives using either tag can cross-match",
                    c.name
                ),
                out,
            );
        } else {
            first_by_value.insert(v, c.name.clone());
        }
    }
}

/// Evaluate a registry const expression: integer literals, names of
/// earlier registry constants, and sums of those.
fn eval_tag_expr(expr: &str, env: &HashMap<String, u64>) -> Option<u64> {
    let t: String = expr.chars().filter(|ch| !ch.is_whitespace()).collect();
    if let Some(hex) = t.strip_prefix("0x") {
        return u64::from_str_radix(&hex.replace('_', ""), 16).ok();
    }
    if t.as_bytes().first().is_some_and(u8::is_ascii_digit) {
        return t.replace('_', "").parse().ok();
    }
    if let Some((a, b)) = t.split_once('+') {
        return eval_tag_expr(a, env)?.checked_add(eval_tag_expr(b, env)?);
    }
    env.get(&t).copied()
}
