//! Program model shared by the analysis passes (`collectives`, `hotpath`).
//!
//! The model is deliberately sub-AST: each function body is scanned on the
//! masked token view into flat lists of *call sites*, *branches* and
//! *loops* (with byte ranges), plus a rank-taint set computed over simple
//! `let` bindings. Containment between a call and a control construct is a
//! byte-range test, which sidesteps building a tree while staying
//! position-accurate. The same trade-off as the lexical lints: no type
//! information, but the collective API surface is small and name-stable
//! enough (see `comm::Communicator`) that name-based classification plus a
//! call-graph closure is precise in practice. The hot-path pass reuses the
//! same function/loop extraction for byte-range loop-containment tests.

use crate::source::{find_word, matching, SourceFile};
use std::collections::HashSet;

/// One call expression inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Byte offset of the callee identifier.
    pub offset: usize,
    /// Callee identifier (the final path segment).
    pub callee: String,
    /// Written as a method call (`recv.f(...)`), not a free/path call.
    pub is_method: bool,
    /// Top-level argument texts (masked view, trimmed).
    pub args: Vec<String>,
}

/// One `if`/`else` construct.
#[derive(Debug)]
pub struct BranchInfo {
    /// Byte offset of the `if` keyword.
    pub offset: usize,
    /// Condition text (masked, trimmed).
    pub cond: String,
    /// Byte range inside the then-block braces.
    pub then_range: (usize, usize),
    /// Byte range of the else part: inside the braces for `else {}`, or
    /// spanning the whole chain for `else if`.
    pub else_range: Option<(usize, usize)>,
}

/// One `for`/`while`/`loop` construct.
#[derive(Debug)]
pub struct LoopInfo {
    /// Byte offset of the loop keyword.
    pub offset: usize,
    /// Header text between the keyword and the body brace (empty for `loop`).
    pub header: String,
    /// Byte range inside the body braces.
    pub body_range: (usize, usize),
}

/// One function definition with everything the rules consult.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into the file list.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Byte offset of the name identifier.
    pub name_offset: usize,
    /// Whether the first parameter is a `self` receiver — only such a
    /// function can be the target of a method call.
    pub takes_self: bool,
    /// Byte range inside the body braces.
    pub body: (usize, usize),
    /// Every call expression in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Every `if` construct in the body.
    pub branches: Vec<BranchInfo>,
    /// Every loop construct in the body.
    pub loops: Vec<LoopInfo>,
    /// Simple `let <ident> = <init>;` bindings, in source order.
    pub lets: Vec<(String, String)>,
    /// Local names whose value (transitively) derives from the rank.
    pub tainted: HashSet<String>,
}

/// Does the half-open byte range contain `offset`?
pub fn contains(range: (usize, usize), offset: usize) -> bool {
    range.0 <= offset && offset < range.1
}

impl FnInfo {
    /// Is this expression text rank-dependent in this function's scope?
    pub fn expr_tainted(&self, text: &str) -> bool {
        idents(text).iter().any(|id| is_rank_name(id) || self.tainted.contains(*id))
    }

    /// The smallest rank-tainted branch arm containing `offset`, with
    /// `true` when the offset sits in the then-arm.
    pub fn innermost_tainted_branch(&self, offset: usize) -> Option<(&BranchInfo, bool)> {
        self.branches
            .iter()
            .filter(|b| self.expr_tainted(&b.cond))
            .filter_map(|b| {
                if contains(b.then_range, offset) {
                    Some((b, true, b.then_range.1 - b.then_range.0))
                } else {
                    b.else_range.filter(|&r| contains(r, offset)).map(|r| (b, false, r.1 - r.0))
                }
            })
            .min_by_key(|&(_, _, size)| size)
            .map(|(b, in_then, _)| (b, in_then))
    }

    /// The smallest enclosing loop whose header is rank-dependent.
    pub fn enclosing_tainted_loop(&self, offset: usize) -> Option<&LoopInfo> {
        self.loops
            .iter()
            .filter(|l| contains(l.body_range, offset) && self.expr_tainted(&l.header))
            .min_by_key(|l| l.body_range.1 - l.body_range.0)
    }
}

/// The whole-workspace analysis input: every parsed file, every extracted
/// function, and the call-graph closure of "performs a symmetric
/// collective on some path".
pub struct Model<'a> {
    /// The parsed files, in the order they index [`FnInfo::file`].
    pub files: &'a [SourceFile],
    /// Every function extracted from every file.
    pub fns: Vec<FnInfo>,
    /// Names of live (non-test) functions that (transitively) issue a
    /// symmetric collective. Test code never enters: no finding is emitted
    /// in it, so a test helper must not lend its name to a live call.
    pub performers: HashSet<String>,
    /// The performers that take `self`: the only ones a method call
    /// (`recv.f(..)`) can reach. A path call (`f(..)`, `T::f(..)`) can
    /// reach either kind, so it is checked against [`Model::performers`].
    pub method_performers: HashSet<String>,
}

/// Can call `c` reach a performer? A method call reaches only the
/// `self`-taking ones, so a free fn sharing a method's name does not make
/// every call of that method a collective.
fn reaches_performer(
    performers: &HashSet<String>,
    method_performers: &HashSet<String>,
    c: &CallSite,
) -> bool {
    let reachable = if c.is_method { method_performers } else { performers };
    !PROPAGATION_STOP.contains(&c.callee.as_str()) && reachable.contains(&c.callee)
}

/// Ubiquitous trait-method names excluded from call-graph propagation:
/// a collective inside e.g. some `fmt` impl must not turn every
/// formatting call in the workspace into a collective site.
const PROPAGATION_STOP: &[&str] = &[
    "new", "default", "clone", "drop", "fmt", "from", "into", "eq", "cmp", "hash", "next", "deref",
    "index", "len", "is_empty", "get", "push", "insert", "collect", "map", "iter",
];

impl<'a> Model<'a> {
    /// Extract functions from every file and close over the call graph.
    pub fn build(files: &'a [SourceFile]) -> Model<'a> {
        let fns = extract_fns(files);
        let mut performers: HashSet<String> = HashSet::new();
        let mut method_performers: HashSet<String> = HashSet::new();
        loop {
            let mut changed = false;
            for f in &fns {
                let kind = if f.takes_self { &method_performers } else { &performers };
                let file = &files[f.file];
                if kind.contains(&f.name) || file.is_test_code(f.name_offset) {
                    continue;
                }
                let rel = &file.rel_path;
                let performs = f.calls.iter().any(|c| {
                    base_symmetric(rel, c) || reaches_performer(&performers, &method_performers, c)
                });
                if performs {
                    performers.insert(f.name.clone());
                    if f.takes_self {
                        method_performers.insert(f.name.clone());
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Model { files, fns, performers, method_performers }
    }

    /// Does this call issue a symmetric collective — directly by name, or
    /// by calling a function the call-graph closure marked as a performer?
    pub fn is_symmetric_site(&self, f: &FnInfo, c: &CallSite) -> bool {
        base_symmetric(&self.files[f.file].rel_path, c)
            || reaches_performer(&self.performers, &self.method_performers, c)
    }
}

/// Is this call one of the symmetric collective primitives by name?
/// `reduce` counts only as a method call in the solver and multi-GPU
/// layers, where the global-reduction discipline (enforced by
/// `cargo xtask lint`) reserves the name for the world-wide reduction —
/// and never in `blas.rs`, the designated local-part kernel module.
pub fn base_symmetric(rel_path: &str, c: &CallSite) -> bool {
    match c.callee.as_str() {
        "allreduce_sum_f64" | "allreduce_max_f64" | "allreduce_vec" | "barrier" => true,
        "reduce" => {
            c.is_method
                && !rel_path.ends_with("/blas.rs")
                && (rel_path.starts_with("crates/solvers/")
                    || rel_path.starts_with("crates/multigpu/"))
        }
        _ => false,
    }
}

/// Is this call a point-to-point `send(to, tag, payload)`?
pub fn is_send_site(c: &CallSite) -> bool {
    c.is_method && c.callee == "send" && c.args.len() == 3
}

/// Is this call a point-to-point `recv(from, tag)`?
pub fn is_recv_site(c: &CallSite) -> bool {
    c.is_method && c.callee == "recv" && c.args.len() == 2
}

/// Resolve a tag argument to a canonical, whitespace-free form: a plain
/// identifier is substituted through the function's `let` bindings (one
/// level), and `quda_comm::tags::`/`crate::tags::` prefixes collapse to
/// `tags::` so the same registry entry spells identically everywhere.
pub fn resolve_tag(f: &FnInfo, arg: &str) -> String {
    let t = arg.trim();
    let resolved = if is_plain_ident(t) {
        f.lets
            .iter()
            .rev()
            .find(|(name, _)| name == t)
            .map_or_else(|| t.to_string(), |(_, init)| init.clone())
    } else {
        t.to_string()
    };
    let squished: String = resolved.chars().filter(|c| !c.is_whitespace()).collect();
    squished.replace("quda_comm::tags::", "tags::").replace("crate::tags::", "tags::")
}

/// Does this canonical tag name an entry of the central registry?
pub fn is_registry_tag(canon: &str) -> bool {
    canon.starts_with("tags::")
}

/// Is this canonical tag a bare integer literal?
pub fn is_int_literal(canon: &str) -> bool {
    let t = canon.strip_prefix("0x").unwrap_or(canon);
    !t.is_empty()
        && canon.as_bytes()[0].is_ascii_digit()
        && t.bytes().all(|b| b.is_ascii_hexdigit() || b == b'_')
}

fn is_plain_ident(t: &str) -> bool {
    !t.is_empty() && is_ident_start(t.as_bytes()[0]) && t.bytes().all(is_ident_byte)
}

/// Does this identifier name a rank by the project's naming convention?
fn is_rank_name(id: &str) -> bool {
    id == "rank" || id.starts_with("rank_") || id.ends_with("_rank") || id.contains("_rank_")
}

/// All identifier tokens in `text`, in order.
pub fn idents(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_start(bytes[i]) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.push(&text[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Words that can never be a callee even when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "fn", "match", "let", "mut", "pub", "use", "mod", "impl",
    "struct", "enum", "trait", "type", "where", "unsafe", "move", "async", "await", "as", "in",
    "ref", "break", "continue", "return", "dyn", "static", "const", "crate", "super", "self",
    "Self", "true", "false", "box", "yield",
];

fn extract_fns(files: &[SourceFile]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let masked = &file.masked;
        let mut from = 0;
        while let Some(at) = find_word(masked, "fn", from) {
            from = at + 2;
            let Some((name, name_offset, body)) = parse_fn(masked, at) else {
                continue;
            };
            let takes_self = takes_self(masked, name_offset + name.len());
            let Some(body) = body else {
                continue; // bodyless trait declaration
            };
            let mut f = FnInfo {
                file: fi,
                name,
                name_offset,
                takes_self,
                body,
                calls: Vec::new(),
                branches: Vec::new(),
                loops: Vec::new(),
                lets: Vec::new(),
                tainted: HashSet::new(),
            };
            scan_block(masked, body, &mut f);
            collect_lets(masked, body, &mut f);
            compute_taint(&mut f);
            fns.push(f);
        }
    }
    fns
}

/// A parsed `fn` header: name, name offset, and the body range (`None`
/// for a bodyless trait method).
type ParsedFn = (String, usize, Option<(usize, usize)>);

/// Does the signature after the fn name (at `from`) open its parameter
/// list with a `self` receiver (`self`, `mut self`, `&'a mut self`,
/// `self: Box<Self>`)? Generic brackets are skipped, so an `Fn(..)` bound
/// is not taken for the parameter list.
fn takes_self(masked: &str, from: usize) -> bool {
    let bytes = masked.as_bytes();
    let mut depth = 0usize;
    let mut k = from;
    loop {
        match bytes.get(k) {
            None | Some(b'{' | b';') => return false,
            Some(b'<') => depth += 1,
            Some(b'>') if bytes[k - 1] != b'-' => depth = depth.saturating_sub(1),
            Some(b'(') if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    let first = masked[k + 1..].split([',', ')']).next().unwrap_or("");
    first
        .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_' || ch == '\''))
        .find(|w| !w.is_empty() && !w.starts_with('\'') && *w != "mut")
        == Some("self")
}

/// From the `fn` keyword at `at`: the name, its offset, and the body range
/// (None for a bodyless trait method).
fn parse_fn(masked: &str, at: usize) -> Option<ParsedFn> {
    let bytes = masked.as_bytes();
    let mut i = at + 2;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= bytes.len() || !is_ident_start(bytes[i]) {
        return None; // `fn(...)` pointer type, not a definition
    }
    let name_offset = i;
    let mut j = i;
    while j < bytes.len() && is_ident_byte(bytes[j]) {
        j += 1;
    }
    let name = masked[i..j].to_string();
    // The signature (generics, params, return type, where clause) cannot
    // contain a brace, so the first `{` opens the body; a `;` first, outside
    // the brackets of an array type such as `-> [T; 36]`, means a trait
    // declaration without a default body.
    let mut k = j;
    let mut depth = 0i32;
    while k < bytes.len() {
        match bytes[k] {
            b'{' => {
                let close = matching(bytes, k, b'{', b'}')?;
                return Some((name, name_offset, Some((k + 1, close))));
            }
            b'[' => depth += 1,
            b']' => depth -= 1,
            b';' if depth == 0 => return Some((name, name_offset, None)),
            _ => {}
        }
        k += 1;
    }
    None
}

/// First `{` at paren/bracket depth 0 in `[from, limit)` — the body brace
/// of an `if`/`while`/`for` header (struct literals are illegal there).
fn block_open(bytes: &[u8], from: usize, limit: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = from;
    while i < limit {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Offset just past the final `}` of an `if`/`else if`/.../`else` chain
/// whose first `if` keyword sits at `if_at`.
fn if_chain_end(bytes: &[u8], mut if_at: usize) -> Option<usize> {
    loop {
        let open = block_open(bytes, if_at + 2, bytes.len())?;
        let close = matching(bytes, open, b'{', b'}')?;
        let mut k = close + 1;
        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        if !rest_starts_word(bytes, k, b"else") {
            return Some(close + 1);
        }
        let mut m = k + 4;
        while m < bytes.len() && bytes[m].is_ascii_whitespace() {
            m += 1;
        }
        if m < bytes.len() && bytes[m] == b'{' {
            return Some(matching(bytes, m, b'{', b'}')? + 1);
        }
        if rest_starts_word(bytes, m, b"if") {
            if_at = m;
            continue;
        }
        return Some(close + 1);
    }
}

/// Does `bytes[at..]` start with `word` at an identifier boundary?
fn rest_starts_word(bytes: &[u8], at: usize, word: &[u8]) -> bool {
    at + word.len() <= bytes.len()
        && &bytes[at..at + word.len()] == word
        && bytes.get(at + word.len()).is_none_or(|&b| !is_ident_byte(b))
        && (at == 0 || !is_ident_byte(bytes[at - 1]))
}

/// Scan a body range, recording calls, branches and loops on `f`.
/// Nested `fn` items are skipped (they are extracted separately).
fn scan_block(masked: &str, range: (usize, usize), f: &mut FnInfo) {
    let bytes = masked.as_bytes();
    let mut i = range.0;
    while i < range.1 {
        if !is_ident_start(bytes[i]) || (i > 0 && is_ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i;
        while j < range.1 && is_ident_byte(bytes[j]) {
            j += 1;
        }
        match &masked[start..j] {
            "if" => {
                let Some(open) = block_open(bytes, j, range.1) else {
                    i = j;
                    continue;
                };
                let Some(close) = matching(bytes, open, b'{', b'}') else {
                    i = j;
                    continue;
                };
                let cond_range = (j, open);
                let then_range = (open + 1, close);
                // Else part: a plain block, an `else if` chain, or absent.
                let mut k = close + 1;
                while k < range.1 && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                let mut else_range = None;
                let mut resume = close + 1;
                if rest_starts_word(bytes, k, b"else") {
                    let mut m = k + 4;
                    while m < range.1 && bytes[m].is_ascii_whitespace() {
                        m += 1;
                    }
                    if m < range.1 && bytes[m] == b'{' {
                        if let Some(c2) = matching(bytes, m, b'{', b'}') {
                            else_range = Some((m + 1, c2));
                            resume = c2 + 1;
                        }
                    } else if rest_starts_word(bytes, m, b"if") {
                        if let Some(end) = if_chain_end(bytes, m) {
                            else_range = Some((m, end));
                            resume = m; // the inner `if` is scanned as its own branch
                        }
                    }
                }
                f.branches.push(BranchInfo {
                    offset: start,
                    cond: masked[cond_range.0..cond_range.1].trim().to_string(),
                    then_range,
                    else_range,
                });
                scan_block(masked, cond_range, f);
                scan_block(masked, then_range, f);
                if let Some(r) = else_range {
                    if resume != r.0 {
                        scan_block(masked, r, f);
                    }
                }
                i = resume;
            }
            "while" | "for" => {
                let Some(open) = block_open(bytes, j, range.1) else {
                    i = j;
                    continue;
                };
                let Some(close) = matching(bytes, open, b'{', b'}') else {
                    i = j;
                    continue;
                };
                f.loops.push(LoopInfo {
                    offset: start,
                    header: masked[j..open].trim().to_string(),
                    body_range: (open + 1, close),
                });
                scan_block(masked, (j, open), f);
                scan_block(masked, (open + 1, close), f);
                i = close + 1;
            }
            "loop" => {
                let mut k = j;
                while k < range.1 && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if k < range.1 && bytes[k] == b'{' {
                    if let Some(close) = matching(bytes, k, b'{', b'}') {
                        f.loops.push(LoopInfo {
                            offset: start,
                            header: String::new(),
                            body_range: (k + 1, close),
                        });
                        scan_block(masked, (k + 1, close), f);
                        i = close + 1;
                        continue;
                    }
                }
                i = j;
            }
            "fn" => {
                // Nested item: its calls belong to its own FnInfo.
                i = match parse_fn(masked, start) {
                    Some((_, _, Some((_, close)))) => close + 1,
                    _ => j,
                };
            }
            word => {
                if let Some(site) = parse_call(bytes, masked, start, j) {
                    let _ = word;
                    f.calls.push(site);
                }
                i = j;
            }
        }
    }
}

/// Parse a potential call expression whose callee identifier spans
/// `[start, j)`. Keywords, macros, and uppercase-initial names (tuple
/// variants, struct literals, type paths) are excluded.
fn parse_call(bytes: &[u8], masked: &str, start: usize, j: usize) -> Option<CallSite> {
    let callee = &masked[start..j];
    if KEYWORDS.contains(&callee) || callee.as_bytes()[0].is_ascii_uppercase() {
        return None;
    }
    let mut k = j;
    while k < bytes.len() && bytes[k].is_ascii_whitespace() {
        k += 1;
    }
    if k >= bytes.len() || bytes[k] == b'!' {
        return None; // macro invocation
    }
    // Turbofish: `name::<T>(...)`. A `::` followed by another identifier is
    // a longer path — the final segment will be scanned on its own.
    if bytes[k] == b':' {
        if bytes.get(k + 1) != Some(&b':') {
            return None;
        }
        let mut m = k + 2;
        while m < bytes.len() && bytes[m].is_ascii_whitespace() {
            m += 1;
        }
        if m >= bytes.len() || bytes[m] != b'<' {
            return None;
        }
        k = matching(bytes, m, b'<', b'>')? + 1;
        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
    }
    if k >= bytes.len() || bytes[k] != b'(' {
        return None;
    }
    let close = matching(bytes, k, b'(', b')')?;
    // Method call: the token before the name is a single `.` (not `..`).
    let mut q = start;
    while q > 0 && bytes[q - 1].is_ascii_whitespace() {
        q -= 1;
    }
    let is_method = q > 0 && bytes[q - 1] == b'.' && !(q > 1 && bytes[q - 2] == b'.');
    Some(CallSite {
        offset: start,
        callee: callee.to_string(),
        is_method,
        args: split_args(&masked[k + 1..close]),
    })
}

/// Split an argument list on top-level commas.
fn split_args(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(text[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = text[start..].trim();
    if !last.is_empty() {
        out.push(last.to_string());
    }
    out
}

/// Record simple `let <ident> = <init>;` bindings (patterns more complex
/// than a single identifier are skipped — taint through them is out of
/// this model's scope).
fn collect_lets(masked: &str, range: (usize, usize), f: &mut FnInfo) {
    let bytes = masked.as_bytes();
    let body = &masked[range.0..range.1];
    let mut from = 0;
    while let Some(rel) = find_word(body, "let", from) {
        from = rel + 3;
        let mut i = range.0 + rel + 3;
        while i < range.1 && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if rest_starts_word(bytes, i, b"mut") {
            i += 3;
            while i < range.1 && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
        }
        if i >= range.1 || !is_ident_start(bytes[i]) {
            continue;
        }
        let name_start = i;
        while i < range.1 && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let name = &masked[name_start..i];
        if KEYWORDS.contains(&name) || name.as_bytes()[0].is_ascii_uppercase() {
            continue; // `if let Some(x)` patterns and friends
        }
        while i < range.1 && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        // Optional type ascription: skip to the `=` at bracket depth 0.
        if i < range.1 && bytes[i] == b':' {
            let mut depth = 0i32;
            i += 1;
            while i < range.1 {
                match bytes[i] {
                    b'(' | b'[' | b'<' => depth += 1,
                    b')' | b']' | b'>' => depth -= 1,
                    b'=' if depth == 0 => break,
                    b';' => break,
                    _ => {}
                }
                i += 1;
            }
        }
        if i >= range.1 || bytes[i] != b'=' || bytes.get(i + 1) == Some(&b'=') {
            continue;
        }
        let init_start = i + 1;
        let mut depth = 0i32;
        let mut m = init_start;
        while m < range.1 {
            match bytes[m] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth == 0 => break,
                _ => {}
            }
            m += 1;
        }
        f.lets.push((name.to_string(), masked[init_start..m].trim().to_string()));
        from = m - range.0;
    }
}

/// Fixpoint of rank-taint over the `let` bindings.
fn compute_taint(f: &mut FnInfo) {
    loop {
        let mut changed = false;
        for idx in 0..f.lets.len() {
            let (name, init) = &f.lets[idx];
            if f.tainted.contains(name) {
                continue;
            }
            if f.expr_tainted(init) {
                let name = name.clone();
                f.tainted.insert(name);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> (Vec<SourceFile>, Vec<FnInfo>) {
        let files = vec![SourceFile::parse("crates/comm/src/demo.rs", src)];
        let fns = extract_fns(&files);
        (files, fns)
    }

    #[test]
    fn extracts_fns_calls_and_constructs() {
        let src = "fn a(&mut self) {\n    if self.rank == 0 {\n        self.send(1, 7, v)?;\n    } else {\n        let x = self.recv(0, 7)?;\n    }\n    for i in 0..n {\n        self.barrier()?;\n    }\n}\n";
        let (_, fns) = model_of(src);
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.name, "a");
        assert_eq!(f.branches.len(), 1);
        assert_eq!(f.loops.len(), 1);
        let names: Vec<&str> = f.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, ["send", "recv", "barrier"]);
        assert!(f.calls[0].is_method);
        assert_eq!(f.calls[0].args, ["1", "7", "v"]);
    }

    #[test]
    fn rank_taint_flows_through_lets() {
        let src = "fn a(&self) {\n    let me = self.rank;\n    let peer = (me + 1) % self.size;\n    let n = self.size;\n    if peer == 0 { work(); }\n}\n";
        let (_, fns) = model_of(src);
        let f = &fns[0];
        assert!(f.tainted.contains("me"));
        assert!(f.tainted.contains("peer"));
        assert!(!f.tainted.contains("n"));
        assert!(f.expr_tainted("peer == 0"));
        assert!(!f.expr_tainted("n == 0"));
    }

    #[test]
    fn else_if_chains_have_an_else_range() {
        let src = "fn a(&self) {\n    if self.rank == 0 { one(); } else if self.rank == 1 { two(); } else { three(); }\n}\n";
        let (_, fns) = model_of(src);
        let f = &fns[0];
        assert_eq!(f.branches.len(), 2);
        let outer = &f.branches[0];
        let inner = &f.branches[1];
        assert!(outer.else_range.is_some());
        // The inner branch and its else-block sit inside the outer's else range.
        let r = outer.else_range.expect("outer else");
        assert!(contains(r, inner.offset));
        assert!(inner.else_range.is_some());
    }

    #[test]
    fn nested_fn_calls_are_not_attributed_to_the_outer_fn() {
        let src = "fn outer(&self) {\n    fn inner() { helper(); }\n    top();\n}\n";
        let (_, fns) = model_of(src);
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().find(|f| f.name == "outer").expect("outer");
        let names: Vec<&str> = outer.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, ["top"]);
    }

    #[test]
    fn call_graph_closure_marks_transitive_performers() {
        let src = "fn leafy(&self) { self.barrier()?; }\nfn wrapper(&self) { self.leafy()?; }\nfn unrelated(&self) { tidy(); }\n";
        let files = vec![SourceFile::parse("crates/comm/src/demo.rs", src)];
        let m = Model::build(&files);
        assert!(m.performers.contains("leafy"));
        assert!(m.performers.contains("wrapper"));
        assert!(!m.performers.contains("unrelated"));
    }

    #[test]
    fn receivers_are_recognised_through_generics_and_lifetimes() {
        let src = "fn a(&self) {}\nfn b<F: Fn(u8) -> u8>(&'x mut self, f: F) {}\nfn c(self: Box<Self>) {}\nfn d(me: &Self) {}\nfn e<T>(t: T) {}\nfn f() {}\n";
        let (_, fns) = model_of(src);
        let kinds: Vec<(&str, bool)> =
            fns.iter().map(|f| (f.name.as_str(), f.takes_self)).collect();
        assert_eq!(
            kinds,
            [("a", true), ("b", true), ("c", true), ("d", false), ("e", false), ("f", false)]
        );
    }

    #[test]
    fn method_calls_reach_only_self_taking_performers() {
        let src = "fn global(c: &C) { c.barrier(); }\nfn uses(&self) { self.plan.global(); }\nfn calls(&self) { global(self); }\n";
        let files = vec![SourceFile::parse("crates/multigpu/src/demo.rs", src)];
        let m = Model::build(&files);
        assert!(m.performers.contains("global"));
        assert!(!m.method_performers.contains("global"));
        assert!(!m.performers.contains("uses"));
        assert!(m.performers.contains("calls"));
        assert!(m.method_performers.contains("calls"));
    }

    #[test]
    fn tag_resolution_follows_lets_and_collapses_paths() {
        let src = "fn a(&self) {\n    let tag = quda_comm::tags::gauge_dim(dim, parity.as_usize());\n    self.send(to, tag, v)?;\n}\n";
        let (_, fns) = model_of(src);
        let f = &fns[0];
        let send = f.calls.iter().find(|c| c.callee == "send").expect("send");
        assert_eq!(resolve_tag(f, &send.args[1]), "tags::gauge_dim(dim,parity.as_usize())");
        assert!(is_registry_tag(&resolve_tag(f, &send.args[1])));
        assert!(is_int_literal("17"));
        assert!(is_int_literal("0xffff_0000"));
        assert!(!is_int_literal("tags::FACE_FWD"));
    }
}
