//! Lexical model of one Rust source file.
//!
//! The lint rules do not need a full parse tree; they need the *token
//! stream minus noise*. [`SourceFile::parse`] runs a small Rust lexer that
//! produces a **masked** copy of the text — every comment, string, char
//! literal and lifetime blanked to spaces, byte-for-byte the same length,
//! newlines preserved — so rules can do position-accurate token searches
//! without tripping on `"panic!"` inside a string or an example in a doc
//! comment. Alongside the mask it records:
//!
//! * every comment with its line (for `// SAFETY:` and suppression rules),
//! * `// quda-lint: allow(rule, ...)` suppressions,
//! * which lines sit inside `#[cfg(test)]`-gated items.

use std::collections::{HashMap, HashSet};

/// One comment, sans delimiters, with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the first character of the comment.
    pub line: u32,
    /// Comment text without the `//` / `/*` delimiters.
    pub text: String,
}

/// A lexed workspace source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g. `crates/comm/src/world.rs`).
    pub rel_path: String,
    /// Original text.
    pub text: String,
    /// Same length as `text`; comments, strings, chars and lifetimes are
    /// spaces, everything else verbatim.
    pub masked: String,
    /// All comments in order of appearance.
    pub comments: Vec<Comment>,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
    /// Per line (index 0 = line 1): inside a `#[cfg(test)]` item.
    test_lines: Vec<bool>,
    /// Suppressions: line -> rule names allowed on that line.
    allows: HashMap<u32, HashSet<String>>,
}

impl SourceFile {
    /// Lex `text` (workspace-relative `rel_path` is used for scoping only).
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let (masked, comments) = mask(text);
        let line_starts = line_starts(text);
        let nlines = line_starts.len();
        let mut file = SourceFile {
            rel_path: rel_path.replace('\\', "/"),
            text: text.to_string(),
            masked,
            comments,
            line_starts,
            test_lines: vec![false; nlines],
            allows: HashMap::new(),
        };
        file.collect_allows();
        file.mark_test_regions();
        file
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> u32 {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => (i + 1) as u32,
            Err(i) => i as u32,
        }
    }

    /// 1-based column of byte `offset` within its line.
    pub fn col_of(&self, offset: usize) -> u32 {
        let line = self.line_of(offset) as usize;
        (offset - self.line_starts[line - 1] + 1) as u32
    }

    /// Does `line` (1-based) sit inside a `#[cfg(test)]`-gated item?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get((line as usize).saturating_sub(1)).copied().unwrap_or(false)
    }

    /// Is the whole file a test/bench/example target (by path convention)?
    pub fn is_test_target(&self) -> bool {
        let p = &self.rel_path;
        p.starts_with("tests/")
            || p.starts_with("examples/")
            || p.contains("/tests/")
            || p.contains("/benches/")
            || p.contains("/examples/")
    }

    /// Is the code at byte `offset` test code: in a test/bench/example
    /// target or inside a `#[cfg(test)]`-gated item?
    pub fn is_test_code(&self, offset: usize) -> bool {
        self.is_test_target() || self.is_test_line(self.line_of(offset))
    }

    /// Is `rule` suppressed on `line` via `// quda-lint: allow(...)` on the
    /// same line or the line directly above?
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.allows.get(l).is_some_and(|set| set.contains(rule)))
    }

    fn collect_allows(&mut self) {
        for c in &self.comments {
            let Some(rest) = c.text.trim().strip_prefix("quda-lint:") else {
                continue;
            };
            let rest = rest.trim();
            let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.strip_suffix(')')) else {
                continue;
            };
            let set = self.allows.entry(c.line).or_default();
            for rule in inner.split(',') {
                set.insert(rule.trim().to_string());
            }
        }
    }

    /// Find `#[cfg(test)]` / `#[cfg(all(test, ...))]` attributes and mark
    /// the lines of the item they gate (through its closing brace).
    fn mark_test_regions(&mut self) {
        let bytes = self.masked.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'#' {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j >= bytes.len() || bytes[j] != b'[' {
                i += 1;
                continue;
            }
            let Some(close) = matching(bytes, j, b'[', b']') else {
                i += 1;
                continue;
            };
            let attr = &self.masked[j + 1..close];
            if is_test_cfg(attr) {
                if let Some(end) = self.item_end(close + 1) {
                    let from = self.line_of(i) as usize - 1;
                    let to = self.line_of(end) as usize - 1;
                    for l in from..=to.min(self.test_lines.len() - 1) {
                        self.test_lines[l] = true;
                    }
                }
            }
            i = close + 1;
        }
    }

    /// From just past an attribute, find the end offset of the gated item:
    /// the matching `}` of its body, or the `;` for body-less items. Skips
    /// any further attributes in between.
    fn item_end(&self, mut i: usize) -> Option<usize> {
        let bytes = self.masked.as_bytes();
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                return None;
            }
            if bytes[i] == b'#' {
                // Another attribute: skip it.
                let mut j = i + 1;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b'[' {
                    i = matching(bytes, j, b'[', b']')? + 1;
                    continue;
                }
                return None;
            }
            break;
        }
        // Scan to the item body `{` (or a terminating `;`).
        while i < bytes.len() {
            match bytes[i] {
                b'{' => return matching(bytes, i, b'{', b'}'),
                b';' => return Some(i),
                _ => i += 1,
            }
        }
        None
    }
}

/// Does attribute text (inside `#[...]`) gate code to test builds?
/// `cfg(test)` and `cfg(all(test, ...))`/`cfg(any(test, ...))` count;
/// `cfg(not(test))` and `cfg_attr(...)` do not.
fn is_test_cfg(attr: &str) -> bool {
    let t = attr.trim();
    let Some(args) = t.strip_prefix("cfg") else {
        return false;
    };
    let args = args.trim_start();
    if !args.starts_with('(') {
        return false; // e.g. cfg_attr already excluded by exact prefix + '(' check
    }
    // Reject cfg_attr (strip_prefix("cfg") leaves "_attr(...)" which fails
    // the '(' check above), then look for a bare `test` token not negated.
    contains_word(args, "test") && !args.replace(' ', "").contains("not(test")
}

/// Whole-word (identifier-boundary) containment test.
pub fn contains_word(haystack: &str, word: &str) -> bool {
    find_word(haystack, word, 0).is_some()
}

/// Find `word` at an identifier boundary in `haystack`, starting at `from`.
pub fn find_word(haystack: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let mut start = from;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Offset of the matching `close` for the `open` delimiter at `at`.
pub(crate) fn matching(bytes: &[u8], at: usize, open: u8, close: u8) -> Option<usize> {
    debug_assert_eq!(bytes[at], open);
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(at) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' && i + 1 < text.len() {
            starts.push(i + 1);
        }
    }
    starts
}

/// The lexer: blank comments/strings/chars/lifetimes; collect comments.
#[allow(clippy::too_many_lines)]
fn mask(text: &str) -> (String, Vec<Comment>) {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;

    macro_rules! blank {
        ($b:expr) => {
            out.push(if $b == b'\n' { b'\n' } else { b' ' })
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            out.push(b'\n');
            i += 1;
            continue;
        }
        // Line comment (incl. /// and //! docs).
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let start_line = line;
            let mut j = i + 2;
            while j < bytes.len() && bytes[j] != b'\n' {
                j += 1;
            }
            comments.push(Comment { line: start_line, text: text[i + 2..j].to_string() });
            for k in i..j {
                blank!(bytes[k]);
            }
            i = j;
            continue;
        }
        // Block comment, possibly nested.
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let start_line = line;
            let mut depth = 1;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
            }
            let body_end = j.saturating_sub(2).max(i + 2);
            comments.push(Comment { line: start_line, text: text[i + 2..body_end].to_string() });
            for k in i..j {
                blank!(bytes[k]);
            }
            i = j;
            continue;
        }
        // Raw (byte) strings: r"...", r#"..."#, br##"..."##.
        if b == b'r' || (b == b'b' && bytes.get(i + 1) == Some(&b'r')) {
            let r_at = if b == b'r' { i } else { i + 1 };
            // Only when `r` starts a literal, not an identifier like `rank`.
            let prev_ident = i > 0 && is_ident_byte(bytes[i - 1]);
            let mut j = r_at + 1;
            let mut hashes = 0;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if !prev_ident && bytes.get(j) == Some(&b'"') {
                j += 1;
                'raw: while j < bytes.len() {
                    if bytes[j] == b'"' {
                        let mut h = 0;
                        while h < hashes && bytes.get(j + 1 + h) == Some(&b'#') {
                            h += 1;
                        }
                        if h == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
                for k in i..j {
                    blank!(bytes[k]);
                }
                i = j;
                continue;
            }
        }
        // Plain (byte) string.
        if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"')) {
            let q_at = if b == b'"' { i } else { i + 1 };
            if b == b'b' && i > 0 && is_ident_byte(bytes[i - 1]) {
                out.push(b);
                i += 1;
                continue;
            }
            let mut j = q_at + 1;
            while j < bytes.len() {
                match bytes[j] {
                    // An escaped newline (string line-continuation) still
                    // ends a source line — count it or every comment below
                    // is attributed one line too early.
                    b'\\' => {
                        if bytes.get(j + 1) == Some(&b'\n') {
                            line += 1;
                        }
                        j += 2;
                    }
                    b'"' => {
                        j += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            for k in i..j.min(bytes.len()) {
                blank!(bytes[k]);
            }
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            let next = bytes.get(i + 1).copied();
            let is_lifetime = matches!(next, Some(c) if is_ident_byte(c))
                && bytes.get(i + 2) != Some(&b'\'')
                && next != Some(b'\\');
            if is_lifetime {
                // Blank the lifetime/label so `'a` never reads as a quote.
                blank!(b);
                let mut j = i + 1;
                while j < bytes.len() && is_ident_byte(bytes[j]) {
                    blank!(bytes[j]);
                    j += 1;
                }
                i = j;
                continue;
            }
            // Char literal: '\''-style escapes or a single (multi-byte) char.
            let mut j = i + 1;
            if bytes.get(j) == Some(&b'\\') {
                j += 2;
            } else {
                j += 1;
                while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
                    j += 1;
                }
            }
            while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
                j += 1; // e.g. '\u{1f600}'
            }
            if bytes.get(j) == Some(&b'\'') {
                j += 1;
            }
            for k in i..j.min(bytes.len()) {
                blank!(bytes[k]);
            }
            i = j;
            continue;
        }
        out.push(b);
        i += 1;
    }
    (String::from_utf8(out).expect("mask preserves ASCII structure"), comments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let src = "let s = \"panic!\"; // panic! here\nlet c = 'x';\n";
        let f = SourceFile::parse("crates/demo/src/a.rs", src);
        assert!(!f.masked.contains("panic"));
        assert_eq!(f.masked.len(), src.len());
        assert_eq!(f.comments.len(), 1);
        assert!(f.comments[0].text.contains("panic! here"));
    }

    #[test]
    fn string_line_continuation_keeps_line_count() {
        let src = "let s = \"first \\\n         second\";\n// after\nlet t = 1;\n";
        let f = SourceFile::parse("crates/demo/src/a.rs", src);
        assert_eq!(f.comments.len(), 1);
        assert_eq!(f.comments[0].line, 3);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet y = 'y';\n";
        let f = SourceFile::parse("crates/demo/src/a.rs", src);
        assert!(f.masked.contains("fn f<"));
        assert!(f.masked.contains("str) ->"));
        assert!(!f.masked.contains("'y'"));
    }

    #[test]
    fn raw_strings_mask_fully() {
        let src = "let s = r#\"unwrap() \" inside\"#; let t = 1;";
        let f = SourceFile::parse("crates/demo/src/a.rs", src);
        assert!(!f.masked.contains("unwrap"));
        assert!(f.masked.contains("let t = 1;"));
    }

    #[test]
    fn cfg_test_region_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let f = SourceFile::parse("crates/demo/src/a.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let f = SourceFile::parse("crates/demo/src/a.rs", src);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn allow_suppression_parsed() {
        let src = "// quda-lint: allow(no-panic, ghost-sizing)\nlet x = y.unwrap();\n";
        let f = SourceFile::parse("crates/demo/src/a.rs", src);
        assert!(f.is_allowed("no-panic", 2));
        assert!(f.is_allowed("ghost-sizing", 1));
        assert!(!f.is_allowed("half-normalization", 2));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("a.unwrap()", "unwrap"));
        assert!(!contains_word("a.unwrap_or(0)", "unwrap"));
        assert!(!contains_word("sunwrap()", "unwrap"));
    }
}
