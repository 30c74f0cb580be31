//! A lightweight item/brace-tree parser over the [`lexer`](crate::lexer)
//! token stream.
//!
//! This is not a Rust parser — it is the smallest recognizer that recovers
//! what the analyses need, resilient to anything it does not understand:
//!
//! * `fn` items with their impl-block context (`Type::name`), body token
//!   range, and source-line span;
//! * call expressions (`path::to::f(…)`), method calls (`.f(…)`) and macro
//!   invocations (`f!(…)`) inside bodies;
//! * indexing expressions (`expr[…]`, including range slicing);
//! * atomic operations with their literal `Ordering::*` arguments, keyed by
//!   the receiving field (`self.generation.store(g, Ordering::Release)` →
//!   field `generation`);
//! * guard-scoped `lock()`/`read()`/`write()` acquisitions: a `let`-bound
//!   guard lives to the end of its block, a temporary guard to the end of
//!   its statement;
//! * `#[cfg(test)]`/`#[test]` line ranges (rule exemptions), `// lint:
//!   hot-path begin/end` regions, `// lint: panic-free` entry markers and
//!   function-level waivers.
//!
//! Everything line-oriented (waiver walk-ups, region markers) runs on the
//! token-derived comment classification, so string literals can no longer
//! impersonate comments or code.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::HashMap;
use std::ops::Range;

/// Atomic RMW/store/load method names whose literal `Ordering::*` arguments
/// the parser records.
const ATOMIC_OPS: [&str; 14] = [
    "store",
    "load",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "match", "for", "loop", "return", "as", "in", "move", "else",
];

/// A call expression or method call inside a function body.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// Callee name (the last path segment, or the method name).
    pub name: String,
    /// For `Qual::name(…)` calls, the segment before the final `::`.
    pub qualifier: Option<String>,
    /// Whether this was a `.name(…)` method call.
    pub method: bool,
    /// Number of top-level arguments inside the parens, or `None` when the
    /// count is not certain: a closure's `|` or a `<` (a turbofish, generic
    /// arguments or a comparison) at the top level of the parens.
    pub args: Option<usize>,
    /// 1-indexed source line.
    pub line: u32,
    /// Position in the file's code-token sequence.
    pub cidx: usize,
}

/// An atomic operation with at least one literal `Ordering::*` argument.
#[derive(Debug, Clone)]
pub struct AtomicEvent {
    /// The receiving field (last path component before the method).
    pub field: String,
    /// The atomic method (`store`, `load`, `fetch_add`, …).
    pub op: String,
    /// The literal ordering variants, in argument order (a CAS carries two).
    pub orderings: Vec<String>,
    /// 1-indexed source line.
    pub line: u32,
}

/// A guard-scoped lock acquisition (`.lock()`, `.read()`, `.write()`).
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// The receiving field (last path component before the method).
    pub field: String,
    /// Which acquisition method was called.
    pub method: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Position in the file's code-token sequence.
    pub cidx: usize,
    /// Code-token position where the guard dies: the closing brace of the
    /// enclosing block for `let`-bound guards, the end of the statement for
    /// temporaries.
    pub scope_end: usize,
    /// Whether the guard was bound with `let` (block-scoped).
    pub let_bound: bool,
}

/// One extracted body event, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A call or method call.
    Call(CallEvent),
    /// A macro invocation (`name!`).
    Macro {
        /// Macro name without the `!`.
        name: String,
        /// 1-indexed source line.
        line: u32,
    },
    /// An indexing (or slicing) expression.
    Index {
        /// 1-indexed source line.
        line: u32,
    },
    /// An atomic operation with literal orderings.
    Atomic(AtomicEvent),
    /// A lock acquisition.
    Lock(LockEvent),
}

/// One recovered `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Display name with impl context (`Type::name`, or just `name`).
    pub qual: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// 1-indexed line of the body's closing brace.
    pub end_line: u32,
    /// Code-token range of the body (between the braces, exclusive).
    pub body: Range<usize>,
    /// Whether the item is test-gated (`#[cfg(test)]`, `#[test]`, or a
    /// test-gated enclosing module).
    pub in_test: bool,
    /// Whether the parameter list starts with a `self` receiver — i.e. the
    /// item can be the target of a `.name(…)` method call.
    pub has_self: bool,
    /// Number of parameters, not counting a `self` receiver.
    pub params: usize,
    /// Function-level `// lint: allow(panic-free): …` waiver.
    pub trusted_panic_free: bool,
    /// Function-level `// lint: allow(hot-path): …` waiver.
    pub trusted_alloc: bool,
    /// `// lint: panic-free` entry-point marker.
    pub entry_panic_free: bool,
    /// Extracted body events, in source order.
    pub events: Vec<Event>,
}

/// A `// lint: hot-path begin/end` region, by 1-indexed line.
#[derive(Debug, Clone, Copy)]
pub struct HotRegion {
    /// Line of the `begin` marker.
    pub begin: u32,
    /// Line of the `end` marker.
    pub end: u32,
}

/// An unbalanced region marker, reported by the hot-path rule.
#[derive(Debug, Clone)]
pub struct MarkerIssue {
    /// 1-indexed line of the offending marker.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// A fully parsed source file: token stream plus everything the rules and
/// analyses consume.
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Raw source lines (for waiver walk-ups and context checks).
    pub lines: Vec<String>,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices of non-comment tokens, in order (the "code" sequence).
    pub code: Vec<usize>,
    /// Per-line: the line is comment-only (or interior to a block comment).
    pub comment_only: Vec<bool>,
    /// Recovered functions.
    pub functions: Vec<FnDef>,
    /// Balanced hot-path regions.
    pub hot_regions: Vec<HotRegion>,
    /// Unbalanced hot-path markers.
    pub marker_issues: Vec<MarkerIssue>,
    /// 1-indexed line ranges gated by `#[cfg(test)]`/`#[test]`.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// The code token at code-sequence position `ci`.
    pub fn ct(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    /// Whether a 1-indexed line falls inside a test-gated range.
    pub fn line_in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    /// Whether a 1-indexed line falls inside a hot-path region.
    pub fn line_in_hot_region(&self, line: u32) -> bool {
        self.hot_regions
            .iter()
            .any(|r| line > r.begin && line < r.end)
    }

    /// Whether the statement at 0-indexed line `i` carries `marker` — on the
    /// line itself, or in the contiguous run of comment lines and statement
    /// continuations directly above it (same walk-up as the original
    /// line-based linter, but with token-accurate comment classification).
    pub fn justified(&self, i: usize, marker: &str) -> bool {
        if self.lines[i].contains(marker) {
            return true;
        }
        let mut j = i;
        while j > 0 {
            j -= 1;
            let line = &self.lines[j];
            if line.trim().is_empty() {
                return false;
            }
            if line.contains(marker) {
                return true;
            }
            if self.comment_only[j] {
                continue;
            }
            // A preceding code line ending a statement (or opening a block)
            // ends the search; anything else is a continuation of the same
            // multi-line expression and the walk continues past it.
            let trimmed = strip_line_comment(line).trim_end();
            if trimmed.ends_with(';') || trimmed.ends_with('{') || trimmed.ends_with('}') {
                return false;
            }
        }
        false
    }

    /// Parses `content` into a [`SourceFile`].
    pub fn parse(rel: &str, content: &str) -> SourceFile {
        let tokens = lex(content);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.kind.is_comment())
            .map(|(i, _)| i)
            .collect();
        let lines: Vec<String> = content.lines().map(str::to_string).collect();

        // Per-line classification from tokens: a line is comment-only when
        // tokens touch it but none of them is code.  Multi-line tokens
        // (block comments, raw strings) claim their interior lines.
        let mut has_code = vec![false; lines.len()];
        let mut has_comment = vec![false; lines.len()];
        for t in &tokens {
            let start = t.line as usize - 1;
            let span = t.text.matches('\n').count();
            for l in start..=(start + span).min(lines.len().saturating_sub(1)) {
                if t.kind.is_comment() {
                    has_comment[l] = true;
                } else {
                    has_code[l] = true;
                }
            }
        }
        let comment_only: Vec<bool> = (0..lines.len())
            .map(|l| has_comment[l] && !has_code[l])
            .collect();

        // Hot-path regions and entry markers live in plain `//` comments.
        let mut hot_regions = Vec::new();
        let mut marker_issues = Vec::new();
        let mut entry_lines = Vec::new();
        let mut open: Option<u32> = None;
        for t in &tokens {
            let TokenKind::LineComment { doc: false } = t.kind else {
                continue;
            };
            let body = t.text.trim_start_matches('/').trim();
            if body.starts_with("lint: hot-path begin") {
                if let Some(b) = open {
                    marker_issues.push(MarkerIssue {
                        line: t.line,
                        message: format!("nested hot-path begin (region open since line {b})"),
                    });
                }
                open = Some(t.line);
            } else if body.starts_with("lint: hot-path end") {
                match open.take() {
                    Some(begin) => hot_regions.push(HotRegion { begin, end: t.line }),
                    None => marker_issues.push(MarkerIssue {
                        line: t.line,
                        message: "hot-path end without a matching begin".to_string(),
                    }),
                }
            } else if body == "lint: panic-free" {
                entry_lines.push(t.line);
            }
        }
        if let Some(begin) = open {
            marker_issues.push(MarkerIssue {
                line: begin,
                message: "hot-path begin without a matching end".to_string(),
            });
        }

        let close_of = match_braces(&tokens, &code);
        let mut file = SourceFile {
            rel: rel.to_string(),
            lines,
            tokens,
            code,
            comment_only,
            functions: Vec::new(),
            hot_regions,
            marker_issues,
            test_ranges: Vec::new(),
        };
        let mut parser = ItemParser {
            file: &mut file,
            close_of: &close_of,
            entry_lines: &entry_lines,
        };
        parser.items(0, usize::MAX, None, false);
        file
    }
}

/// Strips a trailing `// …` comment, respecting string literals well enough
/// for continuation checks (a `//` inside a string stays).
pub fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// For every `{` in the code sequence, the code position of its matching
/// `}` (or the end of file when unbalanced).
fn match_braces(tokens: &[Token], code: &[usize]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    let mut stack = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        match tokens[ti].kind {
            TokenKind::Punct('{') => stack.push(ci),
            TokenKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    map.insert(open, ci);
                }
            }
            _ => {}
        }
    }
    for open in stack {
        map.insert(open, code.len().saturating_sub(1));
    }
    map
}

struct ItemParser<'a> {
    file: &'a mut SourceFile,
    close_of: &'a HashMap<usize, usize>,
    entry_lines: &'a [u32],
}

impl ItemParser<'_> {
    fn tok(&self, ci: usize) -> Option<&Token> {
        self.file.code.get(ci).map(|&ti| &self.file.tokens[ti])
    }

    fn text(&self, ci: usize) -> &str {
        self.file
            .code
            .get(ci)
            .map(|&ti| self.file.tokens[ti].text.as_str())
            .unwrap_or("")
    }

    fn is_punct(&self, ci: usize, ch: char) -> bool {
        self.tok(ci).is_some_and(|t| t.is_punct(ch))
    }

    fn line(&self, ci: usize) -> u32 {
        self.tok(ci).map_or(0, |t| t.line)
    }

    /// Parses items in `[from, to)`; `to == usize::MAX` means end of file.
    /// Returns the position after the region.
    fn items(&mut self, from: usize, to: usize, impl_type: Option<&str>, in_test: bool) -> usize {
        let mut ci = from;
        let mut pending_test = false;
        while ci < to.min(self.file.code.len()) {
            let Some(t) = self.tok(ci) else { break };
            let kind = t.kind;
            let word = if kind == TokenKind::Ident {
                t.text.clone()
            } else {
                String::new()
            };
            match kind {
                TokenKind::Punct('#') => {
                    // `#[…]` or `#![…]`: skip balanced brackets, noting
                    // cfg(test)/test attributes for the next item.
                    let mut k = ci + 1;
                    if self.is_punct(k, '!') {
                        k += 1;
                    }
                    if self.is_punct(k, '[') {
                        let mut depth = 0i32;
                        let mut saw_test = false;
                        while k < self.file.code.len() {
                            match self.tok(k).map(|t| &t.kind) {
                                Some(TokenKind::Punct('[')) => depth += 1,
                                Some(TokenKind::Punct(']')) => {
                                    depth -= 1;
                                    if depth == 0 {
                                        k += 1;
                                        break;
                                    }
                                }
                                Some(TokenKind::Ident) if self.text(k) == "test" => {
                                    saw_test = true;
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        if saw_test {
                            pending_test = true;
                        }
                        ci = k;
                    } else {
                        ci += 1;
                    }
                }
                TokenKind::Ident if word == "fn" => {
                    ci = self.function(ci, impl_type, in_test || pending_test);
                    pending_test = false;
                }
                TokenKind::Ident if word == "impl" => {
                    ci = self.impl_block(ci, in_test || pending_test);
                    pending_test = false;
                }
                TokenKind::Ident if word == "trait" => {
                    // `trait Name … { … }`: default method bodies inside are
                    // real code; parse the body as items under the trait's
                    // name.
                    let trait_name = self.text(ci + 1).to_string();
                    let mut k = ci + 1;
                    while k < self.file.code.len()
                        && !self.is_punct(k, '{')
                        && !self.is_punct(k, ';')
                    {
                        k += 1;
                    }
                    if self.is_punct(k, '{') {
                        let close = *self.close_of.get(&k).unwrap_or(&self.file.code.len());
                        if pending_test && !in_test {
                            let span = (self.line(ci), self.line(close));
                            self.file.test_ranges.push(span);
                        }
                        self.items(k + 1, close, Some(&trait_name), in_test || pending_test);
                        ci = close + 1;
                    } else {
                        ci = k + 1;
                    }
                    pending_test = false;
                }
                TokenKind::Ident if word == "mod" => {
                    // `mod name { … }` or `mod name;`
                    let mut k = ci + 1;
                    while k < self.file.code.len()
                        && !self.is_punct(k, '{')
                        && !self.is_punct(k, ';')
                    {
                        k += 1;
                    }
                    if self.is_punct(k, '{') {
                        let close = *self.close_of.get(&k).unwrap_or(&self.file.code.len());
                        let gated = in_test || pending_test;
                        if pending_test && !in_test {
                            let span = (self.line(ci), self.line(close));
                            self.file.test_ranges.push(span);
                        }
                        self.items(k + 1, close, None, gated);
                        ci = close + 1;
                    } else {
                        ci = k + 1;
                    }
                    pending_test = false;
                }
                TokenKind::Punct('{') => {
                    // An unrecognized braced item (struct/enum/trait body,
                    // const initializer, …): record its test gate, skip it.
                    let close = *self.close_of.get(&ci).unwrap_or(&self.file.code.len());
                    if pending_test && !in_test {
                        let span = (self.line(ci), self.line(close));
                        self.file.test_ranges.push(span);
                    }
                    ci = close + 1;
                    pending_test = false;
                }
                TokenKind::Punct(';') => {
                    ci += 1;
                    pending_test = false;
                }
                TokenKind::Punct('}') => {
                    // Close of an enclosing scope we were asked to parse past
                    // (unbalanced input): stop here.
                    break;
                }
                _ => ci += 1,
            }
        }
        ci
    }

    /// Parses an `impl … { … }` block starting at the `impl` keyword.
    fn impl_block(&mut self, start: usize, in_test: bool) -> usize {
        let mut k = start + 1;
        let mut angle = 0i32;
        let mut candidate: Option<String> = None;
        while k < self.file.code.len() && !self.is_punct(k, '{') && !self.is_punct(k, ';') {
            match self.tok(k).map(|t| (&t.kind, t.text.as_str())) {
                Some((TokenKind::Punct('<'), _)) => angle += 1,
                Some((TokenKind::Punct('>'), _)) => angle -= 1,
                Some((TokenKind::Ident, "for")) if angle == 0 => candidate = None,
                Some((TokenKind::Ident, "where")) if angle == 0 => break,
                Some((TokenKind::Ident, text)) if angle == 0 => {
                    candidate = Some(text.to_string());
                }
                _ => {}
            }
            k += 1;
        }
        while k < self.file.code.len() && !self.is_punct(k, '{') && !self.is_punct(k, ';') {
            k += 1;
        }
        if self.is_punct(k, '{') {
            let close = *self.close_of.get(&k).unwrap_or(&self.file.code.len());
            if in_test {
                let span = (self.line(start), self.line(close));
                self.file.test_ranges.push(span);
            }
            self.items(k + 1, close, candidate.as_deref(), in_test);
            close + 1
        } else {
            k + 1
        }
    }

    /// Parses a `fn` item starting at the `fn` keyword; extracts the body's
    /// events and registers the [`FnDef`].  Returns the position after it.
    fn function(&mut self, start: usize, impl_type: Option<&str>, in_test: bool) -> usize {
        let name = match self.tok(start + 1) {
            Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
            _ => return start + 1,
        };
        let sig_line = self.line(start);
        // Signature runs to the body `{` (or `;` for bodiless trait items)
        // at bracket depth 0.  `->` return types and generic bounds never
        // contain a top-level `{`.
        let mut k = start + 2;
        let mut depth = 0i32;
        while k < self.file.code.len() {
            match self.tok(k).map(|t| &t.kind) {
                Some(TokenKind::Punct('(' | '[')) => depth += 1,
                Some(TokenKind::Punct(')' | ']')) => depth -= 1,
                Some(TokenKind::Punct('{')) if depth == 0 => break,
                Some(TokenKind::Punct(';')) if depth == 0 => return k + 1,
                _ => {}
            }
            k += 1;
        }
        if k >= self.file.code.len() {
            return k;
        }
        let close = *self.close_of.get(&k).unwrap_or(&self.file.code.len());
        let body = (k + 1)..close;
        let end_line = self.line(close.min(self.file.code.len().saturating_sub(1)));

        let gated_test = in_test || self.file.line_in_test(sig_line);
        if in_test && !self.file.line_in_test(sig_line) {
            self.file.test_ranges.push((sig_line, end_line));
        }

        // Does the parameter list start with a `self` receiver?  Skip a
        // leading generics section (its bounds may nest parens, e.g.
        // `Fn(u32)`), then look for `self` before the first top-level comma.
        let mut has_self = false;
        let mut params = 0;
        {
            let mut j = start + 2;
            if matches!(self.tok(j).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
                let mut ang = 0i32;
                while j < k {
                    match self.tok(j).map(|t| &t.kind) {
                        Some(TokenKind::Punct('<')) => ang += 1,
                        Some(TokenKind::Punct('>')) => {
                            ang -= 1;
                            if ang == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            let open = j;
            let mut d = 0i32;
            while j < k {
                match self.tok(j) {
                    Some(t) if t.kind == TokenKind::Punct('(') => d += 1,
                    Some(t) if t.kind == TokenKind::Punct(')') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    Some(t) if t.kind == TokenKind::Punct(',') && d == 1 => break,
                    Some(t) if t.kind == TokenKind::Ident && d == 1 && t.text == "self" => {
                        has_self = true;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if self.is_punct(open, '(') {
                params = self
                    .top_level_items(open, true)
                    .unwrap_or(0)
                    .saturating_sub(usize::from(has_self));
            }
        }

        let (trusted_panic_free, trusted_alloc, entry_marked) = self.fn_markers(sig_line);
        let qual = match impl_type {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        let events = self.body_events(body.clone(), close);
        let def = FnDef {
            name,
            qual,
            line: sig_line,
            end_line,
            body,
            in_test: gated_test,
            has_self,
            params,
            trusted_panic_free,
            trusted_alloc,
            entry_panic_free: entry_marked,
            events,
        };
        self.file.functions.push(def);
        close + 1
    }

    /// Function-level markers from the contiguous comment/attribute block
    /// directly above the signature (and the signature line itself).
    fn fn_markers(&self, sig_line: u32) -> (bool, bool, bool) {
        let mut panic_free = false;
        let mut alloc = false;
        let mut entry = false;
        let mut check = |line_1idx: u32| {
            let Some(text) = self.file.lines.get(line_1idx as usize - 1) else {
                return;
            };
            if text.contains("lint: allow(panic-free):") {
                panic_free = true;
            }
            if text.contains("lint: allow(hot-path):") {
                alloc = true;
            }
            if self.entry_lines.contains(&line_1idx) {
                entry = true;
            }
        };
        check(sig_line);
        let mut j = sig_line as usize; // 1-indexed; walk up from sig_line-1
        while j > 1 {
            j -= 1;
            let idx0 = j - 1;
            let line = &self.file.lines[idx0];
            if self.file.comment_only[idx0] {
                check(j as u32);
                continue;
            }
            let trimmed = line.trim_start();
            if trimmed.starts_with('#') {
                // An attribute line of the same item.
                continue;
            }
            break;
        }
        (panic_free, alloc, entry)
    }

    /// Extracts body events between code positions `[from, to)`.  Nested
    /// `fn` items are parsed recursively as their own defs (their events do
    /// not leak into the enclosing body).
    fn body_events(&mut self, range: Range<usize>, body_close: usize) -> Vec<Event> {
        let mut events = Vec::new();
        let mut brace_stack: Vec<usize> = Vec::new();
        let mut stmt_start = range.start;
        let mut ci = range.start;
        while ci < range.end {
            let Some(t) = self.tok(ci) else { break };
            let kind = t.kind;
            let line = t.line;
            let word = if kind == TokenKind::Ident {
                t.text.clone()
            } else {
                String::new()
            };
            match kind {
                TokenKind::Ident if word == "fn" => {
                    // A nested item; its body is someone else's events.
                    let after = self.function(ci, None, false);
                    ci = after;
                    stmt_start = ci;
                    continue;
                }
                TokenKind::Punct('{') => {
                    brace_stack.push(ci);
                    stmt_start = ci + 1;
                }
                TokenKind::Punct('}') => {
                    brace_stack.pop();
                    stmt_start = ci + 1;
                }
                TokenKind::Punct(';') => {
                    stmt_start = ci + 1;
                }
                TokenKind::Punct('[') if self.is_index_site(ci) => {
                    events.push(Event::Index { line });
                }
                TokenKind::Ident => {
                    if self.is_punct(ci + 1, '!') && self.macro_delim(ci + 2) {
                        events.push(Event::Macro { name: word, line });
                    } else if self.is_punct(ci + 1, '(') && !CALL_KEYWORDS.contains(&word.as_str())
                    {
                        let method = ci > 0 && self.is_punct(ci - 1, '.');
                        let qualifier = self.path_qualifier(ci);
                        if method {
                            if let Some(ev) = self.atomic_event(ci, &word, line) {
                                events.push(Event::Atomic(ev));
                            }
                            if let Some(ev) = self.lock_event(
                                ci,
                                &word,
                                line,
                                &brace_stack,
                                stmt_start,
                                range.end,
                                body_close,
                            ) {
                                events.push(Event::Lock(ev));
                            }
                        }
                        events.push(Event::Call(CallEvent {
                            name: word,
                            qualifier,
                            method,
                            args: self.top_level_items(ci + 1, false),
                            line,
                            cidx: ci,
                        }));
                    }
                }
                _ => {}
            }
            ci += 1;
        }
        events
    }

    /// The number of comma-separated items at the top level of the
    /// parenthesised list opening at `open`, a trailing comma ignored.
    ///
    /// In a call's argument list (`signature` false) a top-level `|` or `<`
    /// makes the count uncertain (`None`): a closure's parameters, or a
    /// turbofish, generic arguments or a comparison.  In a signature's
    /// parameter list (`signature` true) `<`/`>` nest generic arguments
    /// instead (the `>` of `->` aside).
    fn top_level_items(&self, open: usize, signature: bool) -> Option<usize> {
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut items = 0;
        let mut pending = false;
        let mut k = open;
        while let Some(t) = self.tok(k) {
            match t.kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(items + usize::from(pending));
                    }
                }
                TokenKind::Punct('<') if depth == 1 && signature => angle += 1,
                TokenKind::Punct('>') if depth == 1 && signature && !self.is_punct(k - 1, '-') => {
                    angle -= 1
                }
                TokenKind::Punct('|' | '<') if depth == 1 && !signature => return None,
                TokenKind::Punct(',') if depth == 1 && angle == 0 => {
                    items += usize::from(pending);
                    pending = false;
                    k += 1;
                    continue;
                }
                _ => {}
            }
            if depth == 1 && k > open {
                pending = true;
            }
            k += 1;
        }
        None
    }

    /// Whether the `[` at `ci` is an indexing/slicing expression: it follows
    /// a value (identifier, call result, or another index), not a type,
    /// pattern, attribute or macro-bang position.
    fn is_index_site(&self, ci: usize) -> bool {
        if ci == 0 {
            return false;
        }
        match self.tok(ci - 1).map(|t| (&t.kind, t.text.as_str())) {
            Some((TokenKind::Ident, text)) => !matches!(
                text,
                "let" | "in" | "mut" | "ref" | "box" | "return" | "dyn" | "impl"
            ),
            Some((TokenKind::Punct(')' | ']'), _)) => true,
            _ => false,
        }
    }

    /// Whether the token at `ci` opens a macro body (`(`, `[` or `{`); a
    /// bare `!` is negation or `!=`.
    fn macro_delim(&self, ci: usize) -> bool {
        matches!(
            self.tok(ci).map(|t| &t.kind),
            Some(TokenKind::Punct('(' | '[' | '{'))
        )
    }

    /// For `Qual::name(`-shaped calls, the path segment before the last
    /// `::`.
    fn path_qualifier(&self, ci: usize) -> Option<String> {
        if ci >= 3
            && self.is_punct(ci - 1, ':')
            && self.is_punct(ci - 2, ':')
            && self.tok(ci - 3).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            Some(self.text(ci - 3).to_string())
        } else {
            None
        }
    }

    /// The last path component of a method call's receiver: walks back over
    /// one `[…]` or `(…)` group and takes the identifier (or tuple-field
    /// number) before it.
    fn receiver_field(&self, method_ci: usize) -> String {
        // method_ci is the method name; method_ci - 1 is the `.`.
        let mut j = method_ci.saturating_sub(2);
        loop {
            match self.tok(j).map(|t| (&t.kind, t.text.as_str())) {
                Some((TokenKind::Punct(']'), _)) | Some((TokenKind::Punct(')'), _)) => {
                    let open = if self.is_punct(j, ']') { '[' } else { '(' };
                    let close = if open == '[' { ']' } else { ')' };
                    let mut depth = 0i32;
                    while j > 0 {
                        if self.is_punct(j, close) {
                            depth += 1;
                        } else if self.is_punct(j, open) {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j -= 1;
                    }
                    if j == 0 {
                        return "<expr>".to_string();
                    }
                    j -= 1;
                }
                Some((TokenKind::Ident, text)) => return text.to_string(),
                Some((TokenKind::NumLit, text)) => return text.to_string(),
                _ => return "<expr>".to_string(),
            }
        }
    }

    /// If the method call at `ci` is an atomic op with literal `Ordering::*`
    /// arguments, the corresponding event.
    fn atomic_event(&self, ci: usize, name: &str, line: u32) -> Option<AtomicEvent> {
        if !ATOMIC_OPS.contains(&name) {
            return None;
        }
        // Scan the argument list for `…Ordering :: Variant`.
        let mut orderings = Vec::new();
        let mut depth = 0i32;
        let mut k = ci + 1;
        while k < self.file.code.len() {
            match self.tok(k).map(|t| &t.kind) {
                Some(TokenKind::Punct('(')) => depth += 1,
                Some(TokenKind::Punct(')')) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Some(TokenKind::Ident)
                    if self.text(k).ends_with("Ordering")
                        && self.is_punct(k + 1, ':')
                        && self.is_punct(k + 2, ':') =>
                {
                    let variant = self.text(k + 3);
                    if matches!(
                        variant,
                        "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                    ) {
                        orderings.push(variant.to_string());
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if orderings.is_empty() {
            return None;
        }
        Some(AtomicEvent {
            field: self.receiver_field(ci),
            op: name.to_string(),
            orderings,
            line,
        })
    }

    /// If the method call at `ci` is a zero-argument `lock()`/`read()`/
    /// `write()`, the lock event with its guard scope.
    #[allow(clippy::too_many_arguments)]
    fn lock_event(
        &self,
        ci: usize,
        name: &str,
        line: u32,
        brace_stack: &[usize],
        stmt_start: usize,
        body_end: usize,
        body_close: usize,
    ) -> Option<LockEvent> {
        if !matches!(name, "lock" | "read" | "write") {
            return None;
        }
        if !self.is_punct(ci + 1, '(') || !self.is_punct(ci + 2, ')') {
            return None;
        }
        // A `let`-bound guard is block-scoped.  Temporaries in `if let` /
        // `while let` / `match` / `for` heads also outlive their statement
        // (Rust keeps condition temporaries alive for the whole construct),
        // so they get block scope too — a safe over-approximation for lock
        // ordering.
        let head = self.text(stmt_start);
        let let_bound =
            head == "let" || matches!(head, "if" | "while" | "match" | "for") || head == "else";
        let scope_end = if let_bound {
            match brace_stack.last() {
                Some(open) => *self.close_of.get(open).unwrap_or(&body_close),
                None => body_close,
            }
        } else {
            // Temporary guard: dies at the end of the statement.
            let mut depth = 0i32;
            let mut k = ci + 1;
            let mut end = body_end;
            while k < body_end {
                match self.tok(k).map(|t| &t.kind) {
                    Some(TokenKind::Punct('(' | '[' | '{')) => depth += 1,
                    Some(TokenKind::Punct(')' | ']' | '}')) => {
                        if depth == 0 {
                            end = k;
                            break;
                        }
                        depth -= 1;
                    }
                    Some(TokenKind::Punct(';')) if depth == 0 => {
                        end = k;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            end
        };
        Some(LockEvent {
            field: self.receiver_field(ci),
            method: name.to_string(),
            line,
            cidx: ci,
            scope_end,
            let_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/a.rs", src)
    }

    fn fn_named<'a>(f: &'a SourceFile, name: &str) -> &'a FnDef {
        f.functions
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    #[test]
    fn recovers_fns_with_impl_context() {
        let f = parse(
            "impl Foo { pub fn bar(&self) -> u32 { 1 } }\n\
             impl Display for Baz { fn fmt(&self) {} }\n\
             fn free() {}\n",
        );
        assert_eq!(fn_named(&f, "bar").qual, "Foo::bar");
        assert_eq!(fn_named(&f, "fmt").qual, "Baz::fmt");
        assert_eq!(fn_named(&f, "free").qual, "free");
    }

    #[test]
    fn generic_impl_headers_resolve_the_type_not_the_params() {
        let f = parse("impl<T: Clone> Wrapper<T> { fn get(&self) {} }");
        assert_eq!(fn_named(&f, "get").qual, "Wrapper::get");
    }

    #[test]
    fn calls_methods_and_macros_are_extracted() {
        let f = parse(
            "fn f() {\n    helper(1);\n    x.method(2);\n    Vec::with_capacity(3);\n    \
             panic!(\"boom\");\n    let ok = a != b;\n}\n",
        );
        let def = fn_named(&f, "f");
        let calls: Vec<(&str, bool)> = def
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some((c.name.as_str(), c.method)),
                _ => None,
            })
            .collect();
        assert_eq!(
            calls,
            [
                ("helper", false),
                ("method", true),
                ("with_capacity", false)
            ]
        );
        let macros: Vec<&str> = def
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Macro { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(macros, ["panic"]);
    }

    #[test]
    fn qualifier_is_recovered_for_path_calls() {
        let f = parse("fn f() { Vec::new(); dla::deep::path::build(); }");
        let quals: Vec<Option<String>> = fn_named(&f, "f")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some(c.qualifier.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(quals, [Some("Vec".to_string()), Some("path".to_string())]);
    }

    #[test]
    fn indexing_is_distinguished_from_types_patterns_and_macros() {
        let f = parse(
            "fn f(xs: &[f64], m: [f64; 3]) -> f64 {\n    let a = [0.0; 4];\n    \
             let [p, q] = [1, 2];\n    let v = vec![1];\n    #[allow(dead_code)]\n    \
             let s = &xs[1..3];\n    xs[0] + m[1] + a[2] + s[0]\n}\n",
        );
        let count = fn_named(&f, "f")
            .events
            .iter()
            .filter(|e| matches!(e, Event::Index { .. }))
            .count();
        assert_eq!(count, 5, "xs[1..3], xs[0], m[1], a[2], s[0]");
    }

    #[test]
    fn atomic_events_carry_field_op_and_orderings() {
        let f = parse(
            "fn f(&self) {\n    self.generation.store(1, Ordering::Release);\n    \
             self.word.compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire);\n    \
             self.shared.swap(repo);\n    c.load(order);\n}\n",
        );
        let atomics: Vec<(String, String, Vec<String>)> = fn_named(&f, "f")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Atomic(a) => Some((a.field.clone(), a.op.clone(), a.orderings.clone())),
                _ => None,
            })
            .collect();
        // Non-atomic swap (no literal ordering) and variable orderings are
        // not atomic events.
        assert_eq!(atomics.len(), 2);
        assert_eq!(atomics[0].0, "generation");
        assert_eq!(atomics[0].2, ["Release"]);
        assert_eq!(atomics[1].0, "word");
        assert_eq!(atomics[1].2, ["AcqRel", "Acquire"]);
    }

    #[test]
    fn lock_guard_scopes_are_block_or_statement() {
        let f = parse(
            "fn f(&self) {\n    let g = self.inner.write();\n    self.other.read().len();\n    \
             drop(g);\n}\n",
        );
        let locks: Vec<(String, bool)> = fn_named(&f, "f")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Lock(l) => Some((l.field.clone(), l.let_bound)),
                _ => None,
            })
            .collect();
        assert_eq!(
            locks,
            [("inner".to_string(), true), ("other".to_string(), false)]
        );
        // The let-bound guard's scope extends past the temporary's.
        let lock_events: Vec<&LockEvent> = fn_named(&f, "f")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Lock(l) => Some(l),
                _ => None,
            })
            .collect();
        assert!(lock_events[0].scope_end > lock_events[1].scope_end);
    }

    #[test]
    fn receiver_fields_see_through_indexing_and_tuple_fields() {
        let f = parse(
            "fn f(&self) {\n    self.slots[i].lock();\n    self.0.read();\n    \
             self.counters.queries.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        let fields: Vec<String> = fn_named(&f, "f")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Lock(l) => Some(l.field.clone()),
                Event::Atomic(a) => Some(a.field.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(fields, ["slots", "0", "queries"]);
    }

    #[test]
    fn cfg_test_ranges_cover_gated_mods_and_fns() {
        let f = parse(
            "fn lib() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n\
             #[cfg(test)]\nfn helper() {}\n",
        );
        assert!(!f.line_in_test(1));
        assert!(f.line_in_test(3));
        assert!(f.line_in_test(5));
        assert!(f.line_in_test(8));
        assert!(fn_named(&f, "t").in_test);
        assert!(fn_named(&f, "helper").in_test);
        assert!(!fn_named(&f, "lib").in_test);
    }

    #[test]
    fn hot_regions_and_marker_issues_ignore_strings_and_docs() {
        let f = parse(
            "//! doc mentioning lint: hot-path begin is inert\n\
             fn f() {\n    // lint: hot-path begin\n    let x = 1;\n    // lint: hot-path end\n}\n\
             fn g() { let s = \"// lint: hot-path begin\"; }\n",
        );
        assert_eq!(f.hot_regions.len(), 1);
        assert_eq!((f.hot_regions[0].begin, f.hot_regions[0].end), (3, 5));
        assert!(f.marker_issues.is_empty());
    }

    #[test]
    fn unbalanced_markers_are_reported() {
        let f = parse("// lint: hot-path begin\nfn f() {}\n");
        assert_eq!(f.marker_issues.len(), 1);
        let f = parse("fn f() {}\n// lint: hot-path end\n");
        assert_eq!(f.marker_issues.len(), 1);
    }

    #[test]
    fn fn_level_markers_walk_the_comment_block() {
        let f = parse(
            "/// Docs.\n// lint: allow(panic-free): verified by proof sketch\n#[inline]\n\
             pub fn trusted() {}\n\n// lint: panic-free\npub fn entry() {}\n\npub fn plain() {}\n",
        );
        assert!(fn_named(&f, "trusted").trusted_panic_free);
        assert!(fn_named(&f, "entry").entry_panic_free);
        assert!(!fn_named(&f, "plain").trusted_panic_free);
        assert!(!fn_named(&f, "plain").entry_panic_free);
    }

    #[test]
    fn nested_fns_keep_their_events_separate() {
        let f = parse("fn outer() {\n    fn inner() { danger.unwrap(); }\n    safe();\n}\n");
        let outer_calls: Vec<&str> = fn_named(&f, "outer")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some(c.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(outer_calls, ["safe"]);
        let inner_calls: Vec<&str> = fn_named(&f, "inner")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some(c.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(inner_calls, ["unwrap"]);
    }

    #[test]
    fn justified_walks_over_comments_and_continuations() {
        let f = parse(
            "fn bump(c: &AtomicU64) {\n    // ordering: Relaxed - standalone stat\n    \
             c.store(\n        c.load(Ordering::Relaxed) + 1,\n        Ordering::Relaxed,\n    );\n}\n",
        );
        assert!(f.justified(3, "// ordering:"));
        assert!(f.justified(4, "// ordering:"));
        let g = parse("fn f() {\n    let x = 1;\n    c.load(Ordering::Relaxed);\n}\n");
        assert!(!g.justified(2, "// ordering:"));
    }
}
