//! Item/block structure on top of the lexer: function items (name,
//! visibility, attribute block, brace-matched body), the loops inside
//! each body, and the `#[cfg(test)]` / `#[test]` spans every lint skips.
//!
//! This is deliberately not a parser — no expressions, no types. The
//! lints need exactly three structural facts: *which function am I in*,
//! *where does this loop's body end*, and *is this token test-only code*.
//! Everything is computed from the comment-free token sequence, so
//! braces inside strings or comments can never unbalance a span.

use crate::lexer::{lex, Token, TokenKind};

/// One `fn` item (free function or method; nested functions get their
/// own entry).
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Byte offset where the item's contiguous attribute block starts
    /// (equals the `fn`/`pub` offset when there are no attributes).
    pub attrs_start: usize,
    /// Byte span of the `{ … }` body; `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// Loops lexically inside the body, in source order.
    pub loops: Vec<LoopItem>,
}

/// A `for`/`while`/`loop` construct inside a function body.
#[derive(Debug)]
pub struct LoopItem {
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Byte span of the loop's `{ … }` body.
    pub body: (usize, usize),
}

/// A lexed and structurally scanned source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub text: String,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens.
    pub code: Vec<usize>,
    pub fns: Vec<FnItem>,
    /// Byte spans of test-only items (`#[cfg(test)]` / `#[test]`),
    /// attribute included.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            path: path.to_string(),
            text: text.to_string(),
            tokens,
            code,
            fns: Vec::new(),
            test_spans: Vec::new(),
        };
        file.scan_test_spans();
        file.scan_fns();
        file
    }

    /// Text of the code token at code-index `ci`.
    fn code_text(&self, ci: usize) -> &str {
        self.tokens[self.code[ci]].text(&self.text)
    }

    fn code_kind(&self, ci: usize) -> TokenKind {
        self.tokens[self.code[ci]].kind
    }

    fn code_tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    /// Whether a byte offset falls inside a test-only span.
    pub(crate) fn in_test(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// The innermost function whose body contains `offset`.
    pub(crate) fn enclosing_fn(&self, offset: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| offset >= s && offset < e))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(s, e)| e - s))
    }

    /// Code-token indices whose byte offsets fall inside `span`.
    pub(crate) fn code_in_span(&self, span: (usize, usize)) -> std::ops::Range<usize> {
        let lo = self
            .code
            .partition_point(|&i| self.tokens[i].start < span.0);
        let hi = self
            .code
            .partition_point(|&i| self.tokens[i].start < span.1);
        lo..hi
    }

    /// From the code token at `ci` (exclusive), finds the span of the
    /// next brace block at paren/bracket depth 0 — the body of a
    /// function or loop whose header starts at `ci`. Returns byte span.
    fn next_block(&self, ci: usize) -> Option<(usize, usize)> {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut j = ci + 1;
        while j < self.code.len() {
            match (self.code_kind(j), self.code_text(j)) {
                (TokenKind::Punct, "(") => paren += 1,
                (TokenKind::Punct, ")") => paren -= 1,
                (TokenKind::Punct, "[") => bracket += 1,
                (TokenKind::Punct, "]") => bracket -= 1,
                (TokenKind::Punct, ";") if paren == 0 && bracket == 0 => return None,
                (TokenKind::Punct, "{") if paren == 0 && bracket == 0 => {
                    let start = self.code_tok(j).start;
                    let end = self.match_brace(j)?;
                    return Some((start, end));
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Given the code index of a `{`, returns the byte offset one past
    /// its matching `}`.
    fn match_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        for j in open..self.code.len() {
            if self.code_kind(j) == TokenKind::Punct {
                match self.code_text(j) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(self.code_tok(j).end);
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Marks `#[cfg(test)]` and `#[test]` items (attribute through the
    /// end of the following item) as test spans.
    fn scan_test_spans(&mut self) {
        let mut spans = Vec::new();
        let mut ci = 0;
        while ci < self.code.len() {
            if self.code_text(ci) == "#"
                && ci + 1 < self.code.len()
                && self.code_text(ci + 1) == "["
            {
                if let Some(close) = self.match_bracket(ci + 1) {
                    if self.attr_is_test(ci + 1, close) {
                        let start = self.code_tok(ci).start;
                        let end = self.item_end_after(close);
                        spans.push((start, end));
                        // Continue past the whole item: nested attrs
                        // inside it need no separate span.
                        ci = self.code.partition_point(|&i| self.tokens[i].start < end);
                        continue;
                    }
                    ci = close + 1;
                    continue;
                }
            }
            ci += 1;
        }
        self.test_spans = spans;
    }

    /// Given the code index of a `[`, returns the code index of its
    /// matching `]`.
    fn match_bracket(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        for j in open..self.code.len() {
            if self.code_kind(j) == TokenKind::Punct {
                match self.code_text(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j);
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Whether the attribute tokens in code range (`open`, `close`)
    /// exclusive mark test-only code: `#[test]`, or a `cfg(…)` whose
    /// argument mentions `test`.
    fn attr_is_test(&self, open: usize, close: usize) -> bool {
        let inner: Vec<&str> = ((open + 1)..close).map(|ci| self.code_text(ci)).collect();
        if inner == ["test"] {
            return true;
        }
        // `cfg(…)` whose argument mentions `test` outside a `not(…)`:
        // `#[cfg(test)]`, `#[cfg(any(test, fuzzing))]` are test-only;
        // `#[cfg(not(test))]` is production code.
        if inner.first() != Some(&"cfg") {
            return false;
        }
        let mut not_depth: Vec<i32> = Vec::new(); // paren depths owned by a `not`
        let mut depth = 0i32;
        let mut prev_was_not = false;
        for &t in &inner {
            match t {
                "(" => {
                    depth += 1;
                    if prev_was_not {
                        not_depth.push(depth);
                    }
                }
                ")" => {
                    if not_depth.last() == Some(&depth) {
                        not_depth.pop();
                    }
                    depth -= 1;
                }
                "test" if not_depth.is_empty() => return true,
                _ => {}
            }
            prev_was_not = t == "not";
        }
        false
    }

    /// End offset of the item following an attribute (code index of its
    /// closing `]`): skips further attribute groups, then runs to the
    /// end of a brace block or a top-level `;`.
    fn item_end_after(&self, attr_close: usize) -> usize {
        let mut ci = attr_close + 1;
        // Skip stacked attributes.
        while ci + 1 < self.code.len() && self.code_text(ci) == "#" && self.code_text(ci + 1) == "["
        {
            match self.match_bracket(ci + 1) {
                Some(close) => ci = close + 1,
                None => break,
            }
        }
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while ci < self.code.len() {
            match (self.code_kind(ci), self.code_text(ci)) {
                (TokenKind::Punct, "(") => paren += 1,
                (TokenKind::Punct, ")") => paren -= 1,
                (TokenKind::Punct, "[") => bracket += 1,
                (TokenKind::Punct, "]") => bracket -= 1,
                (TokenKind::Punct, ";") if paren == 0 && bracket == 0 => {
                    return self.code_tok(ci).end;
                }
                (TokenKind::Punct, "{") if paren == 0 && bracket == 0 => {
                    return self.match_brace(ci).unwrap_or(self.text.len());
                }
                _ => {}
            }
            ci += 1;
        }
        self.text.len()
    }

    fn scan_fns(&mut self) {
        let mut fns = Vec::new();
        for ci in 0..self.code.len() {
            if self.code_kind(ci) != TokenKind::Ident || self.code_text(ci) != "fn" {
                continue;
            }
            // `fn` in a function-pointer type (`fn(i32) -> i32`) has no
            // name; an item's `fn` is followed by an identifier.
            let Some(name_ci) = (ci + 1 < self.code.len()).then_some(ci + 1) else {
                continue;
            };
            if self.code_kind(name_ci) != TokenKind::Ident {
                continue;
            }
            let name = self.code_text(name_ci).to_string();
            let (is_pub, head_ci) = self.fn_visibility(ci);
            let attrs_start = self.attrs_start(head_ci);
            let body = self.next_block(name_ci);
            let loops = match body {
                Some(span) => self.scan_loops(span),
                None => Vec::new(),
            };
            fns.push(FnItem {
                name,
                is_pub,
                line: self.code_tok(ci).line,
                attrs_start,
                body,
                loops,
            });
        }
        self.fns = fns;
    }

    /// Walks back from the `fn` keyword over its qualifier tokens
    /// (`pub`, `pub(crate)`, `const`, `unsafe`, `async`, `extern "C"`)
    /// and reports visibility plus the code index where the item header
    /// starts.
    fn fn_visibility(&self, fn_ci: usize) -> (bool, usize) {
        let mut is_pub = false;
        let mut head = fn_ci;
        let mut ci = fn_ci;
        while ci > 0 {
            let prev = ci - 1;
            match (self.code_kind(prev), self.code_text(prev)) {
                (TokenKind::Ident, "const" | "unsafe" | "async" | "extern") => {
                    head = prev;
                    ci = prev;
                }
                (TokenKind::Ident, "pub") => {
                    is_pub = true;
                    head = prev;
                    ci = prev;
                }
                (TokenKind::Str, _) => {
                    // The ABI string of `extern "C"`.
                    head = prev;
                    ci = prev;
                }
                (TokenKind::Punct, ")") => {
                    // `pub(crate)` / `pub(super)`: rewind to the `(` and
                    // let the next iteration find `pub`.
                    let mut j = prev;
                    while j > 0 && self.code_text(j) != "(" {
                        j -= 1;
                    }
                    if j > 0 && self.code_text(j - 1) == "pub" {
                        // Restricted visibility (`pub(crate)`) is not
                        // workspace-public; `pub` is consumed here.
                        head = j - 1;
                    }
                    break;
                }
                _ => break,
            }
        }
        (is_pub, head)
    }

    /// Byte offset where the contiguous attribute block above the item
    /// header at code index `head_ci` starts.
    fn attrs_start(&self, head_ci: usize) -> usize {
        let mut start = self.code_tok(head_ci).start;
        let mut ci = head_ci;
        while ci >= 2 && self.code_text(ci - 1) == "]" {
            // Walk back over one `#[ … ]` group.
            let mut depth = 0i32;
            let mut j = ci - 1;
            loop {
                match self.code_text(j) {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return start;
                }
                j -= 1;
            }
            if j == 0 || self.code_text(j - 1) != "#" {
                break;
            }
            start = self.code_tok(j - 1).start;
            ci = j - 1;
        }
        start
    }

    /// Finds every `for`/`while`/`loop` in the byte span (a function
    /// body) and brace-matches each loop's body.
    fn scan_loops(&self, span: (usize, usize)) -> Vec<LoopItem> {
        let mut out = Vec::new();
        for ci in self.code_in_span(span) {
            if self.code_kind(ci) != TokenKind::Ident {
                continue;
            }
            match self.code_text(ci) {
                "loop" | "while" => {}
                "for" => {
                    // `for<'a>` bounds and `impl Trait for Type` are not
                    // loops: the former is followed by `<`, the latter
                    // preceded by a type (an ident, or a closing `>` that
                    // is not part of a match arm's `=>`).
                    if ci + 1 < self.code.len() && self.code_text(ci + 1) == "<" {
                        continue;
                    }
                    if ci > 0 && self.code_kind(ci - 1) == TokenKind::Ident {
                        continue;
                    }
                    if ci > 0
                        && self.code_text(ci - 1) == ">"
                        && !(ci > 1 && self.code_text(ci - 2) == "=")
                    {
                        continue;
                    }
                }
                _ => continue,
            }
            if let Some(body) = self.next_block(ci) {
                // Only loops whose body is inside the function span.
                if body.1 <= span.1 {
                    out.push(LoopItem {
                        line: self.code_tok(ci).line,
                        body,
                    });
                }
            }
        }
        out
    }
}
