//! A lightweight statement/expression AST over the [`crate::lexer`]
//! token stream.
//!
//! The token-scanning rules (L1–L4, L6) pattern-match locally; the
//! temporal rules (L5 stale-projection, L7 lock-across-boundary, L8
//! dropped-transient) need to know *what happens between two program
//! points*, which requires statement structure: a recursive-descent
//! parse of each function body into `let` bindings, assignments,
//! `if`/`match`/loop control flow, and opaque expression statements.
//! [`crate::cfg`] lowers the result to a control-flow graph and
//! [`crate::dataflow`] runs fixpoint analyses over it.
//!
//! The parser is deliberately *approximate* where precision does not
//! pay for itself: an expression (including a block expression used as
//! a `let` initializer, or a closure body) is summarized as the flat
//! set of calls, identifier uses, and `drop(x)` releases it contains,
//! in token order. It is also *total*: confused input degrades to an
//! opaque expression statement, never a panic — the linter must
//! survive every file in the workspace plus arbitrary fixtures.

use crate::lexer::{Token, TokenKind};

/// One function/method call site inside an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The called name (`apply`, `lock`, `project_nb`, …) — the last
    /// path segment for free calls, the method name for method calls.
    pub name: String,
    /// Whether the call is a method call (preceded by `.`).
    pub method: bool,
    /// 1-based source line of the name token.
    pub line: u32,
    /// 1-based source column of the name token.
    pub col: u32,
    /// Token index of the name token (orders events within one
    /// statement).
    pub idx: usize,
    /// Token index of the `)` closing the argument list — `idx <
    /// other.idx <= close` means `other` is nested in this call's
    /// arguments.
    pub close: usize,
}

/// One identifier use (expression position) inside an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Use {
    /// The identifier.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Token index (orders events within one statement).
    pub idx: usize,
}

/// Flat summary of one expression: calls, uses, `&mut` borrows and
/// `drop(x)` releases, in token order. Macros are recorded by name but
/// their invocations are *not* calls (a `write!` into a `String` is
/// not I/O).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExprInfo {
    /// Call sites, in token order.
    pub calls: Vec<Call>,
    /// Identifier uses, in token order.
    pub uses: Vec<Use>,
    /// The uses borrowed as `&mut x` (out-parameters, when inside a
    /// call's arguments), in token order; each is also in `uses`.
    pub mut_borrows: Vec<Use>,
    /// Bindings explicitly released via `drop(x)` /
    /// `std::mem::drop(x)`.
    pub dropped: Vec<String>,
}

impl ExprInfo {
    /// True when any call matches `name`.
    pub fn calls_name(&self, name: &str) -> bool {
        self.calls.iter().any(|c| c.name == name)
    }

    /// The first call whose name is in `names`, if any.
    pub fn first_call_in<'a>(&'a self, names: &[&str]) -> Option<&'a Call> {
        self.calls.iter().find(|c| names.contains(&c.name.as_str()))
    }

    /// True when `call` sits inside another call's argument list.
    pub fn nested(&self, call: &Call) -> bool {
        self.calls
            .iter()
            .any(|c| c.idx < call.idx && call.idx <= c.close)
    }

    /// True when the expression's *result* comes from a call named in
    /// `names`: such a call exists outside any argument list, with no
    /// later non-nested call consuming it. `decide(&project(x))`
    /// produces a decision, not a projection.
    pub fn tail_call_in(&self, names: &[&str]) -> bool {
        self.calls.iter().any(|c| {
            names.contains(&c.name.as_str())
                && !self.nested(c)
                && !self
                    .calls
                    .iter()
                    .any(|c2| c2.idx > c.close && !self.nested(c2))
        })
    }
}

/// One match arm: its pattern bindings, guard expression, and body.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Names bound by the arm pattern.
    pub binds: Vec<String>,
    /// The guard expression (`if …` after the pattern), empty when
    /// absent.
    pub guard: ExprInfo,
    /// The arm body.
    pub body: Block,
}

/// A `{ … }` statement sequence.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// The statements, in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// 1-based line the statement starts on.
    pub line: u32,
    /// The statement's shape.
    pub kind: StmtKind,
}

/// Statement shapes the temporal rules distinguish.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `let <pat>(: <ty>)? = <init>;` (including `let … else`).
    Let {
        /// Names bound by the pattern.
        names: Vec<String>,
        /// True when the pattern is exactly `_` (the value is
        /// discarded on the spot).
        discard: bool,
        /// Identifiers appearing in the type annotation.
        ty: Vec<String>,
        /// The initializer summary (empty for `let x;`).
        init: ExprInfo,
    },
    /// `<ident> = <expr>;` — a rebinding of an existing local.
    Assign {
        /// The assigned local.
        name: String,
        /// The right-hand side summary.
        expr: ExprInfo,
    },
    /// An opaque expression statement (everything else).
    Expr {
        /// The expression summary.
        expr: ExprInfo,
    },
    /// `if <cond> { … } (else { … })?` — `else if` chains nest in
    /// `else_blk`.
    If {
        /// The condition summary.
        cond: ExprInfo,
        /// The `then` block.
        then_blk: Block,
        /// The `else` block, if any.
        else_blk: Option<Block>,
    },
    /// `loop` / `while` / `while let` / `for` — one loop shape.
    Loop {
        /// Header summary (condition or iterated expression).
        header: ExprInfo,
        /// Names bound per-iteration (`for` patterns, `while let`).
        binds: Vec<String>,
        /// The loop body.
        body: Block,
    },
    /// `match <scrutinee> { <arms> }`.
    Match {
        /// The scrutinee summary.
        scrutinee: ExprInfo,
        /// The arms.
        arms: Vec<Arm>,
    },
    /// `return <expr>?;` — diverges.
    Return {
        /// The returned expression summary.
        expr: ExprInfo,
    },
    /// `break <expr>?;` — jumps to the innermost loop exit.
    Break {
        /// The break-value summary.
        expr: ExprInfo,
    },
    /// `continue;` — jumps to the innermost loop header.
    Continue,
    /// A bare `{ … }` block statement.
    Block {
        /// The inner block.
        body: Block,
    },
}

/// Rust keywords (plus `self`/`Self`) excluded from identifier uses
/// and pattern bindings.
const KEYWORDS: [&str; 38] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where",
];

/// Item-introducing keywords that can appear nested inside a function
/// body; their bodies are parsed separately (via their own `fn`
/// signatures) or are out of scope entirely.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "impl", "mod", "trait", "use", "union",
];

/// Parses the token range `[lo, hi)` (a function body, braces
/// excluded) into a [`Block`].
pub fn parse_block(toks: &[Token], lo: usize, hi: usize) -> Block {
    let mut p = Parser { toks, hi };
    p.block(lo)
}

struct Parser<'a> {
    toks: &'a [Token],
    hi: usize,
}

/// What ends an expression consumed at depth 0.
#[derive(Clone, Copy, PartialEq)]
enum Term {
    /// `;` (ordinary statements).
    Semi,
    /// `,` (brace-less match-arm bodies).
    Comma,
}

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&Token> {
        if i < self.hi {
            self.toks.get(i)
        } else {
            None
        }
    }

    fn is(&self, i: usize, text: &str) -> bool {
        self.tok(i).is_some_and(|t| t.text == text)
    }

    fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_ident(text))
    }

    fn line(&self, i: usize) -> u32 {
        self.tok(i).map_or(0, |t| t.line)
    }

    /// Index of the token matching the open bracket at `open`, clamped
    /// to the parse range.
    fn close_of(&self, open: usize) -> usize {
        crate::context::matching_bracket(self.toks, open).min(self.hi.saturating_sub(1))
    }

    /// Scans forward from `i` for `what` at bracket depth 0, stopping
    /// at `self.hi`. Returns the index, or `self.hi` when not found.
    /// An open bracket in `what` matches *before* it deepens; an
    /// unbalanced close ends the region.
    fn find_depth0(&self, mut i: usize, what: &[&str]) -> usize {
        let mut depth = 0i64;
        while i < self.hi {
            let text = self.toks[i].text.as_str();
            if depth == 0 && (what.contains(&text) || matches!(text, ")" | "]" | "}")) {
                return i;
            }
            match text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            i += 1;
        }
        self.hi
    }

    /// Parses statements in `[lo, self.hi)`.
    fn block(&mut self, lo: usize) -> Block {
        let mut stmts = Vec::new();
        let mut i = lo;
        while i < self.hi {
            let before = i;
            if self.is(i, ";") {
                i += 1;
                continue;
            }
            // Attributes on statements: skip `#[…]`.
            if self.is(i, "#") && self.is(i + 1, "[") {
                i = self.close_of(i + 1) + 1;
                continue;
            }
            if let Some((stmt, next)) = self.stmt(i, Term::Semi) {
                stmts.push(stmt);
                i = next;
            } else {
                i += 1;
            }
            // Defensive: always make progress.
            if i <= before {
                i = before + 1;
            }
        }
        Block { stmts }
    }

    /// Parses the sub-block `[open+1, close)` where `open` is a `{`.
    fn braced_block(&mut self, open: usize) -> (Block, usize) {
        let close = self.close_of(open);
        let saved_hi = self.hi;
        self.hi = close;
        let blk = self.block(open + 1);
        self.hi = saved_hi;
        (blk, close + 1)
    }

    /// Parses one statement starting at `i`; returns it and the index
    /// just past it. `term` selects the expression terminator (`;` for
    /// ordinary statements, `,` for brace-less match arms).
    fn stmt(&mut self, i: usize, term: Term) -> Option<(Stmt, usize)> {
        let line = self.line(i);
        let t = self.tok(i)?;
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "let" => return self.let_stmt(i, line),
                "if" => return self.if_stmt(i, line),
                "while" | "for" | "loop" => return self.loop_stmt(i, line),
                "match" => return self.match_stmt(i, line),
                "return" => {
                    let end = self.expr_end(i + 1, term);
                    let expr = scan_expr(self.toks, i + 1, end);
                    return Some((
                        Stmt {
                            line,
                            kind: StmtKind::Return { expr },
                        },
                        end + 1,
                    ));
                }
                "break" => {
                    let end = self.expr_end(i + 1, term);
                    let expr = scan_expr(self.toks, i + 1, end);
                    return Some((
                        Stmt {
                            line,
                            kind: StmtKind::Break { expr },
                        },
                        end + 1,
                    ));
                }
                "continue" => {
                    let end = self.expr_end(i + 1, term);
                    return Some((
                        Stmt {
                            line,
                            kind: StmtKind::Continue,
                        },
                        end + 1,
                    ));
                }
                "unsafe" | "async" if self.is(i + 1, "{") => {
                    let (body, next) = self.braced_block(i + 1);
                    return Some((
                        Stmt {
                            line,
                            kind: StmtKind::Block { body },
                        },
                        next,
                    ));
                }
                kw if ITEM_KEYWORDS.contains(&kw) => {
                    // A nested item: skip to its end (`;` or matching
                    // `{…}`). Nested `fn` bodies are analyzed under
                    // their own signatures.
                    let stop = self.find_depth0(i, &["{", ";"]);
                    let next = if self.is(stop, "{") {
                        self.close_of(stop) + 1
                    } else {
                        stop + 1
                    };
                    return Some((
                        Stmt {
                            line,
                            kind: StmtKind::Expr {
                                expr: ExprInfo::default(),
                            },
                        },
                        next,
                    ));
                }
                _ => {}
            }
        }
        if t.is_punct("{") {
            let (body, next) = self.braced_block(i);
            return Some((
                Stmt {
                    line,
                    kind: StmtKind::Block { body },
                },
                next,
            ));
        }
        // Simple rebinding: `ident = expr` (not `==`, not `+=`).
        if t.kind == TokenKind::Ident
            && self.is(i + 1, "=")
            && !self.is(i + 2, "=")
            && !KEYWORDS.contains(&t.text.as_str())
        {
            let name = t.text.clone();
            let end = self.expr_end(i + 2, term);
            let expr = scan_expr(self.toks, i + 2, end);
            return Some((
                Stmt {
                    line,
                    kind: StmtKind::Assign { name, expr },
                },
                end + 1,
            ));
        }
        // Opaque expression statement.
        let end = self.expr_end(i, term);
        let expr = scan_expr(self.toks, i, end);
        Some((
            Stmt {
                line,
                kind: StmtKind::Expr { expr },
            },
            end + 1,
        ))
    }

    /// Index of the token ending the expression starting at `i` (the
    /// terminator itself, or `self.hi`).
    fn expr_end(&self, i: usize, term: Term) -> usize {
        match term {
            Term::Semi => self.find_depth0(i, &[";"]),
            Term::Comma => self.find_depth0(i, &[",", ";"]),
        }
    }

    fn let_stmt(&mut self, i: usize, line: u32) -> Option<(Stmt, usize)> {
        // Pattern (and optional type) run to the first depth-0 `=`
        // that is not `==`; a `let x;` declaration runs to the `;`.
        let mut eq = self.find_depth0(i + 1, &["=", ";"]);
        while self.is(eq, "=") && self.is(eq + 1, "=") {
            eq = self.find_depth0(eq + 2, &["=", ";"]);
        }
        let header_end = eq;
        let colon = {
            // Split pattern from type at a top-level `:` (`::` is a
            // distinct token, so a single `:` is the annotation).
            let c = self.find_depth0(i + 1, &[":"]);
            if c < header_end {
                c
            } else {
                header_end
            }
        };
        let (names, discard) = pattern_binds(self.toks, i + 1, colon);
        let ty: Vec<String> = if colon < header_end {
            self.toks[colon + 1..header_end]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone())
                .collect()
        } else {
            Vec::new()
        };
        let (init, next) = if self.is(eq, "=") {
            let end = self.find_depth0(eq + 1, &[";"]);
            (scan_expr(self.toks, eq + 1, end), end + 1)
        } else {
            (ExprInfo::default(), eq + 1)
        };
        Some((
            Stmt {
                line,
                kind: StmtKind::Let {
                    names,
                    discard,
                    ty,
                    init,
                },
            },
            next,
        ))
    }

    fn if_stmt(&mut self, i: usize, line: u32) -> Option<(Stmt, usize)> {
        let open = self.find_depth0(i + 1, &["{"]);
        if !self.is(open, "{") {
            // Malformed; degrade to an opaque expression.
            let end = self.expr_end(i, Term::Semi);
            let expr = scan_expr(self.toks, i, end);
            return Some((
                Stmt {
                    line,
                    kind: StmtKind::Expr { expr },
                },
                end + 1,
            ));
        }
        let cond = scan_expr(self.toks, i + 1, open);
        let (then_blk, mut next) = self.braced_block(open);
        let mut else_blk = None;
        if self.is_ident(next, "else") {
            if self.is_ident(next + 1, "if") {
                // `else if …` nests as a one-statement else block.
                if let Some((stmt, after)) = self.if_stmt(next + 1, self.line(next + 1)) {
                    else_blk = Some(Block { stmts: vec![stmt] });
                    next = after;
                }
            } else if self.is(next + 1, "{") {
                let (blk, after) = self.braced_block(next + 1);
                else_blk = Some(blk);
                next = after;
            }
        }
        Some((
            Stmt {
                line,
                kind: StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                },
            },
            next,
        ))
    }

    fn loop_stmt(&mut self, i: usize, line: u32) -> Option<(Stmt, usize)> {
        let open = self.find_depth0(i + 1, &["{"]);
        if !self.is(open, "{") {
            let end = self.expr_end(i, Term::Semi);
            let expr = scan_expr(self.toks, i, end);
            return Some((
                Stmt {
                    line,
                    kind: StmtKind::Expr { expr },
                },
                end + 1,
            ));
        }
        let (binds, header) = if self.is_ident(i, "for") {
            // `for <pat> in <expr>` — the pattern binds per iteration.
            let in_kw = {
                let mut j = i + 1;
                let mut depth = 0i64;
                loop {
                    if j >= open {
                        break open;
                    }
                    match self.toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "in" if depth == 0 && self.toks[j].kind == TokenKind::Ident => break j,
                        _ => {}
                    }
                    j += 1;
                }
            };
            let (names, _) = pattern_binds(self.toks, i + 1, in_kw);
            (names, scan_expr(self.toks, in_kw + 1, open))
        } else if self.is_ident(i, "while") && self.is_ident(i + 1, "let") {
            // `while let <pat> = <expr>` — pattern binds per iteration.
            let eq = self.find_depth0(i + 2, &["="]);
            let (names, _) = pattern_binds(self.toks, i + 2, eq.min(open));
            (names, scan_expr(self.toks, (eq + 1).min(open), open))
        } else {
            (Vec::new(), scan_expr(self.toks, i + 1, open))
        };
        let (body, next) = self.braced_block(open);
        Some((
            Stmt {
                line,
                kind: StmtKind::Loop {
                    header,
                    binds,
                    body,
                },
            },
            next,
        ))
    }

    fn match_stmt(&mut self, i: usize, line: u32) -> Option<(Stmt, usize)> {
        let open = self.find_depth0(i + 1, &["{"]);
        if !self.is(open, "{") {
            let end = self.expr_end(i, Term::Semi);
            let expr = scan_expr(self.toks, i, end);
            return Some((
                Stmt {
                    line,
                    kind: StmtKind::Expr { expr },
                },
                end + 1,
            ));
        }
        let scrutinee = scan_expr(self.toks, i + 1, open);
        let close = self.close_of(open);
        let mut arms = Vec::new();
        let saved_hi = self.hi;
        self.hi = close;
        let mut k = open + 1;
        while k < close {
            if self.is(k, ",") {
                k += 1;
                continue;
            }
            let arrow = self.find_depth0(k, &["=>"]);
            if !self.is(arrow, "=>") {
                break;
            }
            // Pattern vs guard: split at a top-level `if`.
            let guard_at = {
                let mut j = k;
                let mut depth = 0i64;
                loop {
                    if j >= arrow {
                        break arrow;
                    }
                    match self.toks[j].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "if" if depth == 0 && self.toks[j].kind == TokenKind::Ident => break j,
                        _ => {}
                    }
                    j += 1;
                }
            };
            let (binds, _) = pattern_binds(self.toks, k, guard_at);
            let guard = scan_expr(self.toks, guard_at, arrow);
            let (body, next) = if self.is(arrow + 1, "{") {
                self.braced_block(arrow + 1)
            } else if let Some((stmt, after)) = self.stmt(arrow + 1, Term::Comma) {
                (Block { stmts: vec![stmt] }, after)
            } else {
                (Block::default(), arrow + 2)
            };
            arms.push(Arm { binds, guard, body });
            k = next;
        }
        self.hi = saved_hi;
        Some((
            Stmt {
                line,
                kind: StmtKind::Match { scrutinee, arms },
            },
            close + 1,
        ))
    }
}

/// Names bound by a pattern in `[lo, hi)`, plus whether the pattern is
/// exactly `_`. Lowercase identifiers that are not keywords, path
/// segments (`Foo::…`), or struct-pattern field names (`f: pat`) are
/// bindings; everything else (variants, types, literals) is not.
pub fn pattern_binds(toks: &[Token], lo: usize, hi: usize) -> (Vec<String>, bool) {
    let hi = hi.min(toks.len());
    if lo >= hi {
        return (Vec::new(), false);
    }
    let slice = &toks[lo..hi];
    if let [t] = slice {
        if t.text == "_" {
            return (Vec::new(), true);
        }
    }
    let mut names = Vec::new();
    for (off, t) in slice.iter().enumerate() {
        let i = lo + off;
        if t.kind != TokenKind::Ident
            || t.text == "_"
            || KEYWORDS.contains(&t.text.as_str())
            || t.text.chars().next().is_some_and(|c| c.is_uppercase())
        {
            continue;
        }
        let prev_path = i > 0 && toks[i - 1].is_punct("::");
        // Only look *inside* the pattern slice: a `:` just past `hi`
        // is the `let`/param type annotation, not a struct-field name.
        let next = toks.get(i + 1).filter(|_| i + 1 < hi);
        let next_path = next.is_some_and(|n| n.is_punct("::"));
        let field_name = next.is_some_and(|n| n.is_punct(":"));
        if !prev_path && !next_path && !field_name {
            names.push(t.text.clone());
        }
    }
    names.dedup();
    (names, false)
}

/// Summarizes the expression tokens in `[lo, hi)`: calls, identifier
/// uses, and `drop(x)` releases, in token order.
pub fn scan_expr(toks: &[Token], lo: usize, hi: usize) -> ExprInfo {
    let hi = hi.min(toks.len());
    let mut out = ExprInfo::default();
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let prev = (i > lo).then(|| &toks[i - 1]);
        let next = toks.get(i + 1).filter(|_| i + 1 < hi);
        if KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // Macro invocation: name recorded nowhere — `write!` into a
        // String is not a boundary call.
        if next.is_some_and(|n| n.is_punct("!")) {
            i += 2;
            continue;
        }
        if next.is_some_and(|n| n.is_punct("(")) {
            out.calls.push(Call {
                name: t.text.clone(),
                method: prev.is_some_and(|p| p.is_punct(".")),
                line: t.line,
                col: t.col,
                idx: i,
                close: crate::context::matching_bracket(toks, i + 1),
            });
            // `drop(x)` / `mem::drop(x)` releases a binding.
            if t.text == "drop" {
                if let (Some(arg), Some(close)) = (toks.get(i + 2), toks.get(i + 3)) {
                    if arg.kind == TokenKind::Ident && close.is_punct(")") {
                        out.dropped.push(arg.text.clone());
                    }
                }
            }
            i += 1;
            continue;
        }
        // Field access / path segment / struct-field name / type: not
        // an expression-position use of a local.
        let after_dot_or_path = prev.is_some_and(|p| p.is_punct(".") || p.is_punct("::"));
        let before_path = next.is_some_and(|n| n.is_punct("::"));
        let field_init = next.is_some_and(|n| n.is_punct(":"));
        let is_type = t.text.chars().next().is_some_and(|c| c.is_uppercase());
        if !after_dot_or_path && !before_path && !field_init && !is_type && t.text != "_" {
            let used = Use {
                name: t.text.clone(),
                line: t.line,
                col: t.col,
                idx: i,
            };
            let mut_borrowed =
                i >= lo + 2 && prev.is_some_and(|p| p.is_ident("mut")) && toks[i - 2].is_punct("&");
            if mut_borrowed {
                out.mut_borrows.push(used.clone());
            }
            out.uses.push(used);
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Block {
        let toks = lex(src).tokens;
        let n = toks.len();
        parse_block(&toks, 0, n)
    }

    #[test]
    fn let_binds_and_init_calls() {
        let b = parse("let projection = self.ppep.project(&record)?;");
        let [Stmt {
            kind:
                StmtKind::Let {
                    names,
                    discard,
                    init,
                    ..
                },
            ..
        }] = &b.stmts[..]
        else {
            panic!("expected one let: {:?}", b.stmts);
        };
        assert_eq!(names, &["projection"]);
        assert!(!discard);
        assert!(init.calls_name("project"));
        assert!(init.uses.iter().any(|u| u.name == "record"));
    }

    #[test]
    fn discard_let_is_detected() {
        let b = parse("let _ = platform.sample();");
        let [Stmt {
            kind: StmtKind::Let { discard, init, .. },
            ..
        }] = &b.stmts[..]
        else {
            panic!("expected one let");
        };
        assert!(*discard);
        assert!(init.calls_name("sample"));
    }

    #[test]
    fn control_flow_nests() {
        let b = parse(
            "let p = project(&r); if hot { platform.apply(&d)?; } else { idle(); } use_it(&p);",
        );
        assert_eq!(b.stmts.len(), 3);
        let StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } = &b.stmts[1].kind
        else {
            panic!("expected if: {:?}", b.stmts[1]);
        };
        assert!(cond.uses.iter().any(|u| u.name == "hot"));
        assert_eq!(then_blk.stmts.len(), 1);
        assert_eq!(else_blk.as_ref().map(|e| e.stmts.len()), Some(1));
    }

    #[test]
    fn loops_and_breaks() {
        let b = parse("for (i, rec) in xs.iter().enumerate() { if bad { break; } work(rec); }");
        let StmtKind::Loop {
            binds,
            header,
            body,
        } = &b.stmts[0].kind
        else {
            panic!("expected loop");
        };
        assert_eq!(binds, &["i", "rec"]);
        assert!(header.uses.iter().any(|u| u.name == "xs"));
        assert_eq!(body.stmts.len(), 2);
    }

    #[test]
    fn match_arms_bind_and_guard() {
        let b = parse(
            "match measured { Ok(record) => consume(record), Err(e) if e.is_transient() => { degrade(); } Err(e) => return Err(e), }",
        );
        let StmtKind::Match { arms, scrutinee } = &b.stmts[0].kind else {
            panic!("expected match");
        };
        assert!(scrutinee.uses.iter().any(|u| u.name == "measured"));
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].binds, &["record"]);
        assert_eq!(arms[1].binds, &["e"]);
        assert!(arms[1].guard.calls_name("is_transient"));
        assert!(matches!(
            arms[2].body.stmts[0].kind,
            StmtKind::Return { .. }
        ));
    }

    #[test]
    fn assignment_vs_equality() {
        let b = parse("measured = resample(); if a == b { t(); }");
        assert!(matches!(
            &b.stmts[0].kind,
            StmtKind::Assign { name, .. } if name == "measured"
        ));
        assert!(matches!(&b.stmts[1].kind, StmtKind::If { .. }));
    }

    #[test]
    fn drop_and_macros() {
        let b = parse("drop(guard); let _ = write!(out, \"{x}\");");
        let StmtKind::Expr { expr } = &b.stmts[0].kind else {
            panic!("expected expr");
        };
        assert_eq!(expr.dropped, &["guard"]);
        let StmtKind::Let { init, .. } = &b.stmts[1].kind else {
            panic!("expected let");
        };
        assert!(init.calls.is_empty(), "write! is a macro, not a call");
    }

    #[test]
    fn while_let_binds() {
        let b = parse("while let Some(x) = it.next() { use_it(x); }");
        let StmtKind::Loop { binds, .. } = &b.stmts[0].kind else {
            panic!("expected loop");
        };
        assert_eq!(binds, &["x"]);
    }

    #[test]
    fn let_else_folds_into_init() {
        let b = parse("let Some(rec) = queue.pop() else { return Err(e); };");
        let StmtKind::Let { names, init, .. } = &b.stmts[0].kind else {
            panic!("expected let");
        };
        assert_eq!(names, &["rec"]);
        assert!(init.calls_name("pop"));
    }

    #[test]
    fn struct_literal_fields_are_not_uses_but_shorthand_is() {
        let b = parse("let s = DaemonStep { record: r, projection, decision };");
        let StmtKind::Let { init, .. } = &b.stmts[0].kind else {
            panic!("expected let");
        };
        let used: Vec<&str> = init.uses.iter().map(|u| u.name.as_str()).collect();
        assert!(used.contains(&"r"));
        assert!(used.contains(&"projection"));
        assert!(!used.contains(&"record"), "field name, not a use: {used:?}");
    }

    #[test]
    fn nested_items_are_skipped() {
        let b = parse("fn helper() { x.apply(); } let a = mk();");
        assert!(matches!(&b.stmts[1].kind, StmtKind::Let { .. }));
        let StmtKind::Expr { expr } = &b.stmts[0].kind else {
            panic!("expected opaque item");
        };
        assert!(expr.calls.is_empty());
    }
}
