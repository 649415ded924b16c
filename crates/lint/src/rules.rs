//! The PPEP rule families.
//!
//! * **L1 no-panic** (`unwrap`, `expect`, `panic`, `index-arith`,
//!   `index-nonliteral`) — non-test code in the runtime crates must
//!   not contain `.unwrap()` / `.expect(..)` / `panic!`-family macros
//!   / slice indexing with an arithmetic index (the off-by-one panic
//!   class) / indexing with *any* non-literal expression (`xs[i]`),
//!   which can panic on a bad bound; survivors record their bounds
//!   invariant in the allowlist. Failures must propagate as
//!   `ppep_types::Error`.
//! * **L2 raw-f64** — public function signatures in `ppep-models` /
//!   `ppep-core` must not pass bare `f64` where a `ppep_types`
//!   unit newtype exists; genuine dimensionless ratios are recorded in
//!   the allowlist with a reason.
//! * **L3 wildcard-match** — a `match` whose arms name a domain enum
//!   (`FaultKind`, `HealthState`, …) must be exhaustive without a
//!   wildcard arm, so adding a variant is a compile error everywhere.
//! * **L4 unguarded-output** — public `ppep-models` functions
//!   returning a unit quantity must route the value through the
//!   `ppep_types::units::finite` guard so NaN/∞ cannot silently
//!   enter projections.
//! * **L6 unbound-span** — a `.span(..)` tracing guard must be bound
//!   to a live binding (`let _g = rec.span(..)`); a bare statement or
//!   `let _ = ..` drops the guard immediately, silently recording a
//!   zero-length span.
//!
//! The temporal rules run on the AST/CFG/dataflow stack
//! ([`crate::ast`] / [`crate::cfg`] / [`crate::dataflow`]) instead of
//! the raw token stream:
//!
//! * **L5 stale-projection** — a binding that traces to a
//!   `PpeProjection` (`project(..)` / `project_nb(..)` initializer,
//!   type annotation, typed parameter, or the `&mut x` a
//!   `project_into(..)` refills) must not be read after an
//!   `apply(..)` / `set_vf(..)` / `set_enforced_cap(..)` boundary on
//!   any path without re-projection: the projection models the VF
//!   state *before* the actuation, so reading it afterwards prices
//!   the next interval with the previous interval's model.
//! * **L7 lock-across-boundary** — a `MutexGuard` (from `.lock()` or
//!   a `*Guard`-typed binding) must not be live across
//!   `handle_frame`, the v2 frame codec or trace reader (`parse`), or
//!   blocking I/O calls: lock hold time across those boundaries is the
//!   documented serve-path p99 amplifier.
//! * **L8 dropped-transient** — a `Result` from `sample()` /
//!   `resample()` / platform actuation must not be discarded via
//!   `let _ = ..` or a chained `.ok()` without an `is_transient()`
//!   triage branch: swallowing a non-transient fault breaks the
//!   energy-accounting identity the replay tests pin down.

use crate::allow::Allowlist;
use crate::ast;
use crate::cfg::{self, CfgNode, NodeKind};
use crate::context::{matching_bracket, SourceFile};
use crate::dataflow::{solve, Analysis};
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// Crates whose non-test code must be panic-free (L1).
pub const RUNTIME_CRATES: [&str; 9] = [
    "ppep-core",
    "ppep-dvfs",
    "ppep-models",
    "ppep-obs",
    "ppep-pmc",
    "ppep-rig",
    "ppep-serve",
    "ppep-sim",
    "ppep-telemetry",
];

/// Crates whose public signatures must be unit-typed (L2).
pub const UNIT_API_CRATES: [&str; 2] = ["ppep-models", "ppep-core"];

/// The crate whose model outputs must be finite-guarded (L4).
pub const MODEL_CRATE: &str = "ppep-models";

/// Domain enums that must always be matched exhaustively (L3).
/// `ppep_types::Error` is deliberately absent: it is
/// `#[non_exhaustive]`, so downstream crates *must* write a wildcard
/// arm for it.
pub const DOMAIN_ENUMS: [&str; 7] = [
    "FaultKind",
    "HealthState",
    "Action",
    "NbVfState",
    "MuxGroup",
    "EventId",
    "RejectReason",
];

/// The `ppep_types` unit newtypes (L2 alternatives, L4 triggers).
pub const UNIT_TYPES: [&str; 7] = [
    "Volts",
    "Gigahertz",
    "Watts",
    "Kelvin",
    "Joules",
    "Seconds",
    "Celsius",
];

/// Every individual rule name.
pub const ALL_RULES: [&str; 12] = [
    "unwrap",
    "expect",
    "panic",
    "index-arith",
    "index-nonliteral",
    "raw-f64",
    "wildcard-match",
    "unguarded-output",
    "stale-projection",
    "unbound-span",
    "lock-across-boundary",
    "dropped-transient",
];

/// Expands a rule name or `L1`…`L8` group alias (or `all`) to the
/// individual rule names it covers. Unknown names pass through
/// unchanged (they simply never match a diagnostic).
pub fn expand_rule_alias(name: &str) -> Vec<String> {
    match name {
        "L1" => vec![
            "unwrap".into(),
            "expect".into(),
            "panic".into(),
            "index-arith".into(),
            "index-nonliteral".into(),
        ],
        "L2" => vec!["raw-f64".into()],
        "L3" => vec!["wildcard-match".into()],
        "L4" => vec!["unguarded-output".into()],
        "L5" => vec!["stale-projection".into()],
        "L6" => vec!["unbound-span".into()],
        "L7" => vec!["lock-across-boundary".into()],
        "L8" => vec!["dropped-transient".into()],
        "all" => ALL_RULES.iter().map(|s| s.to_string()).collect(),
        other => vec![other.to_string()],
    }
}

/// Runs every applicable rule over one file.
pub fn check_file(file: &SourceFile, allow: &Allowlist) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let fns = parse_fns(file);
    if RUNTIME_CRATES.contains(&file.crate_name.as_str()) {
        l1_no_panic(file, &fns, allow, &mut diags);
    }
    if UNIT_API_CRATES.contains(&file.crate_name.as_str()) {
        l2_raw_f64(file, &fns, allow, &mut diags);
    }
    if file.crate_name.starts_with("ppep-") {
        l3_wildcard_match(file, allow, &mut diags);
        l6_unbound_span(file, &fns, allow, &mut diags);
        temporal_rules(file, &fns, allow, &mut diags);
    }
    if file.crate_name == MODEL_CRATE {
        l4_unguarded_output(file, &fns, allow, &mut diags);
    }
    diags
}

fn diag(
    file: &SourceFile,
    group: &'static str,
    rule: &'static str,
    tok: &Token,
    message: String,
) -> Diagnostic {
    Diagnostic {
        group,
        rule,
        path: file.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        note: None,
    }
}

/// True when the rule is disabled at `line` (test code or inline
/// suppression).
fn skipped(file: &SourceFile, rule: &str, line: u32) -> bool {
    file.is_test_line(line) || file.is_suppressed(rule, line)
}

// ---------------------------------------------------------------- L1

/// Identifiers that cannot precede an *indexing* `[` (they introduce
/// patterns, types, or control flow instead).
const NON_INDEX_PREFIX: [&str; 14] = [
    "let", "mut", "ref", "in", "return", "if", "else", "match", "as", "box", "move", "static",
    "const", "type",
];

/// The name of the innermost function whose body contains token
/// `idx`, or `""` for file-level positions — the allowlist item
/// bounds-invariant exemptions attach to.
fn containing_fn(fns: &[FnSig], idx: usize) -> &str {
    fns.iter()
        .filter(|f| f.body.is_some_and(|(s, e)| s <= idx && idx < e))
        .min_by_key(|f| f.body.map_or(usize::MAX, |(s, e)| e - s))
        .map_or("", |f| f.name.as_str())
}

fn l1_no_panic(file: &SourceFile, fns: &[FnSig], allow: &Allowlist, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        // `.unwrap()`
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
        {
            let at = &toks[i + 1];
            if !skipped(file, "unwrap", at.line) {
                diags.push(diag(
                    file,
                    "L1",
                    "unwrap",
                    at,
                    "`.unwrap()` in runtime crate; propagate `ppep_types::Error` instead".into(),
                ));
            }
        }
        // `.expect(..)`
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            let at = &toks[i + 1];
            if !skipped(file, "expect", at.line) {
                diags.push(diag(
                    file,
                    "L1",
                    "expect",
                    at,
                    "`.expect(..)` in runtime crate; propagate `ppep_types::Error` instead".into(),
                ));
            }
        }
        // panic!-family macros.
        if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && !skipped(file, "panic", t.line)
        {
            diags.push(diag(
                file,
                "L1",
                "panic",
                t,
                format!(
                    "`{}!` in runtime crate; the online path must degrade, not abort",
                    t.text
                ),
            ));
        }
        // Indexing with an arithmetic index: `xs[a + b]`, `xs[n - 1]`…
        if t.is_punct("[") && i > 0 {
            let prev = &toks[i - 1];
            let is_index_pos = match prev.kind {
                TokenKind::Ident => !NON_INDEX_PREFIX.contains(&prev.text.as_str()),
                TokenKind::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            if is_index_pos {
                let close = file.matching_bracket(i);
                let inner = &toks[i + 1..close];
                let mut depth = 0i64;
                let mut arith = false;
                for tok in inner {
                    match tok.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "+" | "-" | "*" | "/" | "%"
                            if depth == 0 && tok.kind == TokenKind::Punct =>
                        {
                            arith = true;
                        }
                        _ => {}
                    }
                }
                if arith {
                    if !skipped(file, "index-arith", t.line) {
                        diags.push(diag(
                            file,
                            "L1",
                            "index-arith",
                            t,
                            "indexing with an arithmetic index can panic; use iterators/chunks, \
                             `.get(..)`, or a checked helper"
                                .into(),
                        ));
                    }
                } else if !matches!(
                    inner,
                    [] | [Token {
                        kind: TokenKind::Literal,
                        ..
                    }]
                ) && !skipped(file, "index-nonliteral", t.line)
                    && !allow.allows("index-nonliteral", &file.path, containing_fn(fns, i))
                {
                    // Any non-literal index (`xs[i]`) can panic on a bad
                    // bound; index-arith already covers the arithmetic
                    // subclass, so it is excluded here.
                    diags.push(diag(
                        file,
                        "L1",
                        "index-nonliteral",
                        t,
                        "non-literal index can panic on a bad bound; use `.get(..)`, iterators, \
                         or allowlist the site with its bounds invariant"
                            .into(),
                    ));
                }
            }
        }
    }
}

// ------------------------------------------------- fn signature model

/// A parsed function signature (enough structure for L2/L4).
pub struct FnSig {
    /// The function name.
    pub name: String,
    /// Position of the name token.
    pub line: u32,
    /// Column of the name token.
    pub col: u32,
    /// Whether the function is unrestricted `pub`.
    pub is_pub: bool,
    /// Parameter type token ranges (skipping `self` receivers).
    pub param_types: Vec<(usize, usize)>,
    /// Parameter pattern names paired with their type ranges —
    /// entry facts for the temporal rules (a `projection:
    /// PpeProjection` parameter arrives fresh; a `guard: MutexGuard`
    /// parameter arrives held).
    pub params: Vec<(Vec<String>, (usize, usize))>,
    /// Return type token range, if any.
    pub ret: Option<(usize, usize)>,
    /// Body token range `{..}` (exclusive of braces), if any.
    pub body: Option<(usize, usize)>,
}

/// Extracts all function signatures from a file.
pub fn parse_fns(file: &SourceFile) -> Vec<FnSig> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn(..)` pointer type, not an item
        }
        // Visibility: walk back over modifiers to a possible `pub`.
        let mut j = i;
        while j > 0
            && (matches!(
                toks[j - 1].text.as_str(),
                "const" | "async" | "unsafe" | "extern"
            ) || toks[j - 1].kind == TokenKind::Literal)
        {
            j -= 1;
        }
        let is_pub =
            j > 0 && toks[j - 1].is_ident("pub") && !toks.get(j).is_some_and(|t| t.is_punct("("));
        // (A restricted `pub(crate) fn` leaves `)` before `fn`, so the
        // walk-back above lands on `)` and `is_pub` stays false.)

        // Generics.
        let mut k = i + 2;
        if toks.get(k).is_some_and(|t| t.is_punct("<")) {
            let mut angle = 0i64;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        // Parameters.
        if !toks.get(k).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let params_open = k;
        let params_close = matching_bracket(toks, params_open);
        let mut param_types = Vec::new();
        let mut params = Vec::new();
        let mut start = params_open + 1;
        let mut depth = 0i64;
        let mut angle = 0i64;
        for idx in params_open + 1..=params_close {
            let text = toks[idx].text.as_str();
            let end_of_param = (text == "," && depth == 0 && angle == 0) || idx == params_close;
            match text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if idx != params_close => depth -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            if end_of_param {
                if idx > start {
                    if let Some(ty) = param_type_range(toks, start, idx) {
                        param_types.push(ty);
                        let (names, _) = ast::pattern_binds(toks, start, ty.0 - 1);
                        params.push((names, ty));
                    }
                }
                start = idx + 1;
            }
        }
        // Return type.
        let mut r = params_close + 1;
        let mut ret = None;
        if toks.get(r).is_some_and(|t| t.is_punct("->")) {
            let ret_start = r + 1;
            let mut depth = 0i64;
            let mut angle = 0i64;
            r = ret_start;
            while r < toks.len() {
                let text = toks[r].text.as_str();
                if depth == 0 && angle <= 0 && (text == "{" || text == ";" || text == "where") {
                    break;
                }
                match text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                r += 1;
            }
            if r > ret_start {
                ret = Some((ret_start, r));
            }
        }
        // Body (skipping any `where` clause).
        let mut body = None;
        let mut b = r;
        while b < toks.len() {
            let text = toks[b].text.as_str();
            if text == "{" {
                let close = matching_bracket(toks, b);
                body = Some((b + 1, close));
                break;
            }
            if text == ";" {
                break;
            }
            b += 1;
        }
        out.push(FnSig {
            name: name_tok.text.clone(),
            line: name_tok.line,
            col: name_tok.col,
            is_pub,
            param_types,
            params,
            ret,
            body,
        });
    }
    out
}

/// The type token range of one parameter (after its top-level `:`), or
/// `None` for `self` receivers / malformed input.
fn param_type_range(toks: &[Token], start: usize, end: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    for (idx, tok) in toks.iter().enumerate().take(end).skip(start) {
        match tok.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ":" if depth == 0 => {
                if idx + 1 < end {
                    return Some((idx + 1, end));
                }
                return None;
            }
            _ => {}
        }
    }
    None
}

/// True when a type token range is "bare f64": built only from `f64`,
/// references, tuples, `Option` / `Result` wrappers — i.e. a raw
/// float crossing the API unprotected. Collection types
/// (`&[f64]`, `Vec<f64>`, `[f64; N]`) are *not* flagged: they carry
/// model-internal vectors, which L4 guards at the output instead.
fn is_bare_f64(toks: &[Token], range: (usize, usize)) -> bool {
    let slice = &toks[range.0..range.1];
    let mut saw_f64 = false;
    for t in slice {
        match t.kind {
            TokenKind::Ident => match t.text.as_str() {
                "f64" => saw_f64 = true,
                "Option" | "Result" => {}
                _ => return false,
            },
            TokenKind::Lifetime => {}
            TokenKind::Punct => {
                if !matches!(t.text.as_str(), "&" | "(" | ")" | "<" | ">" | ",") {
                    return false;
                }
            }
            TokenKind::Literal => return false,
        }
    }
    saw_f64
}

// ---------------------------------------------------------------- L2

fn l2_raw_f64(file: &SourceFile, fns: &[FnSig], allow: &Allowlist, diags: &mut Vec<Diagnostic>) {
    for f in fns {
        if !f.is_pub || skipped(file, "raw-f64", f.line) {
            continue;
        }
        for &range in &f.param_types {
            let tok = &file.tokens[range.0];
            if is_bare_f64(&file.tokens, range)
                && !skipped(file, "raw-f64", tok.line)
                // Fire-point check so unused-entry tracking stays
                // accurate: a clean fn must not mark its entry used.
                && !allow.allows("raw-f64", &file.path, &f.name)
            {
                diags.push(diag(
                    file,
                    "L2",
                    "raw-f64",
                    tok,
                    format!(
                        "bare `f64` parameter in public `fn {}`; use a `ppep_types` unit/vf \
                         newtype, or allowlist the genuinely dimensionless ratio",
                        f.name
                    ),
                ));
            }
        }
        if let Some(range) = f.ret {
            let tok = &file.tokens[range.0];
            if is_bare_f64(&file.tokens, range)
                && !skipped(file, "raw-f64", tok.line)
                && !allow.allows("raw-f64", &file.path, &f.name)
            {
                diags.push(diag(
                    file,
                    "L2",
                    "raw-f64",
                    tok,
                    format!(
                        "bare `f64` return in public `fn {}`; use a `ppep_types` unit/vf \
                         newtype, or allowlist the genuinely dimensionless ratio",
                        f.name
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- L3

fn l3_wildcard_match(file: &SourceFile, allow: &Allowlist, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("match") {
            continue;
        }
        // Find the arms block: the first `{` at depth 0 after the
        // scrutinee (struct literals are not legal in scrutinee
        // position, so this is unambiguous).
        let mut depth = 0i64;
        let mut open = None;
        for (j, t) in toks.iter().enumerate().skip(i + 1) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let close = matching_bracket(toks, open);
        let mut k = open + 1;
        let mut mentioned: Option<&'static str> = None;
        let mut wildcards: Vec<usize> = Vec::new();
        while k < close {
            // Pattern: tokens until `=>` at relative depth 0.
            let pat_start = k;
            let mut depth = 0i64;
            let mut arrow = None;
            while k < close {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth == 0 => {
                        arrow = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some(arrow) = arrow else { break };
            let pattern = &toks[pat_start..arrow];
            // Domain-enum mention: `Enum ::` inside the pattern.
            for w in pattern.windows(2) {
                if w[1].is_punct("::") {
                    if let Some(name) = DOMAIN_ENUMS.iter().find(|e| w[0].is_ident(e)) {
                        mentioned = Some(name);
                    }
                }
            }
            // Wildcard: `_`, `_ if …`, or a lone binding `other` /
            // `other if …`.
            let before_guard_len = pattern
                .iter()
                .position(|t| t.is_ident("if"))
                .unwrap_or(pattern.len());
            let head = &pattern[..before_guard_len];
            // (`_` lexes as an identifier token.)
            let is_wild = match head {
                [t] if t.text == "_" => true,
                [t] if t.kind == TokenKind::Ident
                    && t.text.chars().next().is_some_and(|c| c.is_lowercase())
                    && !matches!(t.text.as_str(), "true" | "false") =>
                {
                    true
                }
                _ => false,
            };
            if is_wild {
                wildcards.push(pat_start);
            }
            // Arm body: a block, or an expression up to `,`/end.
            k = arrow + 1;
            if k < close && toks[k].is_punct("{") {
                k = matching_bracket(toks, k) + 1;
                if k < close && toks[k].is_punct(",") {
                    k += 1;
                }
            } else {
                let mut depth = 0i64;
                while k < close {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        if let Some(enum_name) = mentioned {
            for w in wildcards {
                let tok = &toks[w];
                if skipped(file, "wildcard-match", tok.line)
                    || allow.allows("wildcard-match", &file.path, enum_name)
                {
                    continue;
                }
                diags.push(diag(
                    file,
                    "L3",
                    "wildcard-match",
                    tok,
                    format!(
                        "wildcard arm in `match` involving `{enum_name}`; name every variant \
                         so a new variant is a compile error, not a silent fall-through"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- L4

fn l4_unguarded_output(
    file: &SourceFile,
    fns: &[FnSig],
    allow: &Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    for f in fns {
        let Some(ret) = f.ret else { continue };
        let Some(body) = f.body else { continue };
        if !f.is_pub || skipped(file, "unguarded-output", f.line) {
            continue;
        }
        let returns_unit = file.tokens[ret.0..ret.1]
            .iter()
            .any(|t| UNIT_TYPES.iter().any(|u| t.is_ident(u)));
        if !returns_unit {
            continue;
        }
        let body_toks = &file.tokens[body.0..body.1];
        // Trivial accessors (`self.field` / `&self.field`) return an
        // already-guarded stored value; re-guarding them would be noise.
        let accessor_toks = match body_toks {
            [amp, rest @ ..] if amp.is_punct("&") => rest,
            rest => rest,
        };
        if let [a, b, c] = accessor_toks {
            if a.is_ident("self") && b.is_punct(".") && c.kind == TokenKind::Ident {
                continue;
            }
        }
        let guarded = body_toks
            .windows(2)
            .any(|w| w[0].is_ident("finite") && w[1].is_punct("("));
        if !guarded && !allow.allows("unguarded-output", &file.path, &f.name) {
            let tok = &file.tokens[ret.0];
            diags.push(Diagnostic {
                group: "L4",
                rule: "unguarded-output",
                path: file.path.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "public model output `fn {}` returns `{}` without routing through the \
                     `ppep_types::units::finite` guard; NaN/∞ could silently enter projections",
                    f.name, tok.text
                ),
                note: None,
            });
        }
    }
}

// ---------------------------------------------------------------- L6

fn l6_unbound_span(
    file: &SourceFile,
    fns: &[FnSig],
    allow: &Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !(toks[i].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("span"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("(")))
        {
            continue;
        }
        let at = &toks[i + 1];
        if skipped(file, "unbound-span", at.line) {
            continue;
        }
        // Statement start: just past the nearest `;` / `{` / `}`.
        let stmt = toks[..i]
            .iter()
            .rposition(|t| t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}"))
            .map_or(0, |p| p + 1);
        let bound = if toks.get(stmt).is_some_and(|t| t.is_ident("let")) {
            let mut b = stmt + 1;
            if toks.get(b).is_some_and(|t| t.is_ident("mut")) {
                b += 1;
            }
            // `let _ = ..` drops the guard immediately; `let _g = ..`
            // (or any named binding) keeps it alive for the scope.
            toks.get(b)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text != "_")
        } else {
            // An assignment into an existing binding also keeps the
            // guard alive; anything else is a bare statement whose
            // temporary dies at the `;`, recording a near-zero span.
            toks[stmt..i].iter().any(|t| t.is_punct("="))
        };
        if !bound && allow.allows("unbound-span", &file.path, containing_fn(fns, i)) {
            continue;
        }
        if !bound {
            diags.push(diag(
                file,
                "L6",
                "unbound-span",
                at,
                "span guard must be bound (`let _g = rec.span(..)`); a bare statement or \
                 `let _ = ..` drops it immediately and records a zero-length span"
                    .into(),
            ));
        }
    }
}

// ------------------------------------- L5 / L7 / L8 (dataflow rules)

/// Calls that mint a fresh `PpeProjection` (L5 gen set).
const PROJECTION_SOURCES: [&str; 2] = ["project", "project_nb"];

/// Calls that refill a caller-owned `PpeProjection` passed as `&mut x`
/// (L5 gen set for that binding).
const PROJECTION_FILLS: [&str; 1] = ["project_into"];

/// Actuation calls that change VF/cap state and so invalidate every
/// live projection (L5 kill set).
const PROJECTION_KILLS: [&str; 5] = [
    "apply",
    "apply_uniform",
    "set_vf",
    "set_cu_vf",
    "set_enforced_cap",
];

/// The guard-producing method call (L7 gen set).
const LOCK_CALL: &str = "lock";

/// Method adapters that keep a `.lock()` chain a guard —
/// `lock().map_err(..)?` still binds the guard itself. Any other
/// trailing method call extracts a value *under* a temporary guard
/// instead, and the binding is not tracked.
const GUARD_CHAIN_OK: [&str; 4] = ["map_err", "unwrap", "expect", "unwrap_or_else"];

/// Guard type names recognized in `let` annotations and parameters.
const GUARD_TYPES: [&str; 3] = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Calls a held guard must not cross (L7 boundary set): the serve
/// frame handler, the v2 frame codec and trace reader
/// (`TraceReader::parse`, matched by bare name, so any `parse` call
/// counts), and blocking I/O / platform sampling. Macros (`write!` into a `String`) are never calls, so
/// in-memory formatting does not trip this.
const LOCK_BOUNDARIES: [&str; 16] = [
    "handle_frame",
    "frame_to_bytes",
    "decode_frame",
    "encode_frame",
    "parse",
    "read_frame_bytes",
    "write_all",
    "flush",
    "read_exact",
    "read_to_string",
    "read_line",
    "send",
    "recv",
    "sample",
    "sample_into",
    "resample",
];

/// Fallible measurement/actuation calls whose `Result` carries the
/// transient-vs-fatal fault taxonomy (L8 source set).
const TRANSIENT_RESULTS: [&str; 5] = [
    "sample",
    "sample_into",
    "resample",
    "apply",
    "apply_uniform",
];

/// Runs the dataflow-backed rules over every parsed fn body. Each
/// body is parsed once ([`ast::parse_block`]), lowered once
/// ([`cfg::build`]), and each rule solves its own analysis over the
/// shared graph.
fn temporal_rules(
    file: &SourceFile,
    fns: &[FnSig],
    allow: &Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    for f in fns {
        let Some((lo, hi)) = f.body else { continue };
        let block = ast::parse_block(&file.tokens, lo, hi);
        let graph = cfg::build(&block);
        l5_stale_projection(file, f, &graph, allow, diags);
        l7_lock_across_boundary(file, f, &graph, allow, diags);
        l8_dropped_transient(file, f, &graph, allow, diags);
    }
}

// ---------------------------------------------------------------- L5

/// L5 fact: what a projection-holding binding currently models.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ProjFact {
    /// The binding holds a projection of the *current* platform state.
    Fresh(String),
    /// The binding's projection was invalidated by an actuation.
    Stale {
        /// The binding.
        var: String,
        /// The actuation call name.
        killed_by: String,
        /// The actuation call line.
        kill_line: u32,
    },
}

impl ProjFact {
    fn var(&self) -> &str {
        match self {
            ProjFact::Fresh(v) => v,
            ProjFact::Stale { var, .. } => var,
        }
    }
}

/// True when `node` binds a projection: the initializer's *result*
/// comes from `project`/`project_nb`, or the `let` type annotation
/// names `PpeProjection`. An initializer that merely contains a
/// projection consumed further in (`decide(&ppep.project(..)?)`, or a
/// block that projects, decides, and yields the decision) binds the
/// *consumer's* result, not a projection.
fn binds_projection(node: &CfgNode) -> bool {
    !node.binds.is_empty()
        && (node.expr.tail_call_in(&PROJECTION_SOURCES)
            || node.ty.iter().any(|t| t == "PpeProjection"))
}

/// The bindings `node` refills with a fresh projection: each `&mut x`
/// argument of a `project_into` call. Such a use writes the binding;
/// it does not read it.
fn filled_projections(node: &CfgNode) -> impl Iterator<Item = &ast::Use> {
    node.expr
        .calls
        .iter()
        .filter(|c| PROJECTION_FILLS.contains(&c.name.as_str()))
        .flat_map(move |c| {
            node.expr
                .mut_borrows
                .iter()
                .filter(move |u| c.idx < u.idx && u.idx <= c.close)
        })
}

struct ProjAnalysis {
    entry: BTreeSet<ProjFact>,
}

impl Analysis for ProjAnalysis {
    type Fact = ProjFact;

    fn entry(&self) -> BTreeSet<ProjFact> {
        self.entry.clone()
    }

    fn transfer(&self, node: &CfgNode, input: &BTreeSet<ProjFact>) -> BTreeSet<ProjFact> {
        // Scope ends, `drop(x)`, and rebinding retire old facts.
        let mut out: BTreeSet<ProjFact> = input
            .iter()
            .filter(|fact| {
                let v = fact.var();
                !node.scope_end.iter().any(|s| s == v)
                    && !node.expr.dropped.iter().any(|d| d == v)
                    && !node.binds.iter().any(|b| b == v)
            })
            .cloned()
            .collect();
        // An actuation call turns every surviving fresh fact stale.
        if let Some(kill) = node.expr.first_call_in(&PROJECTION_KILLS) {
            out = out
                .into_iter()
                .map(|fact| match fact {
                    ProjFact::Fresh(var) => ProjFact::Stale {
                        var,
                        killed_by: kill.name.clone(),
                        kill_line: kill.line,
                    },
                    stale => stale,
                })
                .collect();
        }
        // A refill makes its target fresh again, whatever it was.
        for u in filled_projections(node) {
            out.retain(|fact| fact.var() != u.name);
            out.insert(ProjFact::Fresh(u.name.clone()));
        }
        if binds_projection(node) {
            for b in &node.binds {
                out.insert(ProjFact::Fresh(b.clone()));
            }
        } else if let [bind] = &node.binds[..] {
            // A plain move or `.clone()` of one binding inherits its
            // fact: `let held = projection.clone();` goes stale
            // together with `projection`. Multi-use initializers
            // (struct literals archiving the projection for
            // reporting) deliberately do not propagate — the archive
            // is a report of the completed cycle, not a pricing
            // input.
            if node.expr.uses.len() == 1 && node.expr.calls.iter().all(|c| c.name == "clone") {
                let inherited: Vec<ProjFact> = node
                    .expr
                    .uses
                    .iter()
                    .filter_map(|u| {
                        out.iter()
                            .find(|fact| fact.var() == u.name)
                            .map(|fact| match fact {
                                ProjFact::Fresh(_) => ProjFact::Fresh(bind.clone()),
                                ProjFact::Stale {
                                    killed_by,
                                    kill_line,
                                    ..
                                } => ProjFact::Stale {
                                    var: bind.clone(),
                                    killed_by: killed_by.clone(),
                                    kill_line: *kill_line,
                                },
                            })
                    })
                    .collect();
                out.extend(inherited);
            }
        }
        out
    }
}

fn l5_stale_projection(
    file: &SourceFile,
    f: &FnSig,
    graph: &cfg::Cfg,
    allow: &Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    let mut entry = BTreeSet::new();
    for (names, ty) in &f.params {
        if file.tokens[ty.0..ty.1]
            .iter()
            .any(|t| t.is_ident("PpeProjection"))
        {
            for n in names {
                entry.insert(ProjFact::Fresh(n.clone()));
            }
        }
    }
    // Cheap pre-pass: without both a projection and an actuation the
    // rule can never fire, and most fn bodies have neither.
    let has_kill = graph
        .nodes
        .iter()
        .any(|n| n.expr.first_call_in(&PROJECTION_KILLS).is_some());
    let has_proj = !entry.is_empty()
        || graph
            .nodes
            .iter()
            .any(|n| binds_projection(n) || filled_projections(n).next().is_some());
    if !has_kill || !has_proj {
        return;
    }
    let sol = solve(graph, &ProjAnalysis { entry });
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        for u in &node.expr.uses {
            if filled_projections(node).any(|f| f.idx == u.idx) {
                continue;
            }
            let flowed_stale = sol.inputs[id].iter().find_map(|fact| match fact {
                ProjFact::Stale {
                    var,
                    killed_by,
                    kill_line,
                } if var == &u.name => Some((killed_by.clone(), *kill_line)),
                _ => None,
            });
            // Same-statement refinement: fresh on entry, but an
            // actuation earlier in this statement already invalidated
            // it. Uses inside the actuation's own argument list are
            // fine — the projection is consumed *by* the actuation.
            let same_stmt = || {
                if !sol.inputs[id].contains(&ProjFact::Fresh(u.name.clone())) {
                    return None;
                }
                node.expr
                    .calls
                    .iter()
                    .filter(|c| PROJECTION_KILLS.contains(&c.name.as_str()))
                    .find(|c| c.close < u.idx)
                    .map(|c| (c.name.clone(), c.line))
            };
            let Some((killed_by, kill_line)) = flowed_stale.or_else(same_stmt) else {
                continue;
            };
            if !seen.insert((u.line, u.col))
                || skipped(file, "stale-projection", u.line)
                || allow.allows("stale-projection", &file.path, &f.name)
            {
                continue;
            }
            diags.push(Diagnostic {
                group: "L5",
                rule: "stale-projection",
                path: file.path.clone(),
                line: u.line,
                col: u.col,
                message: format!(
                    "`{}` holds a projection of the pre-`{}` platform state; re-project after \
                     actuation instead of reading the stale one",
                    u.name, killed_by
                ),
                note: Some(format!(
                    "invalidated by the `{killed_by}(..)` at line {kill_line}; every DVFS \
                     decision must price off a projection of the current VF state (Fig. 5 loop)"
                )),
            });
        }
    }
}

// ---------------------------------------------------------------- L7

/// L7 fact: a live lock guard and where it was acquired.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct GuardFact {
    var: String,
    line: u32,
}

/// True when `node` binds a lock guard: a `.lock()` chain whose
/// trailing method calls are all guard-preserving adapters, or a
/// `*Guard` type annotation.
fn binds_guard(node: &CfgNode) -> bool {
    if node.binds.is_empty() {
        return false;
    }
    if node.ty.iter().any(|t| GUARD_TYPES.contains(&t.as_str())) {
        return true;
    }
    let Some(lock) = node
        .expr
        .calls
        .iter()
        .find(|c| c.name == LOCK_CALL && c.method && !node.expr.nested(c))
    else {
        return false;
    };
    // Only the chain's own method calls matter; calls nested in an
    // adapter's arguments (`map_err(|_| Error::X("..".into()))`) do
    // not unwrap the guard.
    node.expr
        .calls
        .iter()
        .filter(|c| c.idx > lock.close && c.method && !node.expr.nested(c))
        .all(|c| GUARD_CHAIN_OK.contains(&c.name.as_str()))
}

struct GuardAnalysis {
    entry: BTreeSet<GuardFact>,
}

impl Analysis for GuardAnalysis {
    type Fact = GuardFact;

    fn entry(&self) -> BTreeSet<GuardFact> {
        self.entry.clone()
    }

    fn transfer(&self, node: &CfgNode, input: &BTreeSet<GuardFact>) -> BTreeSet<GuardFact> {
        let mut out: BTreeSet<GuardFact> = input
            .iter()
            .filter(|g| {
                !node.scope_end.contains(&g.var)
                    && !node.expr.dropped.contains(&g.var)
                    && !node.binds.contains(&g.var)
            })
            .cloned()
            .collect();
        if binds_guard(node) {
            let line = node
                .expr
                .calls
                .iter()
                .find(|c| c.name == LOCK_CALL)
                .map_or(node.line, |c| c.line);
            for b in &node.binds {
                out.insert(GuardFact {
                    var: b.clone(),
                    line,
                });
            }
        }
        out
    }
}

fn l7_lock_across_boundary(
    file: &SourceFile,
    f: &FnSig,
    graph: &cfg::Cfg,
    allow: &Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    let has_boundary = graph
        .nodes
        .iter()
        .any(|n| n.expr.first_call_in(&LOCK_BOUNDARIES).is_some());
    if !has_boundary {
        return;
    }
    let mut entry = BTreeSet::new();
    for (names, ty) in &f.params {
        if file.tokens[ty.0..ty.1]
            .iter()
            .any(|t| GUARD_TYPES.iter().any(|g| t.is_ident(g)))
        {
            for n in names {
                entry.insert(GuardFact {
                    var: n.clone(),
                    line: f.line,
                });
            }
        }
    }
    let sol = solve(graph, &GuardAnalysis { entry });
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        for b in node
            .expr
            .calls
            .iter()
            .filter(|c| LOCK_BOUNDARIES.contains(&c.name.as_str()))
        {
            // A guard flowing in from an earlier statement…
            let flowed = sol.inputs[id]
                .iter()
                .next()
                .map(|g| (format!("the guard `{}`", g.var), g.line));
            // …or a `.lock()` earlier in this very statement (the
            // guard temporary lives until the statement ends, so the
            // boundary call still runs under it).
            let same_stmt = || {
                node.expr
                    .calls
                    .iter()
                    .find(|c| c.name == LOCK_CALL && c.method && c.idx < b.idx)
                    .map(|c| ("the guard temporary".to_string(), c.line))
            };
            let Some((what, line)) = flowed.or_else(same_stmt) else {
                continue;
            };
            if !seen.insert((b.line, b.col))
                || skipped(file, "lock-across-boundary", b.line)
                || allow.allows("lock-across-boundary", &file.path, &f.name)
            {
                continue;
            }
            diags.push(Diagnostic {
                group: "L7",
                rule: "lock-across-boundary",
                path: file.path.clone(),
                line: b.line,
                col: b.col,
                message: format!(
                    "`{}(..)` runs while {} (acquired at line {}) is still held",
                    b.name, what, line
                ),
                note: Some(format!(
                    "lock hold time across `{}` is what amplifies the serve-path p99; drop \
                     the guard (scope it or `drop(..)` it) before the boundary call",
                    b.name
                )),
            });
        }
    }
}

// ---------------------------------------------------------------- L8

fn l8_dropped_transient(
    file: &SourceFile,
    f: &FnSig,
    graph: &cfg::Cfg,
    allow: &Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    for node in &graph.nodes {
        if node.kind != NodeKind::Stmt {
            // `match platform.sample() { .. }` scrutinees and `if let`
            // conditions consume the Result — those are the compliant
            // shapes.
            continue;
        }
        // Any `is_transient()` in the statement means the fault is
        // being triaged (including flattened `let r = match .. {..};`
        // forms).
        if node.expr.calls_name("is_transient") {
            continue;
        }
        for c in node
            .expr
            .calls
            .iter()
            .filter(|c| TRANSIENT_RESULTS.contains(&c.name.as_str()))
        {
            // Shape 1: `let _ = platform.sample();` — the whole Result
            // is discarded on the spot.
            let discarded = node.bind_discard;
            // Shape 2: a directly chained `.ok()` silently converts
            // the Error away: `platform.sample().ok()`.
            let close = c.close;
            let ok_chained = file.tokens.get(close + 1).is_some_and(|t| t.is_punct("."))
                && file.tokens.get(close + 2).is_some_and(|t| t.is_ident("ok"))
                && file.tokens.get(close + 3).is_some_and(|t| t.is_punct("("));
            if !discarded && !ok_chained {
                continue;
            }
            if !seen.insert((c.line, c.col))
                || skipped(file, "dropped-transient", c.line)
                || allow.allows("dropped-transient", &file.path, &f.name)
            {
                continue;
            }
            let via = if discarded { "`let _ = ..`" } else { "`.ok()`" };
            diags.push(Diagnostic {
                group: "L8",
                rule: "dropped-transient",
                path: file.path.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "the `Result` of `{}(..)` is discarded via {via} without fault triage",
                    c.name
                ),
                note: Some(
                    "branch on `Error::is_transient()` — retry/hold on transients, surface \
                     everything else — so the energy-accounting identity survives faults"
                        .into(),
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(crate_name: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("crates/x/src/lib.rs", crate_name, src);
        check_file(&file, &Allowlist::default())
    }

    #[test]
    fn alias_expansion() {
        assert_eq!(expand_rule_alias("L2"), vec!["raw-f64".to_string()]);
        assert_eq!(expand_rule_alias("all").len(), ALL_RULES.len());
        assert_eq!(expand_rule_alias("unwrap"), vec!["unwrap".to_string()]);
    }

    #[test]
    fn unwrap_or_variants_do_not_trip_l1() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }";
        assert!(check("ppep-core", src).is_empty());
    }

    #[test]
    fn l1_only_applies_to_runtime_crates() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(check("ppep-core", src).len(), 1);
        assert!(check("ppep-experiments", src).is_empty());
        assert!(check("ppep-lint", src).is_empty());
    }

    #[test]
    fn index_arith_ignores_plain_and_literal_indices() {
        // Literal indices stay clean; a plain variable index now trips
        // index-nonliteral (but not index-arith).
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] + v[0] }";
        let d = check("ppep-sim", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "index-nonliteral");
        let bad = "fn f(v: &[u32], i: usize) -> u32 { v[i + 1] }";
        let d = check("ppep-sim", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "index-arith");
        // Method calls inside the index are non-literal, not arithmetic.
        let ok = "fn f(v: &[u32], i: usize) -> u32 { v[i.min(v.len())] }";
        let d = check("ppep-sim", ok);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "index-nonliteral");
    }

    #[test]
    fn index_nonliteral_allowlisted_by_containing_fn() {
        let src =
            "fn f(v: &[u32], i: usize) -> u32 { v[i] }\nfn g(v: &[u32], i: usize) -> u32 { v[i] }";
        let allow = Allowlist::parse(
            "index-nonliteral crates/x/src/lib.rs f -- i is clamped by the caller\n",
        )
        .unwrap();
        let file = SourceFile::parse("crates/x/src/lib.rs", "ppep-sim", src);
        let d = check_file(&file, &allow);
        assert_eq!(d.len(), 1, "only the unallowed fn g remains: {d:?}");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn index_nonliteral_skips_literals_types_and_macros() {
        // Array types, attribute brackets, slice patterns, and macro
        // brackets are not index positions.
        let src = "#[derive(Debug)]\nstruct S { a: [u64; 8] }\nfn f() -> Vec<u32> { vec![1, 2] }";
        assert!(check("ppep-sim", src).is_empty());
        let lit = "fn f(v: &[u32]) -> u32 { v[0] + v[1] }";
        assert!(check("ppep-sim", lit).is_empty());
    }

    #[test]
    fn unbound_span_requires_a_live_binding() {
        let ok = "fn f(&self) { let _g = self.rec.span(Stage::Decide, 0); work(); }";
        assert!(check("ppep-core", ok).is_empty());
        let bare = "fn f(&self) { self.rec.span(Stage::Decide, 0); work(); }";
        let d = check("ppep-core", bare);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unbound-span");
        let dropped = "fn f(&self) { let _ = self.rec.span(Stage::Decide, 0); work(); }";
        assert_eq!(check("ppep-core", dropped).len(), 1);
        // Reassignment into an existing binding keeps the guard alive.
        let assigned = "fn f(&self) { self.guard = self.rec.span(Stage::Decide, 0); }";
        assert!(check("ppep-core", assigned).is_empty());
        // Applies across all ppep- crates, but not to test code.
        let test_code =
            "#[cfg(test)]\nmod tests {\n    fn t(r: &R) { r.rec.span(Stage::Decide, 0); }\n}\n";
        assert!(check("ppep-experiments", test_code).is_empty());
        assert_eq!(check("ppep-experiments", bare).len(), 1);
    }

    #[test]
    fn l2_flags_bare_f64_but_not_collections() {
        let src = "pub fn eval(x: f64) -> f64 { x }";
        assert_eq!(check("ppep-models", src).len(), 2);
        let ok = "pub fn eval(xs: &[f64]) -> Vec<f64> { xs.to_vec() }";
        assert!(check("ppep-models", ok).is_empty());
        // Non-pub and non-unit-API crates are out of scope.
        assert!(check("ppep-sim", src).is_empty());
        let private = "fn eval(x: f64) -> f64 { x }";
        assert!(check("ppep-models", private).is_empty());
    }

    #[test]
    fn l3_flags_wildcards_only_with_domain_enums() {
        let bad = "fn f(k: FaultKind) -> u32 { match k { FaultKind::SensorDropout => 1, _ => 0 } }";
        let d = check("ppep-sim", bad);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("FaultKind"));
        let binding = "fn f(k: FaultKind) -> u32 { match k { FaultKind::SensorDropout => 1, other => other.cost() } }";
        assert_eq!(check("ppep-sim", binding).len(), 1);
        let ok = "fn f(k: FaultKind) -> u32 { match k { FaultKind::SensorDropout => 1, FaultKind::ThermalNan => 2 } }";
        assert!(check("ppep-sim", ok).is_empty());
        let unrelated = "fn f(x: Option<u32>) -> u32 { match x { Some(v) => v, _ => 0 } }";
        assert!(check("ppep-sim", unrelated).is_empty());
    }

    #[test]
    fn l4_requires_finite_guard_on_unit_outputs() {
        let bad = "pub fn power(&self) -> Watts { Watts::new(self.raw) }";
        assert_eq!(check("ppep-models", bad).len(), 1);
        let ok = "pub fn power(&self) -> Result<Watts> { Watts::new(self.raw).finite(\"p\") }";
        assert!(check("ppep-models", ok).is_empty());
        let accessor = "pub fn power(&self) -> Watts { self.power }";
        assert!(check("ppep-models", accessor).is_empty());
        let ref_accessor = "pub fn table(&self) -> &[Watts] { &self.table }";
        assert!(check("ppep-models", ref_accessor).is_empty());
        // Only the models crate is in scope.
        assert!(check("ppep-core", bad).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(check("ppep-core", src).is_empty());
    }

    #[test]
    fn suppression_comments_silence_a_line() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // ppep-lint: allow(unwrap)\n";
        assert!(check("ppep-core", src).is_empty());
    }

    #[test]
    fn fn_signature_parse_handles_generics_and_where() {
        let src = "pub fn f<T: Into<f64>>(x: T, y: f64) -> f64 where T: Copy { y }";
        let file = SourceFile::parse("x.rs", "ppep-models", src);
        let fns = parse_fns(&file);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "f");
        assert!(fns[0].is_pub);
        assert_eq!(fns[0].param_types.len(), 2);
        assert!(fns[0].ret.is_some());
        assert!(fns[0].body.is_some());
    }

    #[test]
    fn restricted_pub_is_not_public_api() {
        let src = "pub(crate) fn f(x: f64) -> f64 { x }";
        assert!(check("ppep-models", src).is_empty());
    }

    #[test]
    fn l5_catches_projection_reuse_after_apply() {
        let src = "fn react(&mut self) -> Result<Step> {\n\
                   \x20   let record = self.platform.sample()?;\n\
                   \x20   let projection = self.ppep.project(&record)?;\n\
                   \x20   let decision = self.governor.decide(&projection);\n\
                   \x20   self.platform.apply(&decision)?;\n\
                   \x20   self.note(&projection);\n\
                   \x20   Ok(Step { record })\n\
                   }";
        let d = check("ppep-core", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "stale-projection");
        assert_eq!(d[0].line, 6, "points at the stale read");
        let note = d[0].note.as_deref().expect("note names the kill site");
        assert!(note.contains("`apply(..)` at line 5"), "{note}");
    }

    #[test]
    fn l5_reprojection_clears_the_fact() {
        let src = "fn react(&mut self) -> Result<()> {\n\
                   \x20   let mut projection = self.ppep.project(&record)?;\n\
                   \x20   self.platform.apply(&decision)?;\n\
                   \x20   projection = self.ppep.project_nb(&record)?;\n\
                   \x20   self.note(&projection);\n\
                   \x20   Ok(())\n\
                   }";
        assert!(check("ppep-core", src).is_empty());
    }

    #[test]
    fn l5_flags_staleness_from_one_branch_only() {
        let src = "fn f(&mut self) -> Result<()> {\n\
                   \x20   let projection = self.ppep.project(&record)?;\n\
                   \x20   if hot {\n\
                   \x20       self.platform.apply(&decision)?;\n\
                   \x20   }\n\
                   \x20   self.note(&projection);\n\
                   \x20   Ok(())\n\
                   }";
        let d = check("ppep-core", src);
        assert_eq!(d.len(), 1, "stale on the hot path: {d:?}");
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn l5_consuming_the_projection_in_the_actuation_is_fine() {
        let src = "fn f(&mut self) -> Result<()> {\n\
                   \x20   let projection = self.ppep.project(&record)?;\n\
                   \x20   self.platform.apply(&decide(&projection))?;\n\
                   \x20   Ok(())\n\
                   }";
        assert!(check("ppep-core", src).is_empty());
    }

    #[test]
    fn l5_tracks_typed_params_and_clones() {
        let src = "fn f(&mut self, projection: &PpeProjection) -> Result<()> {\n\
                   \x20   let held = projection.clone();\n\
                   \x20   self.platform.set_vf(0, vf)?;\n\
                   \x20   self.note(&held);\n\
                   \x20   Ok(())\n\
                   }";
        let d = check("ppep-core", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("`held`"));
    }

    #[test]
    fn l7_guard_live_across_handle_frame() {
        let src = "fn f(&self) -> Result<Vec<u8>> {\n\
                   \x20   let mut service = self.service.lock().map_err(|_| err())?;\n\
                   \x20   let reply = service.handle_frame(&bytes)?;\n\
                   \x20   Ok(reply)\n\
                   }";
        let d = check("ppep-serve", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock-across-boundary");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("`service`"), "{}", d[0].message);
    }

    #[test]
    fn l7_same_statement_lock_then_boundary() {
        let src = "fn f(&self) -> Result<Vec<u8>> {\n\
                   \x20   let reply = { self.service.lock().map_err(|_| err())?.handle_frame(&bytes)? };\n\
                   \x20   Ok(reply)\n\
                   }";
        let d = check("ppep-serve", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock-across-boundary");
    }

    #[test]
    fn l7_scoped_guard_released_before_io_is_clean() {
        let src = "fn f(&self) -> Result<()> {\n\
                   \x20   let reply = {\n\
                   \x20       let mut service = self.service.lock().map_err(|_| err())?;\n\
                   \x20       service.quick_op()\n\
                   \x20   };\n\
                   \x20   out.write_all(&reply)?;\n\
                   \x20   Ok(())\n\
                   }";
        assert!(check("ppep-serve", src).is_empty());
    }

    #[test]
    fn l7_drop_releases_the_guard() {
        let src = "fn f(&self) -> Result<()> {\n\
                   \x20   let guard = self.state.lock().map_err(|_| err())?;\n\
                   \x20   drop(guard);\n\
                   \x20   out.flush()?;\n\
                   \x20   Ok(())\n\
                   }";
        assert!(check("ppep-serve", src).is_empty());
    }

    #[test]
    fn l7_value_extracted_under_temporary_guard_is_not_a_guard() {
        let src = "fn f(&self) -> Result<()> {\n\
                   \x20   let total = self.state.lock().map_err(|_| err())?.total_granted();\n\
                   \x20   out.write_all(&enc(total))?;\n\
                   \x20   Ok(())\n\
                   }";
        assert!(check("ppep-serve", src).is_empty());
    }

    #[test]
    fn l8_flags_discarded_and_ok_chained_results() {
        let discarded = "fn f(&mut self) { let _ = self.platform.sample(); }";
        let d = check("ppep-core", discarded);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "dropped-transient");
        let ok_chained = "fn f(&mut self) { self.platform.resample().ok(); }";
        let d = check("ppep-core", ok_chained);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`.ok()`"));
    }

    #[test]
    fn l8_triage_shapes_are_clean() {
        let matched = "fn f(&mut self) -> Result<()> {\n\
                       \x20   match self.platform.sample() {\n\
                       \x20       Ok(record) => self.consume(record),\n\
                       \x20       Err(e) if e.is_transient() => self.hold(),\n\
                       \x20       Err(e) => return Err(e),\n\
                       \x20   }\n\
                       \x20   Ok(())\n\
                       }";
        assert!(check("ppep-core", matched).is_empty());
        let propagated = "fn f(&mut self) -> Result<()> { self.platform.apply(&d)?; Ok(()) }";
        assert!(check("ppep-core", propagated).is_empty());
        let flattened = "fn f(&mut self) {\n\
                         \x20   let ok = matches!(self.platform.sample(), Err(e) if e.is_transient());\n\
                         \x20   self.record(ok);\n\
                         }";
        assert!(check("ppep-core", flattened).is_empty());
    }

    #[test]
    fn temporal_rules_respect_inline_suppression_and_test_code() {
        let suppressed = "fn f(&mut self) {\n\
                          \x20   // ppep-lint: allow(dropped-transient)\n\
                          \x20   let _ = self.platform.sample();\n\
                          }";
        assert!(check("ppep-core", suppressed).is_empty());
        let test_code = "#[cfg(test)]\nmod tests {\n\
                         \x20   fn t(p: &mut P) { let _ = p.sample(); }\n\
                         }";
        assert!(check("ppep-core", test_code).is_empty());
    }

    #[test]
    fn temporal_rules_honor_the_allowlist_by_fn() {
        let src = "fn f(&mut self) { let _ = self.platform.sample(); }";
        let allow = Allowlist::parse(
            "dropped-transient crates/x/src/lib.rs f -- best-effort failsafe pin\n",
        )
        .unwrap();
        let file = SourceFile::parse("crates/x/src/lib.rs", "ppep-core", src);
        assert!(check_file(&file, &allow).is_empty());
        assert!(
            allow.unused().is_empty(),
            "the entry was consulted and used"
        );
    }
}
