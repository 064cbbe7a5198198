//! The rule catalog. Each rule encodes one load-bearing invariant the
//! workspace has accumulated over PRs 1–8; the engine runs all of them
//! over every file and the waiver grammar (see [`crate::engine`]) is the
//! only escape hatch.

use crate::engine::{FileContext, Finding};
use crate::lexer::TokenKind;
use crate::lock_order;

/// A lint rule: stable id, one-line summary, and the checker.
pub struct Rule {
    /// Stable rule id — what waivers name.
    pub id: &'static str,
    /// One-line summary for `--rules` and the README catalog.
    pub summary: &'static str,
    /// The checker.
    pub check: fn(&FileContext<'_>, &mut Vec<Finding>),
}

/// Every rule, in catalog order.
pub const ALL: &[Rule] = &[
    Rule {
        id: "safety-comments",
        summary: "every `unsafe` block/fn/impl carries a `// SAFETY:` justification",
        check: safety_comments,
    },
    Rule {
        id: "float-total-order",
        summary: "`partial_cmp` is banned — float orderings use `total_cmp` (PR-4 NaN sweep)",
        check: float_total_order,
    },
    Rule {
        id: "ffi-confinement",
        summary: "`extern \"C\"` FFI only in the designated modules",
        check: ffi_confinement,
    },
    Rule {
        id: "panic-free-wire",
        summary: "no unwrap/expect/panic!/slice-index where arbitrary bytes are decoded",
        check: panic_free_wire,
    },
    Rule {
        id: "lock-order",
        summary: "the registry's lock family is acquired in declared rank order",
        check: lock_order::check,
    },
    Rule {
        id: "telemetry-no-lock",
        summary: "no metric recording (`.observe`/`.inc`/`.inc_by`) under a hot-path registry lock",
        check: lock_order::check_telemetry,
    },
];

/// Rust keywords — used to tell `value[i]` (indexing) from `if [a] = …`
/// (not indexing) and similar.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word)
}

/// Index of the previous non-comment token before `i`, if any.
fn prev_sig(ctx: &FileContext<'_>, i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !ctx.tokens[j].is_comment())
}

/// Index of the next non-comment token after `i`, if any.
fn next_sig(ctx: &FileContext<'_>, i: usize) -> Option<usize> {
    (i + 1..ctx.tokens.len()).find(|&j| !ctx.tokens[j].is_comment())
}

// ---------------------------------------------------------------------------
// R1: safety-comments
// ---------------------------------------------------------------------------

/// Every `unsafe` keyword — blocks, fns, impls, traits, test helpers
/// included — must be annotated with a comment containing `SAFETY:` on the
/// same line or in the contiguous comment/attribute block directly above.
/// The justification is the reviewable artifact: *why* the invariants the
/// compiler can no longer check still hold.
fn safety_comments(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    // Per-line facts (1-based; index 0 unused).
    let nlines = ctx.src.lines().count() + 2;
    let mut has_code = vec![false; nlines];
    let mut has_safety = vec![false; nlines];
    let mut has_comment = vec![false; nlines];
    for t in ctx.tokens {
        let lines = t.line as usize..=(t.end_line as usize).min(nlines - 1);
        if t.is_comment() {
            let safety = t.text(ctx.src).contains("SAFETY:");
            for l in lines {
                has_comment[l] = true;
                has_safety[l] |= safety;
            }
        } else {
            for l in lines {
                has_code[l] = true;
            }
        }
    }
    let attr_line = |l: usize| -> bool {
        ctx.src.lines().nth(l - 1).map(str::trim_start).is_some_and(|s| s.starts_with('#'))
    };
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident(ctx.src, "unsafe") {
            continue;
        }
        // Same line, then the contiguous comment/attribute block above
        // (blank lines or code lines break the block).
        let mut annotated = has_safety[t.line as usize];
        let mut l = t.line as usize;
        while !annotated && l > 1 {
            l -= 1;
            let comment_only = has_comment[l] && !has_code[l];
            if !(comment_only || (has_code[l] && attr_line(l))) {
                break;
            }
            annotated = has_safety[l];
        }
        if annotated {
            continue;
        }
        let what = match next_sig(ctx, i).map(|j| ctx.tokens[j]) {
            Some(n) if n.is_ident(ctx.src, "fn") => "unsafe fn",
            Some(n) if n.is_ident(ctx.src, "impl") => "unsafe impl",
            Some(n) if n.is_ident(ctx.src, "trait") => "unsafe trait",
            _ => "unsafe block",
        };
        ctx.report(
            out,
            "safety-comments",
            t.line,
            format!("{what} without a `// SAFETY:` comment justifying why it is sound"),
        );
    }
}

// ---------------------------------------------------------------------------
// R2: float-total-order
// ---------------------------------------------------------------------------

/// `partial_cmp` made NaNs compare `Equal`-ish all over the pre-PR-4 code
/// and produced nondeterministic sorts; the sweep replaced every float
/// ordering with `total_cmp`. This rule makes the sweep permanent: any
/// `partial_cmp` identifier — call *or* trait-impl definition — needs a
/// waiver stating why a partial ordering is semantically right there.
fn float_total_order(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for t in ctx.tokens.iter() {
        if t.is_ident(ctx.src, "partial_cmp") {
            ctx.report(
                out,
                "float-total-order",
                t.line,
                "`partial_cmp` is banned (NaN makes it lie): use `f64::total_cmp` / \
                 `Value::total_cmp`, or waive with the semantic reason a partial \
                 ordering is correct here"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// R3: ffi-confinement
// ---------------------------------------------------------------------------

/// Files allowed to declare `extern "C"` items: the two readiness-backend
/// modules and the serve binary (signal handling). Everything else must go
/// through these modules — raw FFI scattered across the tree is how
/// errno-handling bugs breed.
const FFI_ALLOWED: &[&str] = &[
    "crates/service/src/poller.rs",
    "crates/parallel/src/wake.rs",
    "crates/service/src/bin/explain3d-serve.rs",
];

fn ffi_confinement(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let path = ctx.path_str();
    if FFI_ALLOWED.iter().any(|allowed| path.ends_with(allowed)) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident(ctx.src, "extern") || ctx.is_test(i) {
            continue;
        }
        // `extern crate` is a legacy import, not FFI.
        let next = next_sig(ctx, i).map(|j| ctx.tokens[j]);
        if next.is_some_and(|n| n.is_ident(ctx.src, "crate")) {
            continue;
        }
        ctx.report(
            out,
            "ffi-confinement",
            t.line,
            format!(
                "raw FFI (`extern`) outside the designated modules — move the binding \
                 into one of: {}",
                FFI_ALLOWED.join(", ")
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// R4: panic-free-wire
// ---------------------------------------------------------------------------

/// The files where "decoding arbitrary bytes never panics" is a pinned,
/// tested guarantee (the PR-5 wire audit and the PR-6 codec contract).
const WIRE_EDGE: &[&str] = &[
    "crates/service/src/json.rs",
    "crates/service/src/proto.rs",
    "crates/service/src/wire.rs",
    "crates/durability/src/codec.rs",
];

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn panic_free_wire(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let path = ctx.path_str();
    if !WIRE_EDGE.iter().any(|edge| path.ends_with(edge)) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test(i) || t.kind != TokenKind::Ident && t.kind != TokenKind::Punct('[') {
            continue;
        }
        // `.unwrap()` / `.expect(…)`.
        if t.kind == TokenKind::Ident {
            let word = t.text(ctx.src);
            if (word == "unwrap" || word == "expect")
                && prev_sig(ctx, i).is_some_and(|p| ctx.tokens[p].is_punct('.'))
                && next_sig(ctx, i).is_some_and(|n| ctx.tokens[n].is_punct('('))
            {
                ctx.report(
                    out,
                    "panic-free-wire",
                    t.line,
                    format!(
                        "`.{word}()` on the wire edge — arbitrary bytes must never \
                         panic; return a typed error instead"
                    ),
                );
            }
            if PANIC_MACROS.contains(&word)
                && next_sig(ctx, i).is_some_and(|n| ctx.tokens[n].is_punct('!'))
            {
                ctx.report(
                    out,
                    "panic-free-wire",
                    t.line,
                    format!("`{word}!` on the wire edge — return a typed error instead"),
                );
            }
            continue;
        }
        // Slice indexing: `expr[…]` panics out-of-range. An opening `[`
        // is indexing when the previous significant token could end an
        // expression: a non-keyword identifier, `)`, `]`, or a literal.
        if let Some(p) = prev_sig(ctx, i) {
            let prev = ctx.tokens[p];
            let indexes = match prev.kind {
                TokenKind::Ident => !is_keyword(prev.text(ctx.src)),
                TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                TokenKind::Str | TokenKind::Number => true,
                _ => false,
            };
            if indexes {
                ctx.report(
                    out,
                    "panic-free-wire",
                    t.line,
                    "slice-indexing on the wire edge can panic out-of-range — use \
                     `.get(…)` and handle `None`"
                        .to_string(),
                );
            }
        }
    }
}
