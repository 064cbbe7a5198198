//! R5 `lock-order`: rank discipline for the session registry's lock family.
//!
//! `crates/service/src/registry.rs` nests five kinds of locks (plus the
//! recovery bookkeeping table). The *request path* touches them in lookup
//! order — index stripe, slot pending, slot state, recovery gate — but
//! what deadlock-freedom actually needs is a consistent **holds** order:
//! whenever a thread blocks on lock B while holding lock A, `rank(A) <
//! rank(B)` for one global rank function. Reading every nesting out of
//! PRs 5–8 gives this acquisition order (outermost first):
//!
//! | rank | lock            | recognized as                                  |
//! |------|-----------------|------------------------------------------------|
//! | 0    | recovery-table  | `.recovering.lock(`                            |
//! | 1    | recovery-gate   | `gate.lock(`                                   |
//! | 2    | slot-state      | `.state.lock(`, `lock_state(`                  |
//! | 3    | index-stripe    | `.slots.read/.write(`, `shard_read/write(`     |
//! | 4    | slot-pending    | `.pending.lock(`                               |
//! | 5    | slot-report     | `.report.lock(`                                |
//!
//! The real nestings this admits: the recovery gate is held across a whole
//! recovery (which re-reads and writes the stripe: 1 → 3); `explain`
//! holds a slot's state while re-validating registration against the
//! stripe (2 → 3); eviction holds the stripe while draining a victim's
//! pending queue (3 → 4); a drain holds the state while collecting the
//! pending batch (2 → 4); a run publishes its report into the slot's
//! report cell while holding the state (2 → 5). The report cell is a leaf:
//! nothing is acquired while it is held. Anything else — most importantly *blocking* on
//! a slot's state while holding the stripe or a pending queue, which is
//! how a slow `re_explain` would freeze every unrelated session on the
//! stripe — is a violation.
//!
//! `try_lock`/`try_read`/`try_write` acquisitions are **exempt from the
//! order check** (a try-acquisition never waits, so it cannot close a
//! wait-for cycle) but the guard they return still counts as *held* for
//! later blocking acquisitions.
//!
//! ## How approximate this is
//!
//! This is a lexical pass, not a borrow checker. Guards are assumed held
//! until their enclosing block closes (a `let`-bound guard), until the end
//! of their statement (an unbound temporary), or until an explicit
//! `drop(name)`. Calls to functions defined *in the same file* are
//! inlined **one level**: calling a function that internally blocks on a
//! rank ≤ a currently-held rank is a violation at the call site. Method
//! calls through arbitrary receivers are not resolved (only free calls
//! and `self.` calls are) — approximate by design, and calibrated so the
//! live `registry.rs` is clean without waivers.

use crate::engine::{FileContext, Finding};
use crate::lexer::{Token, TokenKind};
use std::collections::HashMap;

/// The file this rule applies to.
const TARGET: &str = "crates/service/src/registry.rs";

/// The declared lock family: `(rank, name)` recognized by field or
/// receiver patterns (see [`classify`]).
const FAMILY: &[(u8, &str)] = &[
    (0, "recovery-table"),
    (1, "recovery-gate"),
    (2, "slot-state"),
    (3, "index-stripe"),
    (4, "slot-pending"),
    (5, "slot-report"),
];

fn family_name(rank: u8) -> &'static str {
    FAMILY.iter().find(|(r, _)| *r == rank).map(|(_, n)| *n).unwrap_or("?")
}

/// Metric-sink methods `telemetry-no-lock` flags: each records into a
/// shared histogram or counter (an atomic RMW another core may contend
/// on) and has no business running inside a ranked critical section.
const SINKS: &[&str] = &["observe", "inc", "inc_by"];

/// Lowest-ranked guard under which metric recording is refused. Ranks 0–1
/// (the recovery table and gate) are cold paths held across whole
/// recoveries; 2+ (slot-state, index-stripe, slot-pending, slot-report)
/// are the hot request-path locks the telemetry discipline protects.
const SINK_MIN_RANK: u8 = 2;

/// What a body scan looks for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// R5: blocking acquisitions must ascend in rank.
    Order,
    /// R6: no metric sink while a hot-path guard is held.
    TelemetrySinks,
}

/// One recognized acquisition.
struct Acquisition {
    rank: u8,
    blocking: bool,
    /// Significant-token index just past the acquisition (the `(`).
    after: usize,
}

/// A lock guard currently held by the function being scanned.
struct Held {
    rank: u8,
    /// Brace depth whose closing releases the guard.
    depth: i32,
    /// `let`-binding name, for `drop(name)`.
    binding: Option<String>,
    /// Whether the guard is a `let`-bound (block-scoped) one; unbound
    /// temporaries die at the end of their statement instead.
    bound: bool,
    line: u32,
}

/// Entry point — see the module docs.
pub fn check(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.path_str().ends_with(TARGET) {
        return;
    }
    // Significant (non-comment, non-test) token indices.
    let sig: Vec<usize> =
        (0..ctx.tokens.len()).filter(|&i| !ctx.tokens[i].is_comment() && !ctx.is_test(i)).collect();
    let bodies = find_fn_bodies(ctx, &sig);
    // Pass A: each function's own blocking acquisitions, for one-level
    // call inlining.
    let mut acquired_by_fn: HashMap<String, Vec<(u8, u32)>> = HashMap::new();
    for (name, range) in &bodies {
        let mut ranks = Vec::new();
        let mut k = range.0;
        while k < range.1 {
            if let Some(acq) = classify(ctx, &sig, k) {
                if acq.blocking {
                    ranks.push((acq.rank, ctx.tokens[sig[k]].line));
                }
                k = acq.after;
            } else {
                k += 1;
            }
        }
        acquired_by_fn.entry(name.clone()).or_default().extend(ranks);
    }
    // Pass B: scope-tracked scan of each body.
    for (name, range) in &bodies {
        scan_body(ctx, &sig, name, *range, &acquired_by_fn, Mode::Order, out);
    }
}

/// R6 `telemetry-no-lock`: the instrumentation discipline of the
/// observability layer, made permanent. Timings are *captured* under a
/// lock as plain integers and *recorded* (`.observe(…)`, `.inc(…)`,
/// `.inc_by(…)`) only after the guard is gone — shipping them out through
/// `RunTimings` / local `Option`s where needed. A sink call while a
/// slot-state, index-stripe, or slot-pending guard is held stretches the
/// critical section by a shared-atomic RMW (and whatever the metrics
/// library does next), which is exactly the per-session serialization
/// the service's tail latency hangs on. Uses the same scope machine (and
/// the same approximations) as `lock-order`.
pub fn check_telemetry(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.path_str().ends_with(TARGET) {
        return;
    }
    let sig: Vec<usize> =
        (0..ctx.tokens.len()).filter(|&i| !ctx.tokens[i].is_comment() && !ctx.is_test(i)).collect();
    let bodies = find_fn_bodies(ctx, &sig);
    let no_inlining = HashMap::new();
    for (name, range) in &bodies {
        scan_body(ctx, &sig, name, *range, &no_inlining, Mode::TelemetrySinks, out);
    }
}

/// Locates `fn name … { body }` items among the significant tokens.
/// Returns `(name, (sig_index_of_open_brace, sig_index_past_close))`.
fn find_fn_bodies(ctx: &FileContext<'_>, sig: &[usize]) -> Vec<(String, (usize, usize))> {
    let mut out = Vec::new();
    let tok = |k: usize| -> &Token { &ctx.tokens[sig[k]] };
    let mut k = 0usize;
    while k + 1 < sig.len() {
        if tok(k).is_ident(ctx.src, "fn") && tok(k + 1).kind == TokenKind::Ident {
            let name = tok(k + 1).text(ctx.src).to_string();
            // Find the body `{`: the first `{` at zero paren/bracket
            // nesting after the parameter list (skips `-> Type` too, since
            // types before a body brace carry no `{`).
            let mut depth = 0i32;
            let mut j = k + 2;
            let mut body_open = None;
            while j < sig.len() {
                match tok(j).kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                    TokenKind::Punct('{') if depth == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    // `fn f(…);` — a trait method signature, no body.
                    TokenKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = body_open {
                let mut brace = 0i32;
                let mut end = open;
                while end < sig.len() {
                    match tok(end).kind {
                        TokenKind::Punct('{') => brace += 1,
                        TokenKind::Punct('}') => {
                            brace -= 1;
                            if brace == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    end += 1;
                }
                out.push((name, (open + 1, end)));
                // Continue *inside* the body too: nested fns are rare but
                // cheap to include — the outer scan treats the nested fn's
                // tokens as part of the outer body, which over-approximates
                // but never under-reports. The explicit entry gives the
                // nested fn its own precise scan.
                k += 2;
                continue;
            }
        }
        k += 1;
    }
    out
}

/// Recognizes a lock-family acquisition starting at significant index `k`.
fn classify(ctx: &FileContext<'_>, sig: &[usize], k: usize) -> Option<Acquisition> {
    let tok = |i: usize| -> Option<&Token> { sig.get(i).map(|&j| &ctx.tokens[j]) };
    let ident = |i: usize| -> Option<&str> {
        tok(i).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text(ctx.src))
    };
    // Free/self call patterns: `lock_state(`, `shard_read(`, `shard_write(`.
    if let Some(word) = ident(k) {
        let callish = tok(k + 1).is_some_and(|t| t.is_punct('('));
        if callish && !preceded_by_path_sep(ctx, sig, k) {
            match word {
                "lock_state" => return Some(Acquisition { rank: 2, blocking: true, after: k + 2 }),
                "shard_read" | "shard_write" => {
                    return Some(Acquisition { rank: 3, blocking: true, after: k + 2 })
                }
                _ => {}
            }
        }
    }
    // Field/receiver method patterns: `X . method (`.
    let method = ident(k + 2)?;
    if !tok(k + 1)?.is_punct('.') || !tok(k + 3)?.is_punct('(') {
        return None;
    }
    let recv = ident(k)?;
    let (rank, blocking) = match (recv, method) {
        ("recovering", "lock") => (0, true),
        ("gate", "lock") => (1, true),
        ("state", "lock") => (2, true),
        ("state", "try_lock") => (2, false),
        ("slots", "read") | ("slots", "write") => (3, true),
        ("slots", "try_read") | ("slots", "try_write") => (3, false),
        ("pending", "lock") => (4, true),
        ("report", "lock") => (5, true),
        _ => return None,
    };
    Some(Acquisition { rank, blocking, after: k + 4 })
}

/// True when the ident at `k` is reached through `.` or `::` — a method
/// call on an arbitrary receiver or a path like `std::mem::take`, neither
/// of which the free-call patterns above should match.
fn preceded_by_path_sep(ctx: &FileContext<'_>, sig: &[usize], k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let prev = &ctx.tokens[sig[k - 1]];
    if prev.is_punct(':') {
        return true;
    }
    if !prev.is_punct('.') {
        return false;
    }
    // `self.lock_state(…)` / `self.shard_read(…)` are still "our own"
    // functions; anything else through `.` is not resolved.
    !(k >= 2 && ctx.tokens[sig[k - 2]].is_ident(ctx.src, "self"))
}

/// The scope machine over one function body.
#[allow(clippy::too_many_arguments)]
fn scan_body(
    ctx: &FileContext<'_>,
    sig: &[usize],
    fn_name: &str,
    (start, end): (usize, usize),
    acquired_by_fn: &HashMap<String, Vec<(u8, u32)>>,
    mode: Mode,
    out: &mut Vec<Finding>,
) {
    let tok = |i: usize| -> &Token { &ctx.tokens[sig[i]] };
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    // Condition tracking: `if` / `while` / `match` … `{` — guards
    // acquired in the scrutinee live as long as the following body.
    let mut in_condition = false;
    // `let` tracking for the current statement.
    let mut stmt_let_binding: Option<String> = None;
    let mut seen_let = false;
    let mut k = start;
    while k < end {
        let t = tok(k);
        match t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                in_condition = false;
                seen_let = false;
                stmt_let_binding = None;
                k += 1;
                continue;
            }
            TokenKind::Punct('}') => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
                seen_let = false;
                stmt_let_binding = None;
                k += 1;
                continue;
            }
            TokenKind::Punct(';') => {
                held.retain(|h| {
                    h.bound || h.depth < depth || (in_condition && h.depth == depth + 1)
                });
                seen_let = false;
                stmt_let_binding = None;
                k += 1;
                continue;
            }
            TokenKind::Ident => {
                let word = t.text(ctx.src);
                match word {
                    "if" | "while" | "match" => in_condition = true,
                    "let" => {
                        seen_let = true;
                    }
                    "drop" if tok_is(ctx, sig, k + 1, '(') => {
                        // `drop(name)` releases the guard bound to `name`.
                        if let Some(nm) = sig.get(k + 2).map(|&j| &ctx.tokens[j]) {
                            if nm.kind == TokenKind::Ident {
                                let name = nm.text(ctx.src);
                                if let Some(pos) =
                                    held.iter().rposition(|h| h.binding.as_deref() == Some(name))
                                {
                                    held.remove(pos);
                                }
                            }
                        }
                    }
                    _ => {
                        if seen_let && stmt_let_binding.is_none() && !is_pattern_word(word) {
                            stmt_let_binding = Some(word.to_string());
                        }
                    }
                }
            }
            TokenKind::Punct('=') => {
                // Past the `=` of a `let`: idents after it are the
                // initializer, not the binding.
                seen_let = false;
            }
            _ => {}
        }
        // Metric sink while a hot-path guard is held? (`X.observe(` /
        // `X.inc(` / `X.inc_by(` — receiver irrelevant, the method names
        // are reserved for metric handles in this file.)
        if mode == Mode::TelemetrySinks
            && t.kind == TokenKind::Ident
            && SINKS.contains(&t.text(ctx.src))
            && k > start
            && tok(k - 1).is_punct('.')
            && tok_is(ctx, sig, k + 1, '(')
        {
            if let Some(h) = held.iter().find(|h| h.rank >= SINK_MIN_RANK) {
                ctx.report(
                    out,
                    "telemetry-no-lock",
                    t.line,
                    format!(
                        "in `{fn_name}`: metric sink `.{}(` while holding {} (rank {}, line \
                         {}) — capture the value under the lock, record it after release",
                        t.text(ctx.src),
                        family_name(h.rank),
                        h.rank,
                        h.line,
                    ),
                );
            }
        }
        // Acquisition?
        if let Some(acq) = classify(ctx, &sig[..end], k) {
            if mode == Mode::Order && acq.blocking {
                for h in &held {
                    if h.rank >= acq.rank {
                        ctx.report(
                            out,
                            "lock-order",
                            t.line,
                            format!(
                                "in `{fn_name}`: blocking acquisition of {} (rank {}) while \
                                 holding {} (rank {}, line {}) — declared order is {}",
                                family_name(acq.rank),
                                acq.rank,
                                family_name(h.rank),
                                h.rank,
                                h.line,
                                order_string(),
                            ),
                        );
                    }
                }
            }
            held.push(Held {
                rank: acq.rank,
                depth: if in_condition { depth + 1 } else { depth },
                binding: stmt_let_binding.clone(),
                bound: stmt_let_binding.is_some() || in_condition,
                line: t.line,
            });
            k = acq.after;
            continue;
        }
        // One-level call inlining: free or `self.` call of a same-file fn.
        if mode == Mode::Order && t.kind == TokenKind::Ident && tok_is(ctx, sig, k + 1, '(') {
            let word = t.text(ctx.src);
            if !held.is_empty() && !preceded_by_path_sep(ctx, sig, k) && word != "drop" {
                if let Some(callee_ranks) = acquired_by_fn.get(word) {
                    for h in &held {
                        for (rank, line) in callee_ranks {
                            if *rank <= h.rank {
                                ctx.report(
                                    out,
                                    "lock-order",
                                    t.line,
                                    format!(
                                        "in `{fn_name}`: call to `{word}` (which blocks on {} \
                                         at line {line}, rank {rank}) while holding {} (rank \
                                         {}, line {}) — declared order is {}",
                                        family_name(*rank),
                                        family_name(h.rank),
                                        h.rank,
                                        h.line,
                                        order_string(),
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
        k += 1;
    }
}

fn tok_is(ctx: &FileContext<'_>, sig: &[usize], k: usize, ch: char) -> bool {
    sig.get(k).is_some_and(|&j| ctx.tokens[j].is_punct(ch))
}

/// Words that appear in `let` patterns before the real binding ident.
fn is_pattern_word(word: &str) -> bool {
    matches!(word, "mut" | "ref" | "Some" | "Ok" | "Err" | "None" | "box" | "_")
}

fn order_string() -> String {
    FAMILY.iter().map(|(r, n)| format!("{n}({r})")).collect::<Vec<_>>().join(" < ")
}
