//! Workspace-level semantic rules: the dataflow-lite checks that need
//! the symbol table ([`crate::symbols`]) and call graph
//! ([`crate::callgraph`]) rather than one file's token stream.
//!
//! Four contracts live here, plus the symbol-resolved upgrade of the
//! two name-registry rules:
//!
//! * `sparse/cache-invalidate` — every `&mut self` method on
//!   `Instance` that writes utility/budget/event state must reach
//!   `invalidate_candidates()` through the call graph, or the CSR
//!   candidate lists silently go stale.
//! * `sparse/dense-scan` — no event-dimension dense loops in solver
//!   hot code reachable from the batch entry points; hot paths iterate
//!   the candidate lists.
//! * `det/unordered-reduce` — closures handed to the `par_*` runtime
//!   must not assign into captured state; accumulation flows through
//!   per-chunk values the runtime merges in index order.
//! * `budget/poll-coverage` — size-bounded loops inside
//!   budget-governed functions must poll the deadline (directly or via
//!   a callee that does).
//! * `obs/stable-names` / `fault/unregistered-site` (upgraded) —
//!   name literals reaching `observe`/`fault::point` through consts,
//!   statics and `let` bindings are resolved and checked against the
//!   registries, not just direct string arguments.
//!
//! Every check fails open: an unresolvable symbol or a construct the
//! parser does not model produces silence, never a false diagnostic.
//! The fixtures in `tests/lint_rules.rs` prove each rule still fires
//! on the shapes it exists for.

use crate::callgraph::CallGraph;
use crate::parse::{match_delim, match_delim_back, Receiver};
use crate::rules::{
    COUNTER_NAMES, FAULT_SITES, FileContext, GAUGE_NAMES, HISTOGRAM_NAMES, SPAN_NAMES,
    WINDOW_NAMES,
};
use crate::symbols::Workspace;
use crate::tokens::{Tok, TokKind};
use crate::Diagnostic;
use std::collections::BTreeSet;

/// `Instance` fields whose mutation can change candidate membership.
const INSTANCE_STATE_FIELDS: &[&str] = &["users", "events", "utilities"];

/// Method names that mutate their receiver — the write half of the
/// place-expression scan in `sparse/cache-invalidate`.
const MUTATING_METHODS: &[&str] = &[
    "set",
    "push",
    "insert",
    "remove",
    "clear",
    "truncate",
    "extend",
    "resize",
    "swap",
    "sort",
    "sort_by",
    "sort_unstable",
    "retain",
    "drain",
    "fill",
    "take",
    "push_event_column",
];

/// Assignment operators (each a single merged token).
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// Crates whose reachable-from-batch functions are "hot" for
/// `sparse/dense-scan`.
const HOT_CRATES: &[&str] = &["core", "gap", "solve", "lp", "flow"];

/// `(impl type, method)` pairs seeding batch reachability: the public
/// solve/apply surface of the solver stack. Trait-provided methods
/// (`GepcSolver::solve`) have no impl type; they reach the stack only
/// through the `try_solve` seeds. Every entry must resolve in the real
/// workspace (see [`unresolved_batch_entry_points`]).
const BATCH_ENTRY_POINTS: &[(&str, &str)] = &[
    ("GapBasedSolver", "try_solve"),
    ("GreedySolver", "try_solve"),
    ("ExactSolver", "try_solve"),
    ("GapSolver", "solve"),
    ("IncrementalPlanner", "apply"),
    ("IncrementalPlanner", "try_apply_budgeted"),
    ("IncrementalPlanner", "try_apply_batch"),
];

/// Identifiers that mark an event-dimension dense loop when they
/// appear in a `for` header (plus `events` followed by `(`).
const DENSE_MARKERS: &[&str] = &["event_ids", "n_events"];

/// Identifiers that mark a users/events/candidates-sized loop for
/// `budget/poll-coverage`.
const SIZE_MARKERS: &[&str] = &["n_users", "n_events", "n_jobs", "user_ids", "event_ids"];

/// Function names whose reach satisfies a deadline-poll obligation.
const POLL_NAMES: &[&str] = &["poll", "tick", "check_deadline"];

/// Parameter-type substrings marking a function as budget-governed.
const BUDGET_TYPES: &[&str] = &["SolveBudget", "BudgetGuard", "DeadlineFlag"];

/// Runs every workspace rule, pushing diagnostics into `out[file_idx]`.
pub fn run(ws: &Workspace, cg: &CallGraph, out: &mut [Vec<Diagnostic>]) {
    cache_invalidate(ws, cg, out);
    dense_scan(ws, cg, out);
    unordered_reduce(ws, out);
    poll_coverage(ws, cg, out);
    resolved_names(ws, out);
}

/// Shared scope gate: examples and the linter itself are exempt from
/// the semantic rules (the linter's rule tables are full of marker
/// identifiers).
fn semantic_scope(ctx: &FileContext) -> bool {
    !ctx.is_example && ctx.crate_name.as_deref() != Some("lint")
}

fn push(out: &mut [Vec<Diagnostic>], fi: usize, path: &str, t: &Tok, rule: &str, msg: String) {
    out[fi].push(Diagnostic::at_tok(path, t, rule, msg));
}

// ---------------------------------------------------------------------------
// sparse/cache-invalidate
// ---------------------------------------------------------------------------

fn cache_invalidate(ws: &Workspace, cg: &CallGraph, out: &mut [Vec<Diagnostic>]) {
    let targets = ws
        .by_name
        .get("invalidate_candidates")
        .cloned()
        .unwrap_or_default();
    let reaches = cg.reaches(targets);
    for gid in 0..ws.fns.len() {
        let (file, item) = ws.fn_item(gid);
        let ctx = &file.ctx;
        if !semantic_scope(ctx) || ctx.is_test_file || item.is_test {
            continue;
        }
        if item.self_ty.as_deref() != Some("Instance")
            || item.receiver != Receiver::Mut
            || item.name == "invalidate_candidates"
        {
            continue;
        }
        let Some((bs, be)) = item.body else { continue };
        let toks = &file.ts.toks;
        for k in bs..be.min(toks.len()) {
            if toks[k].text != "self"
                || toks.get(k + 1).is_none_or(|t| t.text != ".")
                || !toks.get(k + 2).is_some_and(|t| {
                    t.kind == TokKind::Ident && INSTANCE_STATE_FIELDS.contains(&t.text.as_str())
                })
            {
                continue;
            }
            let field = k + 2;
            if !is_state_write(toks, k, field) {
                continue;
            }
            if !reaches.get(gid).copied().unwrap_or(false) {
                let t = &toks[field];
                push(
                    out,
                    ws.fn_file(gid),
                    &ctx.path,
                    t,
                    "sparse/cache-invalidate",
                    format!(
                        "`{}` writes `self.{}` but never reaches `invalidate_candidates()`: \
                         the cached CSR candidate lists go stale after this mutation",
                        item.name, t.text
                    ),
                );
            }
            break; // one diagnostic per method is enough
        }
    }
}

/// Whether `self.<field>` at (`self_at`, `field_at`) is a write: an
/// assignment through the place expression, a mutating method call on
/// it, or a `&mut` borrow of it.
fn is_state_write(toks: &[Tok], self_at: usize, field_at: usize) -> bool {
    if self_at >= 2 && toks[self_at - 1].text == "mut" && toks[self_at - 2].text == "&" {
        return true;
    }
    let mut j = field_at + 1;
    loop {
        let Some(t) = toks.get(j) else { return false };
        if t.kind != TokKind::Punct {
            return false;
        }
        match t.text.as_str() {
            "[" => j = match_delim(toks, j) + 1,
            "." => {
                let Some(n) = toks.get(j + 1) else { return false };
                if n.kind != TokKind::Ident {
                    return false;
                }
                if toks.get(j + 2).is_some_and(|t| t.text == "(") {
                    return MUTATING_METHODS.contains(&n.text.as_str());
                }
                j += 2; // plain field projection, keep walking
            }
            op if ASSIGN_OPS.contains(&op) => return true,
            _ => return false,
        }
    }
}

// ---------------------------------------------------------------------------
// sparse/dense-scan
// ---------------------------------------------------------------------------

/// `BATCH_ENTRY_POINTS` entries that name no function in `ws`. A
/// stale entry seeds nothing, silently shrinking `sparse/dense-scan`
/// coverage, so the real workspace must leave this empty.
pub fn unresolved_batch_entry_points(ws: &Workspace) -> Vec<(&'static str, &'static str)> {
    BATCH_ENTRY_POINTS
        .iter()
        .copied()
        .filter(|(ty, m)| {
            ws.by_ty_method
                .get(&(ty.to_string(), m.to_string()))
                .is_none_or(Vec::is_empty)
        })
        .collect()
}

fn dense_scan(ws: &Workspace, cg: &CallGraph, out: &mut [Vec<Diagnostic>]) {
    let seeds: Vec<usize> = BATCH_ENTRY_POINTS
        .iter()
        .filter_map(|(ty, m)| ws.by_ty_method.get(&(ty.to_string(), m.to_string())))
        .flatten()
        .copied()
        .collect();
    let reach = cg.reachable_from(seeds);
    for gid in 0..ws.fns.len() {
        let (file, item) = ws.fn_item(gid);
        let ctx = &file.ctx;
        if !semantic_scope(ctx) || ctx.is_test_file || item.is_test {
            continue;
        }
        if !ctx
            .crate_name
            .as_deref()
            .is_some_and(|c| HOT_CRATES.contains(&c))
            || !reach.get(gid).copied().unwrap_or(false)
        {
            continue;
        }
        let Some((bs, be)) = item.body else { continue };
        let toks = &file.ts.toks;

        // Alias pass: `let n = …n_events()…;` makes `n` a dense marker
        // for the rest of this body.
        let mut markers: BTreeSet<&str> = DENSE_MARKERS.iter().copied().collect();
        let mut aliases: Vec<String> = Vec::new();
        let mut k = bs;
        while k < be.min(toks.len()) {
            if toks[k].kind == TokKind::Ident && toks[k].text == "let" {
                let mut j = k + 1;
                if toks.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                    let mut m = j + 1;
                    let mut found = false;
                    while m < be.min(toks.len()) && toks[m].text != ";" {
                        if is_dense_marker(toks, m, &markers) {
                            found = true;
                        }
                        m += 1;
                    }
                    if found {
                        aliases.push(name.text.clone());
                    }
                    k = m;
                    continue;
                }
            }
            k += 1;
        }
        for a in &aliases {
            markers.insert(a.as_str());
        }

        for (for_at, open, _close) in for_loops(toks, bs, be) {
            for h in for_at + 1..open {
                if is_dense_marker(toks, h, &markers) {
                    push(
                        out,
                        ws.fn_file(gid),
                        &ctx.path,
                        &toks[for_at],
                        "sparse/dense-scan",
                        format!(
                            "dense event-dimension loop (`{}` in the header) in `{}`, \
                             reachable from a batch entry point: iterate the CSR candidate \
                             lists, or allow with a reason if O(|E|) work is required here",
                            toks[h].text, item.name
                        ),
                    );
                    break;
                }
            }
        }
    }
}

/// A dense marker at token `k`: one of the marker identifiers, or the
/// identifier `events` used as a call.
fn is_dense_marker(toks: &[Tok], k: usize, markers: &BTreeSet<&str>) -> bool {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return false;
    }
    if markers.contains(t.text.as_str()) {
        return true;
    }
    t.text == "events" && toks.get(k + 1).is_some_and(|n| n.text == "(")
}

/// `for` loops in `toks[lo..=hi]`: `(for-token, body-open, body-close)`
/// triples, nested loops included. Skips HRTB `for<…>`.
fn for_loops(toks: &[Tok], lo: usize, hi: usize) -> Vec<(usize, usize, usize)> {
    let mut outv = Vec::new();
    let mut k = lo;
    let hi = hi.min(toks.len().saturating_sub(1));
    while k <= hi {
        let t = &toks[k];
        if t.kind == TokKind::Ident
            && t.text == "for"
            && toks.get(k + 1).is_none_or(|n| n.text != "<")
        {
            let mut j = k + 1;
            let mut open = None;
            while j <= hi {
                let tj = &toks[j];
                if tj.kind == TokKind::Punct {
                    match tj.text.as_str() {
                        "(" | "[" => {
                            j = match_delim(toks, j);
                        }
                        "{" => {
                            open = Some(j);
                            break;
                        }
                        ";" => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some(o) = open {
                outv.push((k, o, match_delim(toks, o)));
            }
        }
        k += 1;
    }
    outv
}

// ---------------------------------------------------------------------------
// det/unordered-reduce
// ---------------------------------------------------------------------------

fn unordered_reduce(ws: &Workspace, out: &mut [Vec<Diagnostic>]) {
    for gid in 0..ws.fns.len() {
        let (file, item) = ws.fn_item(gid);
        let ctx = &file.ctx;
        if !semantic_scope(ctx)
            || ctx.is_test_file
            || item.is_test
            || ctx.crate_name.is_none()
            || ctx.crate_name.as_deref() == Some("par")
        {
            continue;
        }
        let Some((bs, be)) = item.body else { continue };
        let toks = &file.ts.toks;
        for k in bs..be.min(toks.len()) {
            let t = &toks[k];
            if t.kind != TokKind::Ident
                || !t.text.starts_with("par_")
                || toks.get(k + 1).is_none_or(|n| n.text != "(")
            {
                continue;
            }
            let lo = k + 2;
            let hi = match_delim(toks, k + 1);
            let locals = closure_locals(toks, lo, hi);
            for op in lo..hi {
                let ot = &toks[op];
                if ot.kind != TokKind::Punct || !ASSIGN_OPS.contains(&ot.text.as_str()) {
                    continue;
                }
                let Some(root) = lhs_root(toks, op, lo) else { continue };
                let name = toks[root].text.as_str();
                if locals.contains(name) {
                    continue;
                }
                push(
                    out,
                    ws.fn_file(gid),
                    &ctx.path,
                    ot,
                    "det/unordered-reduce",
                    format!(
                        "assignment to captured `{name}` inside a `{}` closure: return \
                         per-chunk values and let the runtime merge them in index order \
                         (completion order is nondeterministic)",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Names bound inside a `par_*` call's argument range: closure
/// parameters and `let` bindings. Over-collection is deliberate —
/// extra names only make the rule quieter, never wrong.
fn closure_locals(toks: &[Tok], lo: usize, hi: usize) -> BTreeSet<String> {
    let mut locals = BTreeSet::new();
    let mut k = lo;
    while k < hi {
        let t = &toks[k];
        if t.kind == TokKind::Punct && t.text == "|" {
            let opens_closure = k == lo
                || matches!(toks[k - 1].text.as_str(), "(" | "," | "move" | "{" | ";");
            if opens_closure {
                let mut j = k + 1;
                while j < hi && toks[j].text != "|" {
                    if toks[j].kind == TokKind::Ident {
                        locals.insert(toks[j].text.clone());
                    }
                    j += 1;
                }
                k = j + 1;
                continue;
            }
        }
        // `let` bindings: collect every identifier up to the `=` —
        // plain names, tuple/struct destructurings, `if let Some(v)`.
        // Type-annotation idents come along too; over-collection only
        // quiets the rule, never mis-fires it.
        if t.kind == TokKind::Ident && t.text == "let" {
            let mut j = k + 1;
            while j < hi {
                let tj = &toks[j];
                if tj.kind == TokKind::Punct && matches!(tj.text.as_str(), "=" | ";") {
                    break;
                }
                if tj.kind == TokKind::Ident {
                    locals.insert(tj.text.clone());
                }
                j += 1;
            }
            k = j + 1;
            continue;
        }
        // `for` bindings: everything between `for` and `in` is a
        // loop-local pattern (`for (k, row) in chunk.iter_mut()` binds
        // k and row), so writes through it stay chunk-local.
        if t.kind == TokKind::Ident && t.text == "for" {
            let mut j = k + 1;
            while j < hi && !(toks[j].kind == TokKind::Ident && toks[j].text == "in") {
                if toks[j].kind == TokKind::Ident {
                    locals.insert(toks[j].text.clone());
                }
                j += 1;
            }
            k = j + 1;
            continue;
        }
        k += 1;
    }
    locals
}

/// Root identifier of the place expression left of an assignment
/// operator: walks back through `[…]` indexing, `.field` chains and
/// `*` derefs. `None` for shapes the walk does not model (those are
/// skipped, fail-open).
fn lhs_root(toks: &[Tok], op: usize, lo: usize) -> Option<usize> {
    let mut j = op.checked_sub(1)?;
    loop {
        if j < lo {
            return None;
        }
        let t = &toks[j];
        if t.kind == TokKind::Punct && t.text == "]" {
            j = match_delim_back(toks, j, lo).checked_sub(1)?;
            continue;
        }
        if t.kind == TokKind::Ident {
            if j > lo && toks[j - 1].text == "." {
                j = j.checked_sub(2)?;
                continue;
            }
            return Some(j);
        }
        if t.kind == TokKind::Punct && t.text == "*" {
            j = j.checked_sub(1)?;
            continue;
        }
        return None;
    }
}

// ---------------------------------------------------------------------------
// budget/poll-coverage
// ---------------------------------------------------------------------------

fn poll_coverage(ws: &Workspace, cg: &CallGraph, out: &mut [Vec<Diagnostic>]) {
    let poll_gids: Vec<usize> = POLL_NAMES
        .iter()
        .filter_map(|n| ws.by_name.get(*n))
        .flatten()
        .copied()
        .collect();
    let reach_poll = cg.reaches(poll_gids);
    for gid in 0..ws.fns.len() {
        let (file, item) = ws.fn_item(gid);
        let ctx = &file.ctx;
        if !semantic_scope(ctx) || ctx.is_test_file || item.is_test || ctx.crate_name.is_none() {
            continue;
        }
        let governed = item
            .params
            .iter()
            .any(|p| BUDGET_TYPES.iter().any(|t| p.contains(t)));
        if !governed {
            continue;
        }
        let Some((bs, be)) = item.body else { continue };
        let toks = &file.ts.toks;
        for (for_at, open, close) in for_loops(toks, bs, be) {
            let marker = (for_at + 1..open).find(|&h| {
                let t = &toks[h];
                t.kind == TokKind::Ident
                    && (SIZE_MARKERS.contains(&t.text.as_str())
                        || (t.text == "events" && toks.get(h + 1).is_some_and(|n| n.text == "(")))
            });
            let Some(m) = marker else { continue };
            if loop_polls(ws, toks, open, close, &reach_poll) {
                continue;
            }
            push(
                out,
                ws.fn_file(gid),
                &ctx.path,
                &toks[for_at],
                "budget/poll-coverage",
                format!(
                    "`{}`-bounded loop in budget-governed `{}` never polls the deadline: \
                     call `DeadlineFlag::poll` / `guard.tick()` in the body, or route \
                     through a helper that does",
                    toks[m].text, item.name
                ),
            );
        }
    }
}

/// Whether a loop body polls the deadline: a poll-family token
/// directly, or a call resolving to a function that reaches one.
fn loop_polls(ws: &Workspace, toks: &[Tok], open: usize, close: usize, reach_poll: &[bool]) -> bool {
    for k in open + 1..close.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        if POLL_NAMES.contains(&t.text.as_str()) {
            return true;
        }
        if toks.get(k + 1).is_some_and(|n| n.text == "(") {
            if let Some(gids) = ws.by_name.get(t.text.as_str()) {
                if gids.iter().any(|&g| reach_poll.get(g).copied().unwrap_or(false)) {
                    return true;
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// obs/stable-names + fault/unregistered-site, symbol-resolved
// ---------------------------------------------------------------------------

fn resolved_names(ws: &Workspace, out: &mut [Vec<Diagnostic>]) {
    for fi in 0..ws.files.len() {
        let file = &ws.files[fi];
        let ctx = &file.ctx;
        if ctx.is_example {
            continue;
        }
        let toks = &file.ts.toks;
        let obs_on = !matches!(ctx.crate_name.as_deref(), Some("obs") | Some("lint"))
            && !ctx.is_test_file;
        let fault_on = !matches!(ctx.crate_name.as_deref(), Some("fault") | Some("lint"));
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let in_test = ctx.is_test_file || file.test_mask.get(i).copied().unwrap_or(false);
            // Obs calls: `span(NAME)` etc. with a plain identifier
            // argument, resolved through consts/statics/lets.
            let registry: Option<&[&str]> = match t.text.as_str() {
                "span" => Some(SPAN_NAMES),
                "counter_add" => Some(COUNTER_NAMES),
                "gauge_set" => Some(GAUGE_NAMES),
                "observe" => Some(HISTOGRAM_NAMES),
                "window" => Some(WINDOW_NAMES),
                _ => None,
            };
            if let Some(reg) = registry {
                if obs_on && !in_test {
                    check_resolved_arg(ws, fi, toks, i, reg, "obs/stable-names", out, |call, name, val| {
                        format!(
                            "`{call}({name})` resolves to \"{val}\", which is not in the \
                             stable name registry; register it in DESIGN.md § Observability \
                             and crates/lint/src/rules.rs"
                        )
                    });
                }
                continue;
            }
            // Fault calls: qualified `fault::point(SITE)` family.
            if fault_on && matches!(t.text.as_str(), "point" | "single" | "single_at") {
                let qualified = i >= 2
                    && toks[i - 1].text == "::"
                    && matches!(
                        toks[i - 2].text.as_str(),
                        "epplan_fault" | "FaultPlan" | "fault"
                    );
                if qualified {
                    check_resolved_arg(
                        ws,
                        fi,
                        toks,
                        i,
                        FAULT_SITES,
                        "fault/unregistered-site",
                        out,
                        |call, name, val| {
                            format!(
                                "`{call}({name})` resolves to \"{val}\", a fault site missing \
                                 from the registry; register it in epplan_fault::SITES, \
                                 DESIGN.md § Fault model and crates/lint/src/rules.rs"
                            )
                        },
                    );
                }
            }
        }
    }
}

/// If the first argument of the call at `call_idx` is a bare
/// identifier resolving to string bindings, checks each resolved value
/// against `registry` and reports the off-registry ones.
#[allow(clippy::too_many_arguments)]
fn check_resolved_arg(
    ws: &Workspace,
    fi: usize,
    toks: &[Tok],
    call_idx: usize,
    registry: &[&str],
    rule: &str,
    out: &mut [Vec<Diagnostic>],
    msg: impl Fn(&str, &str, &str) -> String,
) {
    if toks.get(call_idx + 1).is_none_or(|t| t.text != "(") {
        return;
    }
    let Some(arg) = toks.get(call_idx + 2) else { return };
    if arg.kind != TokKind::Ident {
        return; // literals are the token rule's job; expressions fail open
    }
    // Only a *bare* name: `f(NAME)` / `f(NAME,…)`. A path or method
    // receiver is out of scope.
    if !toks
        .get(call_idx + 3)
        .is_some_and(|t| t.text == ")" || t.text == ",")
    {
        return;
    }
    let path = ws.files[fi].ctx.path.clone();
    for val in ws.resolve_str(fi, &arg.text) {
        if !registry.contains(&val) {
            let m = msg(&toks[call_idx].text, &arg.text, val);
            out[fi].push(Diagnostic::at_tok(&path, arg, rule, m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    #[test]
    fn state_write_shapes() {
        let cases = [
            ("self . utilities . set ( u , e , v ) ;", true),
            ("self . users [ u ] . budget = b ;", true),
            ("self . events . push ( ev ) ;", true),
            ("self . users . len ( ) ;", false),
            ("self . users [ u ] . budget ;", false),
        ];
        for (src, want) in cases {
            let ts = tokenize(src);
            assert!(
                is_state_write(&ts.toks, 0, 2) == want,
                "{src} expected write={want}"
            );
        }
        // `&mut self.events[e]` — borrow counts as a write.
        let ts = tokenize("& mut self . events [ e ]");
        assert!(is_state_write(&ts.toks, 2, 4));
    }

    #[test]
    fn lhs_root_walks_chains() {
        let ts = tokenize("acc . total [ i ] += v ;");
        let op = ts.toks.iter().position(|t| t.text == "+=").unwrap_or(0);
        let root = lhs_root(&ts.toks, op, 0);
        assert_eq!(root.map(|r| ts.toks[r].text.as_str()), Some("acc"));
    }

    #[test]
    fn for_loops_skip_hrtb_and_find_nested() {
        let ts = tokenize("for u in users { for e in evs { x(); } } let f: for<'a> fn(&'a u32) = g;");
        let loops = for_loops(&ts.toks, 0, ts.toks.len() - 1);
        assert_eq!(loops.len(), 2);
    }
}
