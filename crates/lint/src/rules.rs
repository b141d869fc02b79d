//! The rule catalogue: each rule is a pure function over the token
//! stream of one file plus that file's path-derived context. Rules
//! emit [`Diagnostic`]s; suppression filtering happens in `lib.rs`.
//!
//! The catalogue mirrors the repo's three cross-crate contracts
//! (typed fallibility, stable observability names, bit-identical
//! parallel determinism) — see DESIGN.md § Static analysis &
//! invariants for the prose version of every rule.

use crate::tokens::{test_region_mask, Tok, TokKind, TokenStream};
use crate::Diagnostic;

/// Machine names of every rule, the strings accepted by
/// `epplan-lint: allow(<rule>)`.
pub const RULES: &[&str] = &[
    "determinism/hash-iter",
    "determinism/wall-clock",
    "par/raw-threads",
    "robustness/unwrap",
    "float/exact-eq",
    "obs/stable-names",
    "fault/unregistered-site",
    "sparse/cache-invalidate",
    "sparse/dense-scan",
    "det/unordered-reduce",
    "budget/poll-coverage",
];

/// The meta-rules emitted by the suppression parser itself. They are
/// deliberately not in [`RULES`]: an allow cannot silence them.
pub const META_RULES: &[&str] = &["lint/allow-needs-reason", "lint/unknown-rule"];

/// One rule's documentation, rendered by `--explain <rule>`.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// Machine name (`sparse/dense-scan`).
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Longer prose: what fires, why it matters, how to fix or allow.
    pub details: &'static str,
}

/// Documentation for every rule, the meta-rules included. A unit test
/// keeps this table aligned with [`RULES`] + [`META_RULES`].
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        name: "determinism/hash-iter",
        summary: "no HashMap/HashSet in deterministic crates",
        details: "HashMap/HashSet iteration order varies per process (SipHash keys are \
                  randomized), so any output derived from it breaks the bit-identical \
                  determinism contract. Use BTreeMap/BTreeSet or an index-keyed Vec. \
                  Keyed lookup that is never iterated can be allowed with a reason.",
    },
    RuleDoc {
        name: "determinism/wall-clock",
        summary: "clock reads only in budget/bench/obs/daemon",
        details: "Instant::now / SystemTime outside the approved owners lets wall-clock \
                  values steer solver behaviour, which destroys replayability. Budget \
                  enforcement, benchmarks, the obs layer and the serve daemon's latency \
                  instrumentation are the only sanctioned readers.",
    },
    RuleDoc {
        name: "par/raw-threads",
        summary: "thread creation owned by epplan-par",
        details: "thread::spawn/scope/Builder outside crates/par bypasses the deterministic \
                  runtime (fixed worker count, index-ordered merges). Route parallel work \
                  through par_range_map and friends so results are bit-identical for any \
                  EPPLAN_THREADS.",
    },
    RuleDoc {
        name: "robustness/unwrap",
        summary: "no .unwrap()/.expect() in library code",
        details: ".unwrap()/.expect() in non-test library code turns recoverable conditions \
                  into panics. Return a typed error (SolveError / InstanceError) or use a \
                  documented fallback; tests and examples are exempt.",
    },
    RuleDoc {
        name: "float/exact-eq",
        summary: "no == / != against float literals",
        details: "Exact float comparison against a literal compares bit patterns and hides \
                  tolerance bugs. Use a tolerance helper; when exactness is the point \
                  (sentinel values, certified zero), allow with a reason saying so.",
    },
    RuleDoc {
        name: "obs/stable-names",
        summary: "span/metric names must be in the registry",
        details: "Dashboards and the trace analyzer key on span/counter/gauge/histogram/\
                  window names, so an unregistered name silently drops telemetry. The rule \
                  checks string literals at obs call sites and, through the symbol table, \
                  identifiers that resolve to const/static/let string bindings. Register \
                  new names in DESIGN.md § Observability and crates/lint/src/rules.rs.",
    },
    RuleDoc {
        name: "fault/unregistered-site",
        summary: "fault site names must be in the registry",
        details: "A fault::point / FaultPlan::single site name missing from \
                  epplan_fault::SITES never fires, so the chaos coverage it was meant to \
                  buy silently evaporates — in tests too, which is why test code is not \
                  exempt. Literals and symbol-resolved const/static/let names are both \
                  checked. Register new sites in epplan_fault::SITES, DESIGN.md § Fault \
                  model and crates/lint/src/rules.rs.",
    },
    RuleDoc {
        name: "sparse/cache-invalidate",
        summary: "Instance mutators must invalidate the candidate cache",
        details: "Instance caches CSR candidate lists keyed on utilities, budgets and \
                  event state. Any &mut self method writing those fields must reach \
                  invalidate_candidates() through the call graph, or solvers keep planning \
                  against stale candidates. Mutations that provably cannot change candidate \
                  membership (time windows, participation bounds) carry an audited allow \
                  explaining why.",
    },
    RuleDoc {
        name: "sparse/dense-scan",
        summary: "no dense event loops on batch hot paths",
        details: "The CSR refactor made solver hot paths O(candidates), not O(|U|x|E|). A \
                  for-loop whose header mentions event_ids/n_events (or an alias bound from \
                  them) inside a function reachable from the batch entry points reintroduces \
                  the dense scan. Iterate CandidateSet rows instead; genuine O(|E|) passes \
                  (arena builds, validation) carry an audited allow.",
    },
    RuleDoc {
        name: "det/unordered-reduce",
        summary: "par_* closures must not assign into captured state",
        details: "Chunk completion order under the par_* runtime is nondeterministic; an \
                  assignment (=, +=, ...) whose left-hand root is captured from outside the \
                  closure makes float accumulation order-dependent, breaking bit-identical \
                  results. Return per-chunk values and let the runtime merge them in index \
                  order (par_range_map), or use the &mut-chunk APIs whose targets are \
                  disjoint slices.",
    },
    RuleDoc {
        name: "budget/poll-coverage",
        summary: "budget-governed loops must poll the deadline",
        details: "A function that takes a SolveBudget/BudgetGuard/DeadlineFlag is on a \
                  budgeted path; a for-loop in it bounded by users/events/jobs that never \
                  polls (DeadlineFlag::poll, guard.tick, check_deadline — directly or via a \
                  callee) can overrun the deadline by a whole pass. Poll inside the loop; \
                  provably tiny or cleanup-only loops carry an audited allow.",
    },
    RuleDoc {
        name: "lint/allow-needs-reason",
        summary: "every allow carries a justification",
        details: "An epplan-lint: allow(rule) without a reason after the closing paren is \
                  itself a violation — suppressions are part of the audit trail, and a \
                  reasonless one is indistinguishable from a silenced bug. This meta-rule \
                  cannot be allowed away.",
    },
    RuleDoc {
        name: "lint/unknown-rule",
        summary: "allows must name a real rule",
        details: "An allow naming a rule that does not exist (typo, renamed rule) silences \
                  nothing while looking like it does. This meta-rule cannot be allowed \
                  away.",
    },
];

/// Looks up the documentation for a rule by machine name.
pub fn rule_doc(name: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.name == name)
}

/// Crates whose output must be bit-reproducible: the solver stack and
/// the instance generator. `HashMap`/`HashSet` iteration order is
/// nondeterministic across processes, so these crates use `BTreeMap`/
/// `BTreeSet` or index-keyed `Vec`s instead.
const DETERMINISTIC_CRATES: &[&str] =
    &["core", "solve", "lp", "flow", "gap", "geo", "datagen", "serve"];

/// The only places allowed to read the wall clock: budget enforcement,
/// benchmarking, the observability layer itself, and the serving
/// daemon's latency instrumentation (`crates/serve/src/daemon.rs`
/// measures per-op repair latency; clock values feed histograms only,
/// never solver decisions — see DESIGN.md § Serving).
const WALL_CLOCK_ALLOWED: &[&str] = &[
    "crates/solve/src/budget.rs",
    "crates/bench/",
    "crates/obs/",
    "crates/serve/src/daemon.rs",
];

/// The single owner of thread creation.
const THREADS_ALLOWED: &[&str] = &["crates/par/"];

/// The stable observability name registry (DESIGN.md § Observability).
/// Renaming or adding a name is a breaking change that must update the
/// DESIGN.md table *and* this list, in the same commit.
pub const SPAN_NAMES: &[&str] = &[
    "lp.simplex",
    "lp.phase1",
    "lp.phase2",
    "flow.matching",
    "gap.pipeline",
    "gap.lp_relax",
    "gap.packing",
    "gap.rounding",
    "solve.reduction",
    "solve.conflict_adjust",
    "solve.fill",
    "solve.gap_based",
    "solve.greedy",
    "solve.greedy_fallback",
    "solve.certify",
    "core.candidates.build",
    "iep.apply",
    "serve.op",
    "serve.resolve",
    "serve.snapshot",
    "serve.compact",
    "serve.restore",
    "serve.wal",
];

/// Registered counter names.
pub const COUNTER_NAMES: &[&str] = &[
    "lp.iterations",
    "flow.augmentations",
    "packing.epochs",
    "packing.oracle_calls",
    "packing.oracle_scanned",
    "packing.oracle_fallbacks",
    "candidates.exact_fallbacks",
    "orders.materialized",
    "rounding.slots",
    "rounding.edges",
    "budget.exhausted",
    "iep.ops",
    "serve.ops",
    "serve.ops_applied",
    "serve.ops_resolved",
    "serve.ops_rejected",
    "serve.ops_skipped",
    "serve.retries",
    "serve.resolves",
    "serve.snapshots",
    "serve.compactions",
    "serve.slo.burning_ops",
    "serve.ops_shed",
    "serve.ops_quarantined",
    "serve.brownout.steps",
    "obs.scrape.requests",
    "obs.scrape.errors",
];

/// Registered gauge names.
pub const GAUGE_NAMES: &[&str] = &[
    "packing.width",
    "budget.spent_iters",
    "budget.spent_ms",
    "packing.arena.candidates",
    "gap.candidates.per_user",
    "lp.par.threads",
    "lp.par.chunks",
    "greedy.par.threads",
    "greedy.par.chunks",
    "datagen.par.threads",
    "datagen.par.chunks",
    "serve.drift",
    "serve.utility",
    "serve.slo.burning",
    "serve.slo.target_us",
    "serve.window.p50_us",
    "serve.window.p95_us",
    "serve.window.p99_us",
    "serve.brownout.level",
];

/// Registered histogram names (`epplan_obs::observe`).
pub const HISTOGRAM_NAMES: &[&str] = &["serve.op_latency_us"];

/// Registered sliding-window names (`epplan_obs::window`).
pub const WINDOW_NAMES: &[&str] = &["serve.window.op_latency_us"];

/// The fault-injection site registry (DESIGN.md § Fault model &
/// certification). Must mirror `epplan_fault::SITES` exactly — a site
/// name referenced anywhere else (an injection point or a test arming
/// a plan) that is missing here silently never fires, which is exactly
/// the bug class `fault/unregistered-site` exists to catch.
pub const FAULT_SITES: &[&str] = &[
    "core.conflict_adjust.apply",
    "core.greedy.fallback",
    "core.iep.apply",
    "core.reduction.build",
    "flow.mcmf.augment",
    "gap.lp_relax.solve",
    "gap.packing.oracle",
    "gap.rounding.match",
    "lp.simplex.pivot",
    "serve.admission.decide",
    "serve.brownout.step",
    "serve.deadletter.append",
    "serve.metrics.scrape",
    "serve.op.ingest",
    "serve.snapshot.write",
    "serve.wal.append",
    "solve.budget.tick",
];

/// Path-derived context for one file, controlling which rules apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate name for `crates/<name>/…` paths, `None` for the root
    /// package, integration tests and examples.
    pub crate_name: Option<String>,
    /// Whole file is test code (under a `tests/` or `benches/` dir).
    pub is_test_file: bool,
    /// Example programs: demos, exempt from library-code rules.
    pub is_example: bool,
    /// Binary targets (`src/bin/…`): CLI front-ends, exempt from the
    /// library-only rules but still subject to determinism rules.
    pub is_bin: bool,
}

impl FileContext {
    /// Builds the context from a workspace-relative path.
    pub fn from_path(path: &str) -> Self {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        let is_test_file = path.starts_with("tests/")
            || path.contains("/tests/")
            || path.contains("/benches/");
        FileContext {
            path: path.to_string(),
            crate_name,
            is_test_file,
            is_example: path.starts_with("examples/") || path.contains("/examples/"),
            is_bin: path.contains("src/bin/"),
        }
    }

    fn in_any(&self, prefixes: &[&str]) -> bool {
        prefixes
            .iter()
            .any(|p| self.path == *p || self.path.starts_with(p))
    }
}

/// Runs every applicable rule over one tokenized file.
pub fn run_rules(ctx: &FileContext, ts: &TokenStream) -> Vec<Diagnostic> {
    let toks = &ts.toks;
    let test_mask = test_region_mask(toks);
    let in_test = |idx: usize| ctx.is_test_file || test_mask[idx];
    let mut out = Vec::new();

    let diag = |out: &mut Vec<Diagnostic>, t: &Tok, rule: &str, message: String| {
        out.push(Diagnostic::at_tok(&ctx.path, t, rule, message));
    };

    // determinism/hash-iter — applies to every region (tests
    // included: hash-order iteration in a test makes its assertions
    // flaky) of the deterministic crates.
    let hash_iter_applies = ctx
        .crate_name
        .as_deref()
        .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c));
    if hash_iter_applies && !ctx.is_example {
        for t in toks.iter() {
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "HashMap" | "HashSet" | "hash_map" | "hash_set")
            {
                diag(
                    &mut out,
                    t,
                    "determinism/hash-iter",
                    format!(
                        "`{}` in a deterministic crate: iteration order varies per process; \
                         use `BTreeMap`/`BTreeSet` or an index-keyed `Vec`",
                        t.text
                    ),
                );
            }
        }
    }

    // determinism/wall-clock — non-test code outside the approved
    // timing owners must not read the clock.
    if !ctx.in_any(WALL_CLOCK_ALLOWED) && !ctx.is_example && !ctx.is_test_file {
        for (i, t) in toks.iter().enumerate() {
            if in_test(i) || t.kind != TokKind::Ident {
                continue;
            }
            let flagged = match t.text.as_str() {
                // `Instant` alone is fine (type positions, re-exports);
                // the violation is *reading* the clock.
                "Instant" => {
                    toks.get(i + 1).is_some_and(|n| n.text == "::")
                        && toks.get(i + 2).is_some_and(|n| n.text == "now")
                }
                "SystemTime" | "UNIX_EPOCH" => true,
                _ => false,
            };
            if flagged {
                diag(
                    &mut out,
                    t,
                    "determinism/wall-clock",
                    format!(
                        "wall-clock read (`{}`) outside solve::budget / bench / obs: \
                         clock values must never steer solver behaviour",
                        t.text
                    ),
                );
            }
        }
    }

    // par/raw-threads — thread creation has a single owner
    // (`epplan-par`); applies everywhere, tests included, so TSan and
    // the determinism contract see one spawn site.
    if !ctx.in_any(THREADS_ALLOWED) && !ctx.is_example {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text == "thread"
                && toks.get(i + 1).is_some_and(|n| n.text == "::")
                && toks
                    .get(i + 2)
                    .is_some_and(|n| matches!(n.text.as_str(), "spawn" | "scope" | "Builder"))
            {
                diag(
                    &mut out,
                    t,
                    "par/raw-threads",
                    format!(
                        "raw `thread::{}` outside epplan-par: route parallel work through \
                         the deterministic runtime (par_range_map & friends)",
                        toks[i + 2].text
                    ),
                );
            }
        }
    }

    // robustness/unwrap — non-test library code must degrade through
    // typed `SolveError`/`InstanceError` paths, never panic.
    if ctx.crate_name.is_some() && !ctx.is_test_file && !ctx.is_example && !ctx.is_bin {
        for (i, t) in toks.iter().enumerate() {
            if in_test(i) || t.kind != TokKind::Ident {
                continue;
            }
            if matches!(t.text.as_str(), "unwrap" | "expect")
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
            {
                diag(
                    &mut out,
                    t,
                    "robustness/unwrap",
                    format!(
                        "`.{}(…)` in non-test library code: return a typed error \
                         (SolveError / InstanceError) or use a documented fallback",
                        t.text
                    ),
                );
            }
        }
    }

    // float/exact-eq — `==` / `!=` against a float literal compares
    // bit patterns; outside deliberate exact checks this hides
    // tolerance bugs. Applies to non-test code everywhere.
    if !ctx.is_test_file && !ctx.is_example {
        for (i, t) in toks.iter().enumerate() {
            if in_test(i) || t.kind != TokKind::Punct {
                continue;
            }
            if (t.text == "==" || t.text == "!=")
                && (i > 0 && toks[i - 1].kind == TokKind::Float
                    || toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float))
            {
                diag(
                    &mut out,
                    t,
                    "float/exact-eq",
                    format!(
                        "exact float comparison (`{}` with a float literal): use a \
                         tolerance helper, or allow with a reason if exactness is the point",
                        t.text
                    ),
                );
            }
        }
    }

    // obs/stable-names — span/metric names in non-test code must match
    // the documented registry. The obs crate itself (definition site +
    // its own test fixtures) and this linter are exempt.
    let obs_exempt = matches!(ctx.crate_name.as_deref(), Some("obs") | Some("lint"));
    if !obs_exempt && !ctx.is_test_file && !ctx.is_example {
        for (i, t) in toks.iter().enumerate() {
            if in_test(i) || t.kind != TokKind::Ident {
                continue;
            }
            let registry: &[&str] = match t.text.as_str() {
                "span" => SPAN_NAMES,
                "counter_add" => COUNTER_NAMES,
                "gauge_set" => GAUGE_NAMES,
                "observe" => HISTOGRAM_NAMES,
                "window" => WINDOW_NAMES,
                _ => continue,
            };
            // Match `name("literal"` — a direct call with a literal
            // first argument. Calls through variables are rare enough
            // here that the registry check simply skips them.
            let Some(open) = toks.get(i + 1) else { continue };
            if open.text != "(" {
                continue;
            }
            let Some(arg) = toks.get(i + 2) else { continue };
            if arg.kind != TokKind::Str {
                continue;
            }
            if !registry.contains(&arg.text.as_str()) {
                diag(
                    &mut out,
                    arg,
                    "obs/stable-names",
                    format!(
                        "`{}(\"{}\")` is not in the stable name registry; register the \
                         name in DESIGN.md § Observability and crates/lint/src/rules.rs",
                        t.text, arg.text
                    ),
                );
            }
        }
    }

    // fault/unregistered-site — site names handed to the fault layer
    // must match the registry; an unregistered name never fires, so a
    // typo silently disables the chaos coverage it was meant to buy.
    // Applies to tests too (they arm plans by site name); the fault
    // crate itself (definition site) and this linter are exempt.
    let fault_exempt = matches!(ctx.crate_name.as_deref(), Some("fault") | Some("lint"));
    if !fault_exempt && !ctx.is_example {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || !matches!(t.text.as_str(), "point" | "single" | "single_at")
            {
                continue;
            }
            // Only qualified calls into the fault layer: a bare
            // `single("…")` is another type's constructor.
            let qualified = i >= 2
                && toks[i - 1].text == "::"
                && matches!(toks[i - 2].text.as_str(), "epplan_fault" | "FaultPlan" | "fault");
            if !qualified {
                continue;
            }
            let Some(open) = toks.get(i + 1) else { continue };
            if open.text != "(" {
                continue;
            }
            let Some(arg) = toks.get(i + 2) else { continue };
            if arg.kind != TokKind::Str {
                continue;
            }
            if !FAULT_SITES.contains(&arg.text.as_str()) {
                diag(
                    &mut out,
                    arg,
                    "fault/unregistered-site",
                    format!(
                        "`{}(\"{}\")` names a fault site missing from the registry; \
                         register it in epplan_fault::SITES, DESIGN.md § Fault model \
                         and crates/lint/src/rules.rs",
                        t.text, arg.text
                    ),
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_is_documented_and_vice_versa() {
        for r in RULES.iter().chain(META_RULES) {
            assert!(rule_doc(r).is_some(), "rule `{r}` has no --explain doc");
        }
        for d in RULE_DOCS {
            assert!(
                RULES.contains(&d.name) || META_RULES.contains(&d.name),
                "doc for unregistered rule `{}`",
                d.name
            );
            assert!(!d.summary.is_empty() && !d.details.is_empty());
        }
        assert_eq!(RULE_DOCS.len(), RULES.len() + META_RULES.len());
    }
}
