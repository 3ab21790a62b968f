//! The determinism rule catalogue and the scanner that applies it.
//!
//! Every rule is a short token-sequence pattern over the output of
//! [`crate::lexer`], evaluated with file context (which crate the file
//! belongs to, whether it is library / binary / test / bench code, and
//! which token ranges sit inside `#[cfg(test)]` modules). The rules
//! encode the workspace's determinism contract (DESIGN.md §8):
//!
//! | rule | hazard |
//! |------|--------|
//! | `hash-container`  | `HashMap`/`HashSet` state in sim-state crates: iteration and (historically) eviction order depend on the hasher, not the operation sequence |
//! | `wall-clock`      | `Instant`/`SystemTime`: real time leaks into simulated results |
//! | `unseeded-rand`   | `thread_rng`/`OsRng`/`RandomState`/...: randomness outside the seeded [`SimRng`](https://docs.rs) stream |
//! | `static-mut`      | `static mut`: cross-replication shared mutable state |
//! | `float-accum`     | float reduction (`sum`/`fold`/`+=`) over an unordered hash iteration: result depends on visit order |
//! | `unwrap-lib`      | `.unwrap()` in library code: panics without an invariant message |
//! | `hot-btree-lookup`| `BTreeMap`/`BTreeSet` in a file listed under `[hot_paths]` in `audit.toml`: O(log n) lookups on a measured hot path |
//! | `sync-primitive`  | `Mutex`/`RwLock`/`Atomic*` in sim-state library code outside the sanctioned `simcore::shard` synchronizer: ad-hoc cross-thread coordination invites schedule-dependent results |
//! | `trace-format`    | `format!` handed to a `.record(` call in library code: allocates a trace message the sampler may drop; `format_args!` defers formatting to the kept entries |

use crate::analysis::{balanced, find_closures, receiver_chain, FileIndex, SymbolTable, UseDef};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::taint::TaintMap;

/// Path suffix of the one file owning the mailbox protocol's state;
/// `shard-state-escape` resolves site-owned fields against it through
/// the workspace symbol table.
pub const SHARD_FILE: &str = "crates/simcore/src/shard.rs";

/// Crates whose *state* feeds simulation results. A hash container
/// here is a latent nondeterminism bomb even when today's code never
/// iterates it: the next refactor can start iterating without any
/// reviewer noticing.
pub const SIM_STATE_CRATES: &[&str] = &[
    "simcore",
    "sched",
    "vnet",
    "storage",
    "host",
    "vfs",
    "core",
    "gridmw",
    "vmm",
    "workloads",
    "hostload",
];

/// Where a source file sits in the workspace, which decides which
/// rules apply to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// Library code (`src/` excluding binary targets).
    Lib,
    /// A binary target (`src/main.rs`, `src/bin/*`).
    Bin,
    /// Integration tests (`tests/`).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// The scanning context for one file.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Short crate name (`"sched"`, `"bench"`, `"gridvm"` for the
    /// facade crate).
    pub crate_name: String,
    /// What kind of target the file belongs to.
    pub kind: SourceKind,
    /// True when the file is listed under `[hot_paths]` in
    /// `audit.toml`: its per-entity lookups are measured hot paths,
    /// so ordered containers need an audited reason.
    pub hot: bool,
    /// True for the one file allowed to hold locks and atomics:
    /// `crates/simcore/src/shard.rs`, the conservative synchronizer
    /// that *is* the sanctioned cross-thread coordination layer.
    pub sync_sanctioned: bool,
}

impl FileContext {
    /// Derives the context from a workspace-relative path such as
    /// `crates/sched/src/wfq.rs`.
    pub fn from_path(rel_path: &str) -> Self {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
            parts[1].to_owned()
        } else {
            "gridvm".to_owned()
        };
        let kind = if parts.contains(&"tests") {
            SourceKind::Test
        } else if parts.contains(&"benches") {
            SourceKind::Bench
        } else if parts.contains(&"examples") {
            SourceKind::Example
        } else if parts.contains(&"bin") || parts.last() == Some(&"main.rs") {
            SourceKind::Bin
        } else {
            SourceKind::Lib
        };
        FileContext {
            crate_name,
            kind,
            hot: false,
            sync_sanctioned: rel_path == "crates/simcore/src/shard.rs",
        }
    }

    fn is_sim_state(&self) -> bool {
        SIM_STATE_CRATES.contains(&self.crate_name.as_str())
    }
}

/// One diagnostic produced by the scanner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (e.g. `"hash-container"`).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// A rule's catalogue entry, for `--list-rules` and DESIGN.md.
pub struct RuleInfo {
    /// Rule identifier as it appears in diagnostics and `audit.toml`.
    pub name: &'static str,
    /// One-line description of the hazard the rule detects.
    pub summary: &'static str,
}

/// The rule catalogue, in diagnostic-name order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "alloc-in-hot",
        summary: "heap allocation (Box::new/Vec::new/vec!/format!/to_string/to_owned/heap \
                  clone) inside a non-constructor function of a [hot_paths] file: steady \
                  state on measured hot paths is allocation-free (DESIGN.md \u{a7}10/\u{a7}11); \
                  hoist the allocation to setup or record an audited exception",
    },
    RuleInfo {
        name: "float-accum",
        summary: "float reduction (sum/fold/product or `+=`) over HashMap/HashSet iteration: \
                  result depends on hasher-determined visit order",
    },
    RuleInfo {
        name: "hash-container",
        summary: "HashMap/HashSet state in a sim-state crate: iteration order is a latent \
                  nondeterminism hazard; use BTreeMap/BTreeSet or an index arena",
    },
    RuleInfo {
        name: "hot-btree-lookup",
        summary: "BTreeMap/BTreeSet in a file listed under [hot_paths] in audit.toml: \
                  O(log n) lookups on a measured hot path; use slot::SlotMap/DenseMap, or \
                  allowlist with the reason order is semantic there",
    },
    RuleInfo {
        name: "iter-order-taint",
        summary: "a value derived from unordered-container iteration flows into a \
                  schedule_* time argument or a metrics write (tracked through lets, \
                  loop variables and reassignments): event order or merged statistics \
                  become hasher-dependent; iterate an ordered container or sort first",
    },
    RuleInfo {
        name: "lock-order",
        summary: "nested lock acquisitions in inconsistent order (A then B here, B then \
                  A elsewhere) or two locks from the same indexed table held at once: a \
                  static deadlock hazard; acquire in one global order or narrow the \
                  first guard's scope",
    },
    RuleInfo {
        name: "malformed-suppression",
        summary: "an inline `// audit:allow(rule)` comment with no reason text or an \
                  unknown rule name: every suppression needs a written justification, \
                  exactly like audit.toml entries",
    },
    RuleInfo {
        name: "shard-state-escape",
        summary: "sim-state escaping the shard isolation contract: an event/spawn \
                  closure capturing its environment by reference, a mutable borrow \
                  smuggled into a scheduled event, or private site-owned mailbox state \
                  touched outside simcore::shard — each makes cross-site interaction \
                  bypass the deterministic mailbox drain",
    },
    RuleInfo {
        name: "static-mut",
        summary: "`static mut` global: shared mutable state breaks replication isolation \
                  and is unsound under threads",
    },
    RuleInfo {
        name: "sync-primitive",
        summary: "Mutex/RwLock/Atomic* in sim-state library code outside the sanctioned \
                  simcore::shard synchronizer: ad-hoc locking makes results depend on the \
                  OS schedule; route coordination through shard/replication or allowlist \
                  with an audited reason",
    },
    RuleInfo {
        name: "trace-format",
        summary: "format! inside a .record( call in library code: TraceLog::record formats \
                  its impl Display message only for entries the sampler keeps, so a \
                  caller-side format! allocates for every dropped entry; pass \
                  format_args! instead",
    },
    RuleInfo {
        name: "unseeded-rand",
        summary: "randomness that bypasses the seeded SimRng stream (thread_rng, OsRng, \
                  RandomState, from_entropy, getrandom)",
    },
    RuleInfo {
        name: "unwrap-lib",
        summary: ".unwrap() in library (non-test) code: panic without an invariant message; \
                  use typed errors or expect(\"<invariant>\")",
    },
    RuleInfo {
        name: "wall-clock",
        summary: "Instant/SystemTime outside the bench harness: real time leaking into \
                  simulated results",
    },
];

const UNSEEDED_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "RandomState",
    "getrandom",
];

/// Scans one file's source text and returns every rule violation.
/// Token-pattern rules only; [`scan_with`] adds the semantic pass.
pub fn scan(src: &str, ctx: &FileContext) -> Vec<Finding> {
    scan_with(src, ctx, None)
}

/// Scans one file with the full rule set. `symbols` carries the
/// two-pass workspace symbol table; without it the cross-file half of
/// `shard-state-escape` (site-owned state resolution) stays silent,
/// everything intra-file still runs.
pub fn scan_with(src: &str, ctx: &FileContext, symbols: Option<&SymbolTable>) -> Vec<Finding> {
    let toks = tokenize(src);
    let test_regions = find_test_regions(&toks);
    let in_test = |i: usize| test_regions.iter().any(|r| r.contains(&i));
    let hash_names = collect_hash_names(&toks);
    let mut out = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        if let TokenKind::Ident(name) = &t.kind {
            match name.as_str() {
                "HashMap" | "HashSet" if ctx.is_sim_state() && ctx.kind == SourceKind::Lib => {
                    out.push(Finding {
                        rule: "hash-container",
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "{name} in sim-state crate `{}`: iteration order is \
                             hasher-dependent; use BTreeMap/BTreeSet or an index arena",
                            ctx.crate_name
                        ),
                    });
                }
                "BTreeMap" | "BTreeSet" if ctx.hot => {
                    out.push(Finding {
                        rule: "hot-btree-lookup",
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "{name} in [hot_paths] file: per-entity lookups here are \
                             measured hot paths and must be O(1); migrate to \
                             slot::SlotMap/DenseMap or record an audited exception \
                             where order is semantic"
                        ),
                    });
                }
                "Instant" | "SystemTime" => {
                    out.push(Finding {
                        rule: "wall-clock",
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "{name} reads the wall clock; simulated components must use \
                             SimTime (allowlist real-time benchmark timers in audit.toml)"
                        ),
                    });
                }
                "static" if toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) => {
                    out.push(Finding {
                        rule: "static-mut",
                        line: t.line,
                        col: t.col,
                        message: "static mut: shared mutable global state breaks \
                                  replication isolation; use thread-local or pass state \
                                  explicitly"
                            .to_owned(),
                    });
                }
                "Mutex" | "RwLock"
                    if ctx.is_sim_state()
                        && ctx.kind == SourceKind::Lib
                        && !ctx.sync_sanctioned =>
                {
                    out.push(Finding {
                        rule: "sync-primitive",
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "{name} in sim-state crate `{}` outside the sanctioned \
                             simcore::shard synchronizer: ad-hoc locking makes results \
                             depend on the OS schedule; route cross-thread coordination \
                             through shard/replication or record an audited exception",
                            ctx.crate_name
                        ),
                    });
                }
                "unwrap"
                    if ctx.kind == SourceKind::Lib
                        && i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
                {
                    out.push(Finding {
                        rule: "unwrap-lib",
                        line: t.line,
                        col: t.col,
                        message: ".unwrap() in library code: convert to a typed error or \
                                  expect(\"<invariant that makes this infallible>\")"
                            .to_owned(),
                    });
                }
                _ if name.starts_with("Atomic")
                    && ctx.is_sim_state()
                    && ctx.kind == SourceKind::Lib
                    && !ctx.sync_sanctioned =>
                {
                    out.push(Finding {
                        rule: "sync-primitive",
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "{name} in sim-state crate `{}` outside the sanctioned \
                             simcore::shard synchronizer: lock-free shared state still \
                             makes results depend on the OS schedule; route cross-thread \
                             coordination through shard/replication or record an audited \
                             exception",
                            ctx.crate_name
                        ),
                    });
                }
                _ if UNSEEDED_IDENTS.contains(&name.as_str()) => {
                    out.push(Finding {
                        rule: "unseeded-rand",
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "{name} draws unseeded randomness; all stochastic behaviour \
                             must flow through the seeded SimRng streams"
                        ),
                    });
                }
                _ => {}
            }
        }
    }

    scan_float_accum(&toks, &hash_names, &in_test, &mut out);
    scan_trace_format(&toks, ctx, &in_test, &mut out);

    // The semantic pass: item index + use-def chains feed the
    // dataflow-aware rules.
    let idx = FileIndex::build(&toks);
    scan_shard_state_escape(&toks, ctx, &idx, symbols, &in_test, &mut out);
    scan_lock_order(&toks, ctx, &idx, &in_test, &mut out);
    scan_iter_order_taint(&toks, ctx, &idx, &hash_names, &in_test, &mut out);
    scan_alloc_in_hot(&toks, ctx, &idx, &in_test, &mut out);

    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out
}

/// Methods that hand a closure to deferred/parallel execution: the
/// engine's `schedule_*` family plus thread spawns.
fn defers_closure(name: &str) -> bool {
    name.starts_with("schedule_") || name == "spawn"
}

/// `shard-state-escape`: the static race detector. Three shapes:
///
/// 1. a non-`move` closure handed to `schedule_*`/`spawn` that uses a
///    name bound outside itself — a by-reference environment capture
///    escaping into deferred execution;
/// 2. a `move` closure handed to `schedule_*`/`spawn` that captures a
///    binding holding a `&mut` borrow — aliased sim-state smuggled
///    past the site boundary;
/// 3. (cross-file, via the symbol table) a field that is private
///    site-owned state of the `simcore::shard` protocol — declared in
///    [`SHARD_FILE`], nowhere else in the workspace, and not in this
///    file — accessed outside the sanctioned synchronizer: cross-site
///    interaction bypassing the mailbox API.
fn scan_shard_state_escape(
    toks: &[Token],
    ctx: &FileContext,
    idx: &FileIndex,
    symbols: Option<&SymbolTable>,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if !ctx.is_sim_state() || ctx.kind != SourceKind::Lib {
        return;
    }
    for f in &idx.fns {
        if f.body.is_empty() || in_test(f.body.start) {
            continue;
        }
        let ud = UseDef::build(toks, f);
        for i in f.body.clone() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            if !defers_closure(name) || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            let Some(args) = balanced(toks, i + 1, '(', ')') else {
                continue;
            };
            for cl in find_closures(toks, args.clone()) {
                for u in cl.body.clone() {
                    let Some(uname) = toks[u].ident() else {
                        continue;
                    };
                    if cl.params.iter().any(|p| p == uname) {
                        continue;
                    }
                    let Some(b) = ud.binding_for(u) else { continue };
                    // Bindings introduced inside the closure body are
                    // local to it, not captures.
                    if cl.body.contains(&b.def_tok) {
                        continue;
                    }
                    let t = &toks[cl.start];
                    if !cl.is_move {
                        out.push(Finding {
                            rule: "shard-state-escape",
                            line: t.line,
                            col: t.col,
                            message: format!(
                                "closure handed to `{name}` captures `{uname}` from its \
                                 environment by reference; deferred execution must not \
                                 alias live sim-state — make it `move` (or pass the \
                                 value through the event's inline argument)"
                            ),
                        });
                        break;
                    } else if b.mut_borrow {
                        out.push(Finding {
                            rule: "shard-state-escape",
                            line: t.line,
                            col: t.col,
                            message: format!(
                                "`move` closure handed to `{name}` captures `{uname}`, \
                                 a `&mut` borrow of sim-state: the event would alias \
                                 state owned by another scope when it fires; capture \
                                 owned data or route through the world argument"
                            ),
                        });
                        break;
                    }
                }
            }
        }
        // Shape 3: unambiguous private shard-protocol fields reached
        // outside the sanctioned file.
        if let Some(table) = symbols {
            if !ctx.sync_sanctioned {
                for i in f.body.clone() {
                    if !toks[i].is_punct('.') {
                        continue;
                    }
                    let Some(field) = toks.get(i + 1).and_then(Token::ident) else {
                        continue;
                    };
                    // Method calls are API, not state pokes.
                    if toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                        continue;
                    }
                    let owners = table.field_owners(field);
                    // `pub` fields are exported API; only private
                    // fields are protocol-internal.
                    let shard_owned =
                        owners.len() == 1 && owners[0].1.ends_with(SHARD_FILE) && !owners[0].2;
                    if shard_owned && idx.declared_type(field).is_none() {
                        let t = &toks[i + 1];
                        out.push(Finding {
                            rule: "shard-state-escape",
                            line: t.line,
                            col: t.col,
                            message: format!(
                                "`.{field}` is private site-owned state of the shard \
                                 mailbox protocol (declared only in {SHARD_FILE}); \
                                 cross-site interaction must flow through the Mailbox \
                                 API (`SiteState::send` / `ShardWorld::deliver`)"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// `lock-order`: walks each function with a scope-aware stack of live
/// lock guards. Flags (a) two locks from the same indexed table held
/// at once — order then depends on dynamic indices — and (b) pairs of
/// distinct receivers acquired in both orders within the file.
fn scan_lock_order(
    toks: &[Token],
    ctx: &FileContext,
    idx: &FileIndex,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if ctx.kind != SourceKind::Lib {
        return;
    }
    // (first, second) receiver pairs observed nested, with the token
    // of the second acquisition.
    let mut pairs: Vec<(String, String, usize)> = Vec::new();
    for f in &idx.fns {
        if f.body.is_empty() || in_test(f.body.start) {
            continue;
        }
        // Live guards: (receiver, scope depth at acquisition,
        // let-bound). Temporaries die at the end of their statement.
        let mut guards: Vec<(String, usize, bool)> = Vec::new();
        let mut depth = 0usize;
        let mut stmt_start = f.body.start;
        for i in f.body.clone() {
            match toks[i].kind {
                TokenKind::Punct('{') => {
                    depth += 1;
                    stmt_start = i + 1;
                }
                TokenKind::Punct('}') => {
                    guards.retain(|g| g.1 < depth);
                    depth = depth.saturating_sub(1);
                    stmt_start = i + 1;
                }
                TokenKind::Punct(';') => {
                    guards.retain(|g| g.2);
                    stmt_start = i + 1;
                }
                _ => {
                    let locks = toks[i].is_ident("lock") || toks[i].is_ident("write");
                    if locks
                        && i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    {
                        let recv = receiver_chain(toks, i - 1);
                        if recv.is_empty() {
                            continue;
                        }
                        if let Some(top) = guards.last() {
                            if top.0 == recv && recv.ends_with("[_]") {
                                out.push(Finding {
                                    rule: "lock-order",
                                    line: toks[i].line,
                                    col: toks[i].col,
                                    message: format!(
                                        "second lock from the indexed table `{recv}` \
                                         acquired while one is already held: acquisition \
                                         order depends on dynamic indices — a static \
                                         deadlock hazard; release the first guard or \
                                         sort the indices"
                                    ),
                                });
                            } else if top.0 != recv {
                                pairs.push((top.0.clone(), recv.clone(), i));
                            }
                        }
                        let let_bound = (stmt_start..i).any(|k| toks[k].is_ident("let"));
                        guards.push((recv, depth, let_bound));
                    }
                }
            }
        }
    }
    for (a, b, tok) in &pairs {
        if pairs.iter().any(|(x, y, _)| x == b && y == a) {
            let t = &toks[*tok];
            out.push(Finding {
                rule: "lock-order",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{b}` locked while holding `{a}`, but elsewhere in this file \
                     `{a}` is locked while holding `{b}`: inconsistent lock order is \
                     a static deadlock hazard; pick one global order"
                ),
            });
        }
    }
}

/// `iter-order-taint`: runs the [`TaintMap`] fixpoint per function and
/// reports every tainted value reaching a schedule-time or metrics
/// sink.
fn scan_iter_order_taint(
    toks: &[Token],
    ctx: &FileContext,
    idx: &FileIndex,
    hash_names: &[String],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if !ctx.is_sim_state() || ctx.kind != SourceKind::Lib {
        return;
    }
    // Names the file declares with a hash type annotation also count
    // as unordered sources, beyond the let/field patterns the
    // float-accum rule tracks.
    let mut names: Vec<String> = hash_names.to_vec();
    for (name, ty) in &idx.type_of {
        if (ty == "HashMap" || ty == "HashSet") && !names.contains(name) {
            names.push(name.clone());
        }
    }
    if names.is_empty() {
        return;
    }
    for f in &idx.fns {
        if f.body.is_empty() || in_test(f.body.start) {
            continue;
        }
        let ud = UseDef::build(toks, f);
        let tm = TaintMap::build(toks, f, &ud, &names);
        for hit in tm.sink_hits() {
            let t = &toks[hit.sink_tok];
            let what = if hit.sink.starts_with("schedule_") {
                "the time argument of"
            } else {
                "the metrics write"
            };
            out.push(Finding {
                rule: "iter-order-taint",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` derives from unordered-container iteration (line {}) and \
                     flows into {what} `{}`: the result depends on hasher visit \
                     order; iterate an ordered container or sort before deriving \
                     times/metrics",
                    hit.name, hit.source_line, hit.sink
                ),
            });
        }
    }
}

/// Heap-allocating constructors by `Path :: name` pattern.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
];

/// Heap-allocating method calls (`.name(`) on declared heap types or
/// unconditionally allocating conversions.
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec"];

/// Types whose `.clone()` is a heap allocation.
const HEAP_TYPES: &[&str] = &[
    "String", "Vec", "VecDeque", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// `alloc-in-hot`: allocation calls inside non-constructor functions
/// of `[hot_paths]` files. Constructor-shaped functions (`new`,
/// `default`, `from_*`, `with_*`) are setup, not steady state, and
/// stay exempt — that distinction is what the item index buys.
fn scan_alloc_in_hot(
    toks: &[Token],
    ctx: &FileContext,
    idx: &FileIndex,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if !ctx.hot || ctx.kind != SourceKind::Lib {
        return;
    }
    for f in &idx.fns {
        if f.body.is_empty() || in_test(f.body.start) {
            continue;
        }
        if f.name == "new"
            || f.name == "default"
            || f.name.starts_with("from_")
            || f.name.starts_with("with_")
        {
            continue;
        }
        for i in f.body.clone() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            let push = |out: &mut Vec<Finding>, what: &str| {
                let t = &toks[i];
                out.push(Finding {
                    rule: "alloc-in-hot",
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "{what} in `{}`, a non-constructor function of a [hot_paths] \
                         file: measured hot paths are allocation-free in steady state \
                         (DESIGN.md \u{a7}10/\u{a7}11); hoist the allocation to setup, reuse a \
                         buffer, or record an audited exception",
                        f.name
                    ),
                });
            };
            // `Path :: new (` constructors.
            if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(m) = toks.get(i + 3).and_then(Token::ident) {
                    if toks.get(i + 4).is_some_and(|t| t.is_punct('('))
                        && ALLOC_PATHS.iter().any(|(p, c)| *p == name && *c == m)
                    {
                        push(out, &format!("`{name}::{m}` allocates"));
                    }
                }
                continue;
            }
            // `vec!` / `format!` macros.
            if (name == "vec" || name == "format")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                push(out, &format!("`{name}!` allocates"));
                continue;
            }
            // `.to_string()` / `.to_owned()` / `.to_vec()`.
            if i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                if ALLOC_METHODS.contains(&name) {
                    push(out, &format!("`.{name}()` allocates"));
                    continue;
                }
                // `.clone()` on a name declared with a heap type.
                if name == "clone" {
                    let recv = receiver_chain(toks, i - 1);
                    let last = recv.rsplit(['.']).next().unwrap_or("");
                    if let Some(ty) = idx.declared_type(last) {
                        if HEAP_TYPES.contains(&ty) {
                            push(
                                out,
                                &format!("`.clone()` of `{last}` (declared `{ty}`) allocates"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `trace-format`: detects `format!` inside the argument list of a
/// `.record(` call in library code outside tests. `TraceLog::record`
/// takes its message as `impl Display` and formats it only once the
/// sampler keeps the entry, so a caller-side `format!` allocates the
/// message even when the entry is sampled out or tracing is off;
/// `format_args!` defers the work to the entries that are kept.
fn scan_trace_format(
    toks: &[Token],
    ctx: &FileContext,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if ctx.kind != SourceKind::Lib {
        return;
    }
    for i in 1..toks.len() {
        if in_test(i) || !toks[i].is_ident("record") || !toks[i - 1].is_punct('.') {
            continue;
        }
        let Some(args) = balanced(toks, i + 1, '(', ')') else {
            continue;
        };
        for j in args {
            if toks[j].is_ident("format") && toks.get(j + 1).is_some_and(|t| t.is_punct('!')) {
                let t = &toks[j];
                out.push(Finding {
                    rule: "trace-format",
                    line: t.line,
                    col: t.col,
                    message: "format! inside a .record( call: the message is formatted \
                              even when the sampler drops the entry; pass format_args! \
                              so only kept entries format"
                        .to_owned(),
                });
            }
        }
    }
}

/// 1-based inclusive line spans covered by `#[cfg(test)]` items —
/// used by the suppression layer so allow-comment *examples* inside
/// test code (fixture strings, doc snippets under test) are not
/// parsed as live suppressions.
pub fn test_line_spans(src: &str) -> Vec<(u32, u32)> {
    let toks = tokenize(src);
    find_test_regions(&toks)
        .into_iter()
        .filter(|r| r.start < r.end && r.end <= toks.len())
        .map(|r| (toks[r.start].line, toks[r.end - 1].line))
        .collect()
}

/// Token index ranges covered by `#[cfg(test)]` items.
fn find_test_regions(toks: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(']'))
        {
            // The guarded item runs to the matching `}` of its first
            // brace, or to the first `;` for brace-less items.
            let mut j = i + 7;
            let mut depth = 0usize;
            let start = i;
            let mut end = None;
            while j < toks.len() {
                match toks[j].kind {
                    TokenKind::Punct('{') => depth += 1,
                    TokenKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(j + 1);
                            break;
                        }
                    }
                    TokenKind::Punct(';') if depth == 0 => {
                        end = Some(j + 1);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let end = end.unwrap_or(toks.len());
            regions.push(start..end);
            i = end;
        } else {
            i += 1;
        }
    }
    regions
}

/// Names declared with a hash-container type in this file: struct
/// fields and lets with `name: HashMap<...>` annotations, plus
/// `let name = HashMap::...` initializations.
fn collect_hash_names(toks: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        let is_hash = |t: &Token| t.is_ident("HashMap") || t.is_ident("HashSet");
        // `name : HashMap <`
        if let Some(name) = toks[i].ident() {
            if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(is_hash)
                && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
            {
                names.push(name.to_owned());
            }
        }
        // `let [mut] name = HashMap ::` / `= HashSet ::`
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).and_then(Token::ident) {
                if toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                    && toks.get(j + 2).is_some_and(is_hash)
                {
                    names.push(name.to_owned());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Detects float-accumulation-over-hash-iteration: `x.values().sum()`
/// chains and `for` loops over hash containers whose bodies `+=`.
fn scan_float_accum(
    toks: &[Token],
    hash_names: &[String],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let is_hash_name = |t: &Token| t.ident().is_some_and(|n| hash_names.iter().any(|h| h == n));
    let is_iter_method =
        |t: &Token| t.is_ident("values") || t.is_ident("keys") || t.is_ident("iter");

    for i in 0..toks.len() {
        if in_test(i) || !is_hash_name(&toks[i]) {
            continue;
        }
        // Pattern A: `name . values ( ) ... . sum|fold|product (` within
        // the same statement.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 2).is_some_and(is_iter_method)
        {
            let mut j = i + 3;
            let limit = (i + 80).min(toks.len());
            while j < limit && !toks[j].is_punct(';') {
                if toks[j].is_punct('.')
                    && toks.get(j + 1).is_some_and(|t| {
                        t.is_ident("sum") || t.is_ident("fold") || t.is_ident("product")
                    })
                {
                    let t = &toks[j + 1];
                    out.push(Finding {
                        rule: "float-accum",
                        line: t.line,
                        col: t.col,
                        message: "reduction over a hash container's iteration order: \
                                  float accumulation is order-sensitive; iterate a \
                                  BTreeMap or collect-and-sort first"
                            .to_owned(),
                    });
                    break;
                }
                j += 1;
            }
        }
    }

    // Pattern B: `for _ in <header mentioning a hash name> { ... += ... }`
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("for") || in_test(i) {
            i += 1;
            continue;
        }
        // Find the `{` opening the loop body; the header is everything
        // after `in` up to it.
        let mut j = i + 1;
        let mut saw_in = false;
        let mut header_has_hash = false;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth = depth.saturating_sub(1),
                TokenKind::Punct('{') if depth == 0 && saw_in => break,
                _ => {
                    if toks[j].is_ident("in") && depth == 0 {
                        saw_in = true;
                    } else if saw_in && is_hash_name(&toks[j]) {
                        header_has_hash = true;
                    }
                }
            }
            j += 1;
        }
        if !header_has_hash || j >= toks.len() {
            i += 1;
            continue;
        }
        // Walk the body for `+=` (adjacent `+` `=`).
        let body_start = j;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct('+')
                    if toks.get(j + 1).is_some_and(|n| {
                        n.is_punct('=') && n.line == toks[j].line && n.col == toks[j].col + 1
                    }) =>
                {
                    out.push(Finding {
                        rule: "float-accum",
                        line: toks[j].line,
                        col: toks[j].col,
                        message: "accumulation inside a loop over a hash container: \
                                  visit order is hasher-dependent; iterate an ordered \
                                  container instead"
                            .to_owned(),
                    });
                }
                _ => {}
            }
            j += 1;
        }
        i = body_start + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx(krate: &str) -> FileContext {
        FileContext {
            crate_name: krate.to_owned(),
            kind: SourceKind::Lib,
            hot: false,
            sync_sanctioned: false,
        }
    }

    fn rules_fired(src: &str, ctx: &FileContext) -> Vec<&'static str> {
        scan(src, ctx).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hash_container_fires_only_in_sim_state_lib_code() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_fired(src, &lib_ctx("sched")), vec!["hash-container"]);
        assert!(rules_fired(src, &lib_ctx("bench")).is_empty());
        let test_ctx = FileContext {
            crate_name: "sched".into(),
            kind: SourceKind::Test,
            hot: false,
            sync_sanctioned: false,
        };
        assert!(rules_fired(src, &test_ctx).is_empty());
    }

    #[test]
    fn hot_btree_lookup_fires_only_when_hot() {
        let src = "use std::collections::BTreeMap;\nstruct S { t: BTreeSet<u32> }\n";
        assert!(rules_fired(src, &lib_ctx("vnet")).is_empty(), "cold file");
        let hot_ctx = FileContext {
            hot: true,
            ..lib_ctx("vnet")
        };
        assert_eq!(
            rules_fired(src, &hot_ctx),
            vec!["hot-btree-lookup", "hot-btree-lookup"]
        );
        // #[cfg(test)] regions stay exempt even in hot files.
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::collections::BTreeMap;\n}\n";
        assert!(rules_fired(test_src, &hot_ctx).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "\
struct S;\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::collections::HashMap;\n\
    fn f() { let x: Option<u32> = None; x.unwrap(); }\n\
}\n";
        assert!(rules_fired(src, &lib_ctx("sched")).is_empty());
    }

    #[test]
    fn wall_clock_and_static_mut_and_rand() {
        let src = "\
use std::time::Instant;\n\
static mut COUNTER: u64 = 0;\n\
fn f() { let r = rand::thread_rng(); let t = Instant::now(); }\n";
        let fired = rules_fired(src, &lib_ctx("core"));
        assert!(fired.contains(&"wall-clock"));
        assert!(fired.contains(&"static-mut"));
        assert!(fired.contains(&"unseeded-rand"));
    }

    #[test]
    fn unwrap_flagged_in_lib_not_bin() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_fired(src, &lib_ctx("vfs")), vec!["unwrap-lib"]);
        let bin_ctx = FileContext {
            crate_name: "bench".into(),
            kind: SourceKind::Bin,
            hot: false,
            sync_sanctioned: false,
        };
        assert!(rules_fired(src, &bin_ctx).is_empty());
        // unwrap_or_else is not unwrap
        let src2 = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n";
        assert!(rules_fired(src2, &lib_ctx("vfs")).is_empty());
    }

    #[test]
    fn float_accum_chain_and_loop_detected() {
        let src = "\
struct S { vals: HashMap<u32, f64> }\n\
impl S {\n\
    fn total(&self) -> f64 { self.vals.values().map(|v| *v).sum() }\n\
    fn loop_total(&self) -> f64 {\n\
        let mut t = 0.0;\n\
        for v in self.vals.values() {\n\
            t += v;\n\
        }\n\
        t\n\
    }\n\
}\n";
        let findings = scan(src, &lib_ctx("sched"));
        let accum: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "float-accum")
            .collect();
        assert_eq!(accum.len(), 2, "{findings:?}");
        assert_eq!(accum[0].line, 3);
        assert_eq!(accum[1].line, 7);
    }

    #[test]
    fn trace_format_fires_in_library_code_only() {
        let src = "\
fn done(trace: &mut TraceLog, t: SimTime, s: u64) {\n\
    trace.record(t, \"vo\", format!(\"session {s} done\"));\n\
}\n";
        let findings = scan(src, &lib_ctx("core"));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(
            (findings[0].rule, findings[0].line, findings[0].col),
            ("trace-format", 2, 23),
            "{findings:?}"
        );
        // Any crate's library code, simcore included.
        assert_eq!(rules_fired(src, &lib_ctx("simcore")), vec!["trace-format"]);
        // Tests, benches and binaries may format eagerly.
        for kind in [SourceKind::Test, SourceKind::Bench, SourceKind::Bin] {
            let ctx = FileContext {
                kind,
                ..lib_ctx("core")
            };
            assert!(rules_fired(src, &ctx).is_empty(), "{kind:?}");
        }
        // Deferred formatting is the fix.
        let ok = src.replace("format!", "format_args!");
        assert!(rules_fired(&ok, &lib_ctx("core")).is_empty());
        // format! outside a .record( argument list is not this rule's
        // business, nor is a free function named record.
        let other =
            "fn f(s: &mut S) { let m = format!(\"x\"); s.log(m); record(format!(\"y\")); }\n";
        assert!(rules_fired(other, &lib_ctx("core")).is_empty());
    }

    #[test]
    fn sync_primitive_fires_outside_the_sanctioned_shard_layer() {
        let src = "\
use std::sync::{Mutex, RwLock};\n\
use std::sync::atomic::AtomicU64;\n\
struct S { m: Mutex<u32>, n: AtomicU64 }\n";
        assert_eq!(
            rules_fired(src, &lib_ctx("simcore")),
            vec![
                "sync-primitive", // Mutex (use)
                "sync-primitive", // RwLock (use)
                "sync-primitive", // AtomicU64 (use)
                "sync-primitive", // Mutex (field)
                "sync-primitive", // AtomicU64 (field)
            ]
        );
        // The shard synchronizer is the sanctioned holder of locks.
        let sanctioned = FileContext {
            sync_sanctioned: true,
            ..lib_ctx("simcore")
        };
        assert!(rules_fired(src, &sanctioned).is_empty());
        // from_path marks exactly that one file.
        assert!(FileContext::from_path("crates/simcore/src/shard.rs").sync_sanctioned);
        assert!(!FileContext::from_path("crates/simcore/src/metrics.rs").sync_sanctioned);
        // Outside sim-state crates (harness code) the rule is silent,
        // as it is in test/bench targets of sim-state crates.
        assert!(rules_fired(src, &lib_ctx("bench")).is_empty());
        let test_ctx = FileContext {
            kind: SourceKind::Test,
            ..lib_ctx("simcore")
        };
        assert!(rules_fired(src, &test_ctx).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_fire() {
        let src = "\
// HashMap is discussed here, Instant too\n\
fn f() -> &'static str { \"HashMap Instant thread_rng static mut\" }\n";
        assert!(rules_fired(src, &lib_ctx("sched")).is_empty());
    }

    #[test]
    fn context_from_path_classification() {
        let c = FileContext::from_path("crates/sched/src/wfq.rs");
        assert_eq!((c.crate_name.as_str(), c.kind), ("sched", SourceKind::Lib));
        let c = FileContext::from_path("crates/bench/src/bin/fig1_micro.rs");
        assert_eq!((c.crate_name.as_str(), c.kind), ("bench", SourceKind::Bin));
        let c = FileContext::from_path("tests/determinism.rs");
        assert_eq!(
            (c.crate_name.as_str(), c.kind),
            ("gridvm", SourceKind::Test)
        );
        let c = FileContext::from_path("crates/simcore/benches/event_queue.rs");
        assert_eq!(c.kind, SourceKind::Bench);
    }
}
