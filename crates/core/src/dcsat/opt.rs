//! `OptDCSat` (Figure 5 of the paper).
//!
//! For *connected* monotonic conjunctive constraints, Proposition 2 lets us
//! partition the pending transactions into the connected components of the
//! ind-q-transaction graph `Gq,ind` (equality constraints Θ = ΘI ∪ Θq) and
//! solve each component independently — no satisfying assignment can span
//! two components. Components that cannot cover the query's constants are
//! pruned entirely. As an extension over the paper, the work is checked on
//! multiple threads at two levels: across components, and *within* a large
//! component by splitting its Bron–Kerbosch search tree into independent
//! subproblems (see [`bcdb_graph::split_subproblems`]) so a single giant
//! component still saturates the pool.

use crate::db::BlockchainDb;
use crate::dcsat::{
    eval_world, DcSatOptions, DcSatOutcome, DcSatStats, Exhausted, PreparedConstraint, ReuseCtx,
};
use crate::precompute::{query_components, Precomputed};
use crate::worlds::{get_maximal_into, MaximalScratch};
use std::sync::Arc;
use bcdb_governor::{Budget, ExhaustionReason};
use bcdb_graph::{
    expand_subproblem_governed_in, maximal_cliques_governed_in, split_subproblems, BitSet,
    CliqueEntry, CliqueSubproblem, ExpandArena, StealScheduler, UndirectedGraph, Visit, WorkUnit,
};
use bcdb_query::{canonical_equalities, constant_patterns, ConstantPattern, PreparedQuery};
use bcdb_storage::{Source, TxId, WorldMask};
use bcdb_telemetry::probes;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A per-work-item collection slot for a complete clique enumeration,
/// filled by the worker that enumerated it and harvested into the batch
/// [`ReuseCtx`] cache afterwards.
type CliqueSlot = Mutex<Option<Vec<Vec<usize>>>>;

/// Precomputed covers information for one query: per constant pattern,
/// whether the current state covers it and which pending transactions do.
#[derive(Clone, Debug)]
pub struct CoversInfo {
    per_pattern: Vec<PatternCover>,
}

#[derive(Clone, Debug)]
struct PatternCover {
    /// A base tuple matches the pattern.
    base_covered: bool,
    /// Pending transactions containing a matching tuple.
    txs: BitSet,
}

impl CoversInfo {
    /// Builds covers information for the query (requires `&mut` to ensure
    /// the base-probe indexes exist).
    pub fn build(bcdb: &mut BlockchainDb, pq: &PreparedQuery) -> CoversInfo {
        let patterns = constant_patterns(pq.query());
        let n = bcdb.pending_count();
        let mut per_pattern = Vec::with_capacity(patterns.len());
        for pattern in &patterns {
            let idx = bcdb
                .database_mut()
                .relation_mut(pattern.relation)
                .ensure_index(&pattern.positions);
            let db = bcdb.database();
            let key = pattern.values.iter().cloned().collect();
            let mut base_covered = false;
            let mut txs = BitSet::new(n);
            for (_, row) in db.relation(pattern.relation).lookup_all(idx, &key) {
                match row.source {
                    Source::Base => base_covered = true,
                    Source::Pending(t) => txs.insert(t.index()),
                }
            }
            per_pattern.push(PatternCover { base_covered, txs });
        }
        CoversInfo { per_pattern }
    }

    /// The paper's `Covers(R, T', q)`: every constant pattern of `q` is
    /// matched by some tuple of `R` or of a transaction in `component`.
    fn covers(&self, component: &BitSet) -> bool {
        self.per_pattern
            .iter()
            .all(|p| p.base_covered || !p.txs.is_disjoint(component))
    }

    /// Number of constant-bearing atoms tracked.
    pub fn pattern_count(&self) -> usize {
        self.per_pattern.len()
    }
}

/// Extracts the constant patterns of a prepared conjunctive query (exposed
/// for tests and diagnostics).
pub fn patterns_of(pq: &PreparedQuery) -> Vec<ConstantPattern> {
    constant_patterns(pq.query())
}

/// Components with at least this many transactions are split into
/// intra-component Bron–Kerbosch subproblems when
/// [`DcSatOptions::parallel_intra`] is on. Below it the whole component is
/// cheaper to check as a single unit of work.
const SPLIT_THRESHOLD: usize = 16;

/// Robustness-test fault injection (see
/// [`DcSatOptions::fault_inject_panic_tx`]): panics when the component
/// being checked contains the poisoned transaction index.
fn inject_fault(opts: &DcSatOptions, component: &[usize]) {
    if let Some(poison) = opts.fault_inject_panic_tx {
        if component.contains(&poison) {
            panic!("injected fault: component contains tx {poison}");
        }
    }
}

/// Worker threads for the parallel paths.
fn worker_threads(opts: &DcSatOptions) -> usize {
    opts.threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        })
        .max(1)
}

/// One surviving component with its induced `GfTd` subgraph built once and
/// shared by every work item derived from it.
struct ComponentPlan<'a> {
    component: &'a [usize],
    graph: UndirectedGraph,
    /// Subgraph node index → pending-transaction index.
    mapping: Vec<usize>,
    /// `Some` when the component was split for intra-component parallelism;
    /// `None` → the whole component is one work item.
    subproblems: Option<Vec<CliqueSubproblem>>,
    /// `Some` when a batch [`ReuseCtx`] already holds this component's
    /// complete clique enumeration: the single work item replays the cached
    /// cliques instead of re-running Bron–Kerbosch (never split).
    cached: Option<Arc<Vec<Vec<usize>>>>,
}

// A unit of parallel work is a [`WorkUnit`]: a whole component, or one
// Bron–Kerbosch subproblem of a split component, labelled with the batch
// constraint it belongs to. The flattened work list preserves sequential
// order (components in candidate order, a split component's subproblems in
// branch order), so "lowest work index" below is a deterministic,
// schedule-independent tiebreak — regardless of which worker's deque a
// unit was stolen from.

/// Builds one [`ComponentPlan`] per candidate, splitting components that
/// are large enough to be worth sharing among threads.
fn build_plans<'a>(
    pre: &Precomputed,
    candidates: &[&'a Vec<usize>],
    opts: &DcSatOptions,
    threads: usize,
    reuse: Option<&ReuseCtx>,
) -> Vec<ComponentPlan<'a>> {
    // Oversubscribe so uneven subproblem sizes still balance.
    let target = (4 * threads).max(2);
    candidates
        .iter()
        .map(|comp| {
            // An uncharged peek: the hit/miss counters are charged exactly
            // once per component, either by `run`'s parallel branch or by
            // the serial `check_component` fallback.
            if let Some(cached) = reuse.and_then(|ctx| ctx.peek_cliques(comp)) {
                return ComponentPlan {
                    component: comp,
                    graph: UndirectedGraph::new(0),
                    mapping: comp.to_vec(),
                    subproblems: None,
                    cached: Some(cached),
                };
            }
            let (graph, mapping) = pre.fd_graph.induced_subgraph(comp);
            let subproblems = if opts.parallel_intra && comp.len() >= SPLIT_THRESHOLD {
                let subs = split_subproblems(&graph, opts.clique_strategy, target);
                (subs.len() > 1).then_some(subs)
            } else {
                None
            };
            ComponentPlan {
                component: comp,
                graph,
                mapping,
                subproblems,
                cached: None,
            }
        })
        .collect()
}

/// Runs `OptDCSat` under `budget`. The caller must have established that
/// the constraint is monotonic, conjunctive, and connected. A batch
/// [`ReuseCtx`] shares refined partitions and complete per-component clique
/// enumerations across the constraints of one `Solver::check_batch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    bcdb: &BlockchainDb,
    pre: &Precomputed,
    pc: &PreparedConstraint,
    covers: &CoversInfo,
    opts: &DcSatOptions,
    budget: &Budget,
    reuse: Option<&ReuseCtx>,
) -> Result<DcSatOutcome, Exhausted> {
    let db = bcdb.database();
    let pq = pc
        .as_conjunctive()
        .expect("OptDCSat requires a conjunctive constraint");
    let mut stats = DcSatStats {
        algorithm: "opt",
        ..DcSatStats::default()
    };

    if opts.use_precheck {
        match pc.holds_governed(db, &db.all_mask(), budget) {
            Ok(false) => {
                stats.precheck_short_circuit = true;
                probes::CORE_PRECHECK_SHORT_CIRCUITS.incr();
                return Ok(DcSatOutcome::satisfied(stats));
            }
            Ok(true) => {}
            Err(reason) => return Err(Exhausted { reason, stats }),
        }
    }

    // The world `R` itself is always possible but belongs to no component
    // (components partition pending transactions); check it explicitly so
    // assignments living entirely in the current state are not missed when
    // every component is pruned — or none exists.
    let base = db.base_mask();
    match opts.base_verdict_hint {
        // An epoch-valid external cache already knows R's verdict.
        Some(true) => {
            stats.base_cache_hits += 1;
            probes::CORE_BASE_CACHE_HITS.incr();
            return Ok(DcSatOutcome::unsatisfied(base, stats));
        }
        Some(false) => {
            stats.base_cache_hits += 1;
            probes::CORE_BASE_CACHE_HITS.incr();
        }
        None => {
            stats.worlds_evaluated += 1;
            match pc.holds_governed(db, &base, budget) {
                Ok(true) => return Ok(DcSatOutcome::unsatisfied(base, stats)),
                Ok(false) => {}
                Err(reason) => return Err(Exhausted { reason, stats }),
            }
        }
    }

    // Components of Gq,ind = ΘI components refined with Θq edges. In a
    // batch, constraints with the same canonical Θq share one partition.
    let components: Arc<Vec<Vec<usize>>> = {
        let _span = probes::CORE_PHASE_THETA_NS.span();
        match reuse {
            Some(ctx) => ctx.partition(bcdb, pre, &canonical_equalities(pq.query())),
            None => Arc::new(query_components(bcdb, pre, pq.query())),
        }
    };
    stats.components_total = components.len();

    let n = bcdb.pending_count();
    let candidates: Vec<&Vec<usize>> = components
        .iter()
        .filter(|comp| {
            if !opts.use_covers {
                return true;
            }
            let set = BitSet::from_iter(n, comp.iter().copied());
            covers.covers(&set)
        })
        .collect();
    stats.components_checked = candidates.len();

    if opts.parallel {
        let threads = worker_threads(opts);
        let plans = build_plans(pre, &candidates, opts, threads, reuse);
        // Label every unit with the position of its constraint within the
        // batch (0 outside one) so stolen units remain attributable.
        let ctag = reuse.map_or(0, |ctx| ctx.constraint_tag());
        let mut work = Vec::new();
        for (pi, plan) in plans.iter().enumerate() {
            match &plan.subproblems {
                Some(subs) => {
                    work.extend((0..subs.len()).map(|si| WorkUnit::subproblem(ctag, pi, si)))
                }
                None => work.push(WorkUnit::component(ctag, pi)),
            }
        }
        stats.subproblems_spawned = plans
            .iter()
            .filter_map(|p| p.subproblems.as_ref().map(Vec::len))
            .sum();
        if work.len() > 1 {
            // Charge the reuse counters (one lookup per component) and set
            // up per-item collection slots for the uncached plans, so their
            // complete enumerations can seed the cache for the rest of the
            // batch.
            let collect: Option<Vec<CliqueSlot>> = reuse.map(|ctx| {
                for plan in &plans {
                    // A dropped vacant slot records the miss; the plan's
                    // enumeration is harvested (uncharged) below.
                    if let CliqueEntry::Hit(_) = ctx.clique_entry(plan.component) {
                        probes::CORE_SOLVER_CLIQUE_REUSE.incr();
                    }
                }
                work.iter().map(|_| Mutex::new(None)).collect()
            });
            let result = run_parallel(
                bcdb,
                pre,
                pc,
                &plans,
                &work,
                opts,
                budget,
                stats,
                threads,
                collect.as_deref(),
            );
            if let (Some(ctx), Some(slots)) = (reuse, collect) {
                harvest_completed_plans(ctx, &plans, &work, &slots);
            }
            return result;
        }
    }

    let _enum_span = probes::CORE_PHASE_ENUMERATION_NS
        .span_excluding(&probes::CORE_PHASE_WORLD_CHECKS_NS);
    let mut witness = None;
    let mut arena = ExpandArena::new();
    for comp in candidates {
        match check_component(bcdb, pre, pc, comp, opts, budget, &mut stats, reuse, &mut arena) {
            Ok(Some(w)) => {
                witness = Some(w);
                break;
            }
            Ok(None) => {}
            Err(reason) => return Err(Exhausted { reason, stats }),
        }
    }
    Ok(match witness {
        Some(w) => DcSatOutcome::unsatisfied(w, stats),
        None => DcSatOutcome::satisfied(stats),
    })
}

/// Inserts into the batch cache every uncached plan whose work items *all*
/// ran their enumeration to completion (concatenating subproblem clique
/// lists in work order reproduces the sequential enumeration exactly). A
/// plan cut short by a witness, exhaustion, or a panic leaves at least one
/// empty slot and is skipped — caching a partial enumeration would be
/// unsound.
fn harvest_completed_plans(
    ctx: &ReuseCtx,
    plans: &[ComponentPlan<'_>],
    work: &[WorkUnit],
    slots: &[Mutex<Option<Vec<Vec<usize>>>>],
) {
    for (pi, plan) in plans.iter().enumerate() {
        if plan.cached.is_some() {
            continue;
        }
        let mut cliques = Vec::new();
        let mut complete = true;
        for (wi, item) in work.iter().enumerate() {
            if item.component != pi {
                continue;
            }
            match slots[wi].lock().unwrap().take() {
                Some(part) => cliques.extend(part),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            ctx.publish_cliques(plan.component.to_vec(), cliques);
        }
    }
}

/// Shared clique-visitor driver: `enumerate` yields maximal cliques (of a
/// whole component or of one of its subproblems, as subgraph node indexes),
/// each becomes a maximal world via `getMaximal` and is evaluated with
/// [`eval_world`]. Returns a witness world if the query holds over one,
/// `Err` if the budget ran out mid-enumeration.
#[allow(clippy::too_many_arguments)]
fn drive<F>(
    bcdb: &BlockchainDb,
    pre: &Precomputed,
    pc: &PreparedConstraint,
    mapping: &[usize],
    opts: &DcSatOptions,
    budget: &Budget,
    stats: &mut DcSatStats,
    enumerate: F,
) -> Result<Option<WorldMask>, ExhaustionReason>
where
    F: FnOnce(&mut dyn FnMut(&[usize]) -> Visit) -> Result<bool, ExhaustionReason>,
{
    let db = bcdb.database();
    let mut witness = None;
    // Exhaustion inside the visitor unwinds the enumeration via
    // `Visit::Stop` and is re-raised from `broke`.
    let mut broke: Option<ExhaustionReason> = None;
    // One world/tx/fixpoint scratch set per drive, reset per clique: the
    // visitor runs once per maximal clique, so per-clique allocation is the
    // hot path. The world is cloned only when it becomes the witness.
    let mut txs: Vec<TxId> = Vec::new();
    let mut world = db.base_mask();
    let mut scratch = MaximalScratch::default();
    let enumeration = enumerate(&mut |clique| {
        stats.cliques_enumerated += 1;
        if let Err(reason) = budget.charge_world() {
            broke = Some(reason);
            return Visit::Stop;
        }
        txs.clear();
        txs.extend(clique.iter().map(|&i| TxId(mapping[i] as u32)));
        get_maximal_into(bcdb, pre, &txs, &mut world, &mut scratch);
        match eval_world(db, pc, &world, opts, budget, stats) {
            Ok(true) => {
                witness = Some(world.clone());
                Visit::Stop
            }
            Ok(false) => Visit::Continue,
            Err(reason) => {
                broke = Some(reason);
                Visit::Stop
            }
        }
    });
    if witness.is_some() {
        return Ok(witness);
    }
    if let Some(reason) = broke {
        return Err(reason);
    }
    enumeration?;
    Ok(None)
}

/// Replays a cached complete enumeration through the visitor, charging the
/// clique budget exactly as the live enumerator's `report` would (the
/// per-expansion deadline ticks and pivot probes of a live run are skipped;
/// replays may therefore exhaust slightly later, never earlier with respect
/// to cliques).
fn replay_cliques(
    cliques: &[Vec<usize>],
    budget: &Budget,
    visit: &mut dyn FnMut(&[usize]) -> Visit,
) -> Result<bool, ExhaustionReason> {
    for clique in cliques {
        budget.charge_clique()?;
        if matches!(visit(clique), Visit::Stop) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Enumerates the maximal cliques of `GfTd` restricted to `component`,
/// builds each maximal world, and evaluates the constraint (serial path —
/// builds the induced subgraph itself). With a batch [`ReuseCtx`], a cached
/// component is replayed without touching `GfTd`, and a fresh complete
/// enumeration is recorded for the rest of the batch.
#[allow(clippy::too_many_arguments)]
fn check_component(
    bcdb: &BlockchainDb,
    pre: &Precomputed,
    pc: &PreparedConstraint,
    component: &[usize],
    opts: &DcSatOptions,
    budget: &Budget,
    stats: &mut DcSatStats,
    reuse: Option<&ReuseCtx>,
    arena: &mut ExpandArena,
) -> Result<Option<WorldMask>, ExhaustionReason> {
    inject_fault(opts, component);
    if let Some(ctx) = reuse {
        match ctx.clique_entry(component) {
            CliqueEntry::Hit(cached) => {
                probes::CORE_SOLVER_CLIQUE_REUSE.incr();
                // Cached cliques are local indices of the induced subgraph,
                // whose mapping is the component member list itself.
                return drive(bcdb, pre, pc, component, opts, budget, stats, |visit| {
                    replay_cliques(&cached, budget, visit)
                });
            }
            CliqueEntry::Miss(vacant) => {
                let (sub, mapping) = pre.fd_graph.induced_subgraph(component);
                let mut collected = Vec::new();
                let out = drive(bcdb, pre, pc, &mapping, opts, budget, stats, |visit| {
                    maximal_cliques_governed_in(
                        &sub,
                        opts.clique_strategy,
                        budget,
                        arena,
                        |c: &[usize]| {
                            collected.push(c.to_vec());
                            visit(c)
                        },
                    )
                });
                // `Ok(None)` is the only complete-enumeration outcome: a
                // witness or an exhaustion stopped early and must not seed
                // the cache (the vacant slot is simply dropped).
                if matches!(out, Ok(None)) {
                    vacant.insert_complete(collected);
                }
                return out;
            }
        }
    }
    let (sub, mapping) = pre.fd_graph.induced_subgraph(component);
    drive(bcdb, pre, pc, &mapping, opts, budget, stats, |visit| {
        maximal_cliques_governed_in(&sub, opts.clique_strategy, budget, arena, visit)
    })
}

/// Checks a whole (unsplit) component from its prepared plan, replaying the
/// cached enumeration when the batch already has one, and streaming fresh
/// cliques into `sink` so a completed run can seed the batch cache.
#[allow(clippy::too_many_arguments)]
fn check_plan_component(
    bcdb: &BlockchainDb,
    pre: &Precomputed,
    pc: &PreparedConstraint,
    plan: &ComponentPlan<'_>,
    opts: &DcSatOptions,
    budget: &Budget,
    stats: &mut DcSatStats,
    sink: Option<&mut Vec<Vec<usize>>>,
    arena: &mut ExpandArena,
) -> Result<Option<WorldMask>, ExhaustionReason> {
    inject_fault(opts, plan.component);
    if let Some(cached) = &plan.cached {
        return drive(bcdb, pre, pc, &plan.mapping, opts, budget, stats, |visit| {
            replay_cliques(cached, budget, visit)
        });
    }
    match sink {
        Some(out) => drive(bcdb, pre, pc, &plan.mapping, opts, budget, stats, |visit| {
            maximal_cliques_governed_in(
                &plan.graph,
                opts.clique_strategy,
                budget,
                arena,
                |c: &[usize]| {
                    out.push(c.to_vec());
                    visit(c)
                },
            )
        }),
        None => drive(bcdb, pre, pc, &plan.mapping, opts, budget, stats, |visit| {
            maximal_cliques_governed_in(&plan.graph, opts.clique_strategy, budget, arena, visit)
        }),
    }
}

/// Checks one Bron–Kerbosch subproblem of a split component. The
/// subproblems of a component are independent and their maximal cliques
/// partition the component's, so checking them on different workers is
/// sound and enumerates nothing twice.
#[allow(clippy::too_many_arguments)]
fn check_subproblem(
    bcdb: &BlockchainDb,
    pre: &Precomputed,
    pc: &PreparedConstraint,
    plan: &ComponentPlan<'_>,
    sub: &CliqueSubproblem,
    opts: &DcSatOptions,
    budget: &Budget,
    stats: &mut DcSatStats,
    sink: Option<&mut Vec<Vec<usize>>>,
    arena: &mut ExpandArena,
) -> Result<Option<WorldMask>, ExhaustionReason> {
    inject_fault(opts, plan.component);
    match sink {
        Some(out) => drive(bcdb, pre, pc, &plan.mapping, opts, budget, stats, |visit| {
            let collect = |c: &[usize]| {
                out.push(c.to_vec());
                visit(c)
            };
            expand_subproblem_governed_in(
                &plan.graph,
                opts.clique_strategy,
                sub,
                budget,
                arena,
                collect,
            )
        }),
        None => drive(bcdb, pre, pc, &plan.mapping, opts, budget, stats, |visit| {
            expand_subproblem_governed_in(&plan.graph, opts.clique_strategy, sub, budget, arena, visit)
        }),
    }
}

/// Extension: drain the work list (whole components and intra-component
/// subproblems) with std scoped threads over a work-stealing scheduler:
/// each worker owns a contiguous block of the flattened list and steals
/// from the back of a neighbour's deque when its own runs dry (see
/// [`StealScheduler`]). First witness wins; other workers observe the stop
/// flag and bail. Every worker reuses one [`ExpandArena`] across all the
/// units it claims, so R/P/X stacks are allocated once per worker rather
/// than once per recursion frame.
///
/// Robustness guarantees (deterministic regardless of scheduling):
/// - every worker is joined before this function returns, even when a
///   worker panics, exhausts the budget, or errs early;
/// - a panicking worker is isolated with `catch_unwind` and surfaces as
///   the *lowest-indexed* poisoned work item (reported under its component
///   index), so repeated runs report the same failure rather than
///   whichever thread lost the race — including when the item was stolen;
/// - likewise the lowest-indexed exhausted item's reason is the one
///   propagated.
///
/// Result preference after joining: a concrete witness (definite even if
/// another worker failed) > a worker panic > budget exhaustion > satisfied.
#[allow(clippy::too_many_arguments)]
fn run_parallel(
    bcdb: &BlockchainDb,
    pre: &Precomputed,
    pc: &PreparedConstraint,
    plans: &[ComponentPlan<'_>],
    work: &[WorkUnit],
    opts: &DcSatOptions,
    budget: &Budget,
    mut stats: DcSatStats,
    threads: usize,
    collect: Option<&[CliqueSlot]>,
) -> Result<DcSatOutcome, Exhausted> {
    let _enum_span = probes::CORE_PHASE_ENUMERATION_NS
        .span_excluding(&probes::CORE_PHASE_WORLD_CHECKS_NS);
    let threads = threads.min(work.len());
    // The scheduler distributes *global work indexes*: the units themselves
    // stay in `work`, and every cross-worker decision below (lowest-index
    // error, slot harvest, budget attribution) keys on the index, never on
    // which deque the unit was claimed from.
    let sched = StealScheduler::new(threads, 0..work.len());
    let stop = AtomicBool::new(false);
    let witness: Mutex<Option<WorldMask>> = Mutex::new(None);
    // First panicked item: (work index, component index, payload message);
    // the lowest work index wins so the propagated error is deterministic.
    let poisoned: Mutex<Option<(usize, usize, String)>> = Mutex::new(None);
    // First exhausted work index + reason, same lowest-index rule.
    let exhausted: Mutex<Option<(usize, ExhaustionReason)>> = Mutex::new(None);
    let cliques = AtomicUsize::new(0);
    let worlds = AtomicUsize::new(0);
    let delta_evals = AtomicUsize::new(0);
    let cache_hits = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for wid in 0..threads {
            let sched = &sched;
            let stop = &stop;
            let witness = &witness;
            let poisoned = &poisoned;
            let exhausted = &exhausted;
            let cliques = &cliques;
            let worlds = &worlds;
            let delta_evals = &delta_evals;
            let cache_hits = &cache_hits;
            scope.spawn(move || {
                let mut arena = ExpandArena::new();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let Some(i) = sched.pop(wid) else { return };
                    let item = &work[i];
                    let plan = &plans[item.component];
                    let mut local = DcSatStats::default();
                    // Collection feeds the batch clique cache: only uncached
                    // plans collect, and only items that run to completion
                    // publish their slot (see `harvest_completed_plans`).
                    let mut sink_store: Option<Vec<Vec<usize>>> =
                        (collect.is_some() && plan.cached.is_none()).then(Vec::new);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || match item.subproblem {
                            None => check_plan_component(
                                bcdb,
                                pre,
                                pc,
                                plan,
                                opts,
                                budget,
                                &mut local,
                                sink_store.as_mut(),
                                &mut arena,
                            ),
                            Some(si) => {
                                let sub = &plan.subproblems.as_ref().expect("split plan")[si];
                                check_subproblem(
                                    bcdb,
                                    pre,
                                    pc,
                                    plan,
                                    sub,
                                    opts,
                                    budget,
                                    &mut local,
                                    sink_store.as_mut(),
                                    &mut arena,
                                )
                            }
                        },
                    ));
                    if let (Some(slots), Some(done)) = (collect, sink_store) {
                        if matches!(&result, Ok(Ok(None))) {
                            *slots[i].lock().unwrap() = Some(done);
                        }
                    }
                    cliques.fetch_add(local.cliques_enumerated, Ordering::Relaxed);
                    worlds.fetch_add(local.worlds_evaluated, Ordering::Relaxed);
                    delta_evals.fetch_add(local.delta_seeded_evals, Ordering::Relaxed);
                    cache_hits.fetch_add(local.base_cache_hits, Ordering::Relaxed);
                    match result {
                        Ok(Ok(Some(w))) => {
                            *witness.lock().unwrap() = Some(w);
                            stop.store(true, Ordering::Relaxed);
                            return;
                        }
                        Ok(Ok(None)) => {}
                        Ok(Err(reason)) => {
                            let mut slot = exhausted.lock().unwrap();
                            if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                *slot = Some((i, reason));
                            }
                            stop.store(true, Ordering::Relaxed);
                            return;
                        }
                        Err(payload) => {
                            // `as_ref` reaches the inner `dyn Any` — a plain
                            // `&payload` would downcast against `Box<dyn Any>`
                            // itself and always miss.
                            let msg = payload_message(payload.as_ref());
                            let mut slot = poisoned.lock().unwrap();
                            if slot.as_ref().is_none_or(|(j, _, _)| i < *j) {
                                *slot = Some((i, item.component, msg));
                            }
                            stop.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
    stats.work_steals += sched.steal_count() as usize;

    stats.cliques_enumerated += cliques.load(Ordering::Relaxed);
    stats.worlds_evaluated += worlds.load(Ordering::Relaxed);
    stats.delta_seeded_evals += delta_evals.load(Ordering::Relaxed);
    stats.base_cache_hits += cache_hits.load(Ordering::Relaxed);
    // Scheduling may have let another worker find a witness before the
    // stop flag propagated; a concrete witness is still sound and takes
    // precedence over any concurrent failure.
    let found = witness.into_inner().unwrap();
    if let Some((_, comp, msg)) = poisoned.into_inner().unwrap() {
        stats.poisoned_workers += 1;
        if let Some(w) = found {
            return Ok(DcSatOutcome::unsatisfied(w, stats));
        }
        return Err(Exhausted {
            reason: ExhaustionReason::WorkerPanicked {
                component: comp,
                message: msg,
            },
            stats,
        });
    }
    if let Some((_, reason)) = exhausted.into_inner().unwrap() {
        if let Some(w) = found {
            return Ok(DcSatOutcome::unsatisfied(w, stats));
        }
        return Err(Exhausted { reason, stats });
    }
    Ok(match found {
        Some(w) => DcSatOutcome::unsatisfied(w, stats),
        None => DcSatOutcome::satisfied(stats),
    })
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
