//! Denial-constraint satisfaction (§5–§6 of the paper).
//!
//! `D |= ¬q` iff the Boolean query `q` is false over *every* possible world
//! of the blockchain database `D`. Four algorithms are provided:
//!
//! * [`naive`] — the paper's `NaiveDCSat`: enumerate maximal cliques of
//!   `GfTd`, build each maximal world with `getMaximal`, evaluate `q`.
//!   Sound for monotonic constraints.
//! * [`opt`] — the paper's `OptDCSat`: additionally decompose along the
//!   connected components of `Gq,ind` and prune components that cannot
//!   cover the query's constants. Sound for monotonic *connected
//!   conjunctive* constraints.
//! * [`tractable`] — PTIME deciders for the polynomial cases of
//!   Theorems 1–2 (e.g. conjunctive constraints under FDs-only or
//!   INDs-only).
//! * [`oracle`] — exhaustive enumeration of `Poss(D)`; exponential, but
//!   sound for *every* constraint. Used as the validation oracle and as
//!   the fallback for non-monotonic constraints outside the tractable
//!   cases.
//!
//! The top-level [`dcsat`] routes automatically; [`DcSatOptions`] can force
//! an algorithm and toggle each optimization (for the ablation benchmarks).

// The internal algorithm drivers return `Result<DcSatOutcome, Exhausted>`
// where the error deliberately carries the partial `DcSatStats` accumulated
// before the budget ran out — the stats are the point, not payload bloat.
#[allow(clippy::result_large_err)]
pub mod naive;
#[allow(clippy::result_large_err)]
pub mod opt;
#[allow(clippy::result_large_err)]
pub mod oracle;
#[allow(clippy::result_large_err)]
pub mod tractable;

// The in-crate tests intentionally exercise the deprecated free-function
// wrappers alongside the `Solver` facade.
#[cfg(test)]
#[allow(deprecated)]
mod tests;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::db::BlockchainDb;
use crate::error::CoreError;
use crate::precompute::{refined_components, Precomputed};
use bcdb_governor::{Budget, BudgetSpec, ExhaustionReason, UNGOVERNED};
use bcdb_graph::{CliqueCache, CliqueStrategy};
use bcdb_query::EqualityConstraint;
use bcdb_query::{
    atom_graph_complete, evaluate_aggregate, evaluate_aggregate_governed, evaluate_bool,
    evaluate_bool_delta_governed, evaluate_bool_governed, is_connected, monotonicity, prepare,
    prepare_aggregate, DenialConstraint, Monotonicity, PreparedAggregate, PreparedQuery,
};
use bcdb_storage::{Database, WorldMask};
use bcdb_telemetry::probes;

/// Which algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Route automatically: tractable case if one applies, else
    /// `OptDCSat` (monotonic + connected conjunctive), else `NaiveDCSat`
    /// (monotonic), else the exhaustive oracle.
    #[default]
    Auto,
    /// Force the paper's `NaiveDCSat` (requires a monotonic constraint).
    Naive,
    /// Force the paper's `OptDCSat` (requires monotonic, connected,
    /// conjunctive).
    Opt,
    /// Force a tractable decider (errors if none applies).
    Tractable,
    /// Force exhaustive possible-world enumeration.
    Oracle,
}

/// Options controlling a DCSat check.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`DcSatOptions::default`] and the chainable `with_*` setters (or absorb
/// it into a [`Solver`](crate::Solver) builder, which adds the
/// soundness-sensitive knobs the plain options no longer expose).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct DcSatOptions {
    /// Algorithm selection.
    pub algorithm: Algorithm,
    /// Maximal-clique enumeration strategy.
    pub clique_strategy: CliqueStrategy,
    /// §6.3's monotone pre-check: evaluate `q` over `R ∪ ⋃T` first; if
    /// false there, it is false in every world.
    pub use_precheck: bool,
    /// `OptDCSat`'s constant-covers pruning of components.
    pub use_covers: bool,
    /// Process `OptDCSat` components on multiple threads (extension).
    pub parallel: bool,
    /// Second level of parallelism (extension): when [`parallel`] is on,
    /// split large components into independent Bron–Kerbosch subproblems so
    /// a single giant component still saturates the thread pool. Has no
    /// effect on the serial path.
    ///
    /// [`parallel`]: DcSatOptions::parallel
    pub parallel_intra: bool,
    /// Delta-seeded world evaluation (extension): for negation-free
    /// conjunctive constraints whose base verdict is known false, evaluate
    /// each world with plans seeded from its pending (delta) tuples instead
    /// of re-joining from scratch. Sound by monotonicity — any new
    /// satisfying assignment must touch at least one delta tuple.
    pub use_delta: bool,
    /// Worker-thread count for the parallel paths. `None` asks the OS via
    /// `available_parallelism`. Mostly useful to tests and benchmarks that
    /// must exercise multi-threaded scheduling regardless of the machine.
    pub threads: Option<usize>,
    /// Fault injection for robustness tests: a worker whose component
    /// contains this pending-transaction index panics mid-check. `None`
    /// (the default) injects nothing. Builder-only: set through the hidden
    /// [`SolverBuilder::fault_inject_panic_tx`](crate::SolverBuilder) hook.
    pub(crate) fault_inject_panic_tx: Option<usize>,
    /// Resource limits for governed entry points ([`dcsat_governed`] and
    /// friends). Ignored by the ungoverned [`dcsat`]/[`dcsat_with`], which
    /// always run to completion.
    pub budget: BudgetSpec,
    /// Caller-supplied verdict of the constraint over the base world `R`
    /// alone, from an external cache (the monitor layer caches it per
    /// epoch). `Some(false)` lets the algorithms skip re-evaluating `R`
    /// before enumerating worlds; `Some(true)` short-circuits to a base
    /// witness outright.
    ///
    /// **Soundness contract**: the hint must describe the *current* `R`.
    /// Any mutation of the base state (a mined block, a reorg) invalidates
    /// it; the caller is responsible for epoch-tagging its cache. A wrong
    /// hint produces wrong verdicts, not errors. Builder-only: set through
    /// [`SolverBuilder::base_verdict_hint`](crate::SolverBuilder); the
    /// [`Solver`](crate::Solver) otherwise manages the hint itself from its
    /// epoch-tagged base-verdict cache.
    pub(crate) base_verdict_hint: Option<bool>,
}

impl DcSatOptions {
    /// Returns the options with [`algorithm`](Self::algorithm) replaced.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns the options with [`clique_strategy`](Self::clique_strategy)
    /// replaced.
    pub fn with_clique_strategy(mut self, strategy: CliqueStrategy) -> Self {
        self.clique_strategy = strategy;
        self
    }

    /// Returns the options with [`use_precheck`](Self::use_precheck) set.
    pub fn with_precheck(mut self, on: bool) -> Self {
        self.use_precheck = on;
        self
    }

    /// Returns the options with [`use_covers`](Self::use_covers) set.
    pub fn with_covers(mut self, on: bool) -> Self {
        self.use_covers = on;
        self
    }

    /// Returns the options with [`parallel`](Self::parallel) set.
    pub fn with_parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Returns the options with [`parallel_intra`](Self::parallel_intra)
    /// set.
    pub fn with_parallel_intra(mut self, on: bool) -> Self {
        self.parallel_intra = on;
        self
    }

    /// Returns the options with [`use_delta`](Self::use_delta) set.
    pub fn with_delta(mut self, on: bool) -> Self {
        self.use_delta = on;
        self
    }

    /// Returns the options with [`threads`](Self::threads) replaced.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the options with [`budget`](Self::budget) replaced.
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Fault-injection hook for robustness harnesses that reach the solver
    /// only through a config struct (e.g. the monitor's `MonitorConfig`):
    /// a worker whose component contains pending-transaction index `tx`
    /// panics mid-check. Mirrors the hidden
    /// [`SolverBuilder::fault_inject_panic_tx`](crate::SolverBuilder) hook.
    #[doc(hidden)]
    pub fn with_fault_inject_panic_tx(mut self, tx: Option<usize>) -> Self {
        self.fault_inject_panic_tx = tx;
        self
    }
}

impl Default for DcSatOptions {
    fn default() -> Self {
        DcSatOptions {
            algorithm: Algorithm::Auto,
            clique_strategy: CliqueStrategy::Pivot,
            use_precheck: true,
            use_covers: true,
            parallel: false,
            parallel_intra: true,
            use_delta: true,
            threads: None,
            fault_inject_panic_tx: None,
            budget: BudgetSpec::UNLIMITED,
            base_verdict_hint: None,
        }
    }
}

/// Counters describing what an algorithm did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DcSatStats {
    /// Name of the algorithm that actually ran.
    pub algorithm: &'static str,
    /// Whether the `R ∪ ⋃T` pre-check short-circuited.
    pub precheck_short_circuit: bool,
    /// Maximal cliques enumerated.
    pub cliques_enumerated: usize,
    /// Possible worlds on which the constraint was evaluated.
    pub worlds_evaluated: usize,
    /// `Gq,ind` components in total (OptDCSat).
    pub components_total: usize,
    /// Components that survived the covers check (OptDCSat).
    pub components_checked: usize,
    /// Query matches examined (tractable deciders).
    pub matches_examined: usize,
    /// Parallel workers isolated after a panic (always 0 unless a bug in a
    /// worker was contained by the panic guard).
    pub poisoned_workers: usize,
    /// Intra-component Bron–Kerbosch subproblems spawned by the two-level
    /// parallel scheduler (0 on the serial path and for unsplit components).
    pub subproblems_spawned: usize,
    /// World evaluations answered by a delta-seeded plan instead of a full
    /// re-join (see [`DcSatOptions::use_delta`]).
    pub delta_seeded_evals: usize,
    /// World evaluations that reused the cached base-world verdict — every
    /// delta-seeded evaluation, plus empty-delta worlds answered outright.
    pub base_cache_hits: usize,
    /// Work units claimed from another worker's deque by the stealing
    /// scheduler (0 on the serial path; see
    /// [`bcdb_graph::StealScheduler`]).
    pub work_steals: usize,
}

/// An algorithm stopped before reaching a definite answer. Internal result
/// type of the budget-aware algorithm drivers; governed entry points
/// convert it into [`Verdict::Unknown`], ungoverned ones into
/// [`CoreError::Exhausted`].
#[derive(Clone, Debug)]
pub struct Exhausted {
    /// What ran out (or went wrong).
    pub reason: ExhaustionReason,
    /// Work done before stopping — partial, but accurate.
    pub stats: DcSatStats,
}

/// The result of a denial-constraint satisfaction check.
#[derive(Clone, Debug)]
pub struct DcSatOutcome {
    /// `true` iff `D |= ¬q`: the constraint holds in every possible world.
    pub satisfied: bool,
    /// When unsatisfied: a possible world over which `q` evaluates to true
    /// (useful for diagnosing which pending transactions are dangerous).
    pub witness: Option<WorldMask>,
    /// What the algorithm did.
    pub stats: DcSatStats,
}

impl DcSatOutcome {
    pub(crate) fn satisfied(stats: DcSatStats) -> Self {
        DcSatOutcome {
            satisfied: true,
            witness: None,
            stats,
        }
    }

    pub(crate) fn unsatisfied(witness: WorldMask, stats: DcSatStats) -> Self {
        DcSatOutcome {
            satisfied: false,
            witness: Some(witness),
            stats,
        }
    }
}

/// The answer of a *governed* denial-constraint satisfaction check.
///
/// Soundness invariant: `Holds` and `Violated` are only ever returned when
/// fully proven — `Holds` means every possible world was covered by a sound
/// argument (complete enumeration, or monotonicity from the `R ∪ ⋃T`
/// pre-check), and `Violated`'s witness is a genuine possible world over
/// which the query evaluates to true. A run that exhausts its budget
/// returns `Unknown`, never a guess.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `D |= ¬q`: the constraint holds in every possible world.
    Holds,
    /// The constraint can be violated; the witness world proves it.
    Violated(WorldMask),
    /// The budget ran out (or a worker was lost) before either could be
    /// proven.
    Unknown(ExhaustionReason),
}

impl Verdict {
    /// `Some(satisfied)` for definite verdicts, `None` for `Unknown`.
    pub fn satisfied(&self) -> Option<bool> {
        match self {
            Verdict::Holds => Some(true),
            Verdict::Violated(_) => Some(false),
            Verdict::Unknown(_) => None,
        }
    }

    /// Whether this is a definite (proven) answer.
    pub fn is_definite(&self) -> bool {
        !matches!(self, Verdict::Unknown(_))
    }

    /// The witness world, if the constraint was proven violated.
    pub fn witness(&self) -> Option<&WorldMask> {
        match self {
            Verdict::Violated(w) => Some(w),
            _ => None,
        }
    }
}

/// The result of a governed denial-constraint satisfaction check.
#[derive(Clone, Debug)]
pub struct GovernedOutcome {
    /// The (possibly indefinite) answer. See [`Verdict`].
    pub verdict: Verdict,
    /// What the algorithms did, including work done before any exhaustion.
    pub stats: DcSatStats,
    /// When the primary algorithm exhausted its budget but a cheaper sound
    /// fallback still produced a definite answer, the fallback's name
    /// (e.g. `"degraded/naive"`, `"degraded/monotone-precheck"`,
    /// `"degraded/base-world"`). `None` when the primary answer stood.
    pub degraded_to: Option<&'static str>,
    /// Wall-clock time consumed by the check (primary + any fallbacks).
    pub elapsed: std::time::Duration,
}

/// A denial constraint compiled against the database (join order and probe
/// indexes fixed). Reusable across many [`dcsat_with`] calls.
#[derive(Clone, Debug)]
pub enum PreparedConstraint {
    /// A conjunctive constraint.
    Conjunctive(PreparedQuery),
    /// An aggregate constraint.
    Aggregate(PreparedAggregate),
}

impl PreparedConstraint {
    /// Compiles `dc` (building any indexes its plan probes).
    pub fn prepare(db: &mut Database, dc: &DenialConstraint) -> Self {
        match dc {
            DenialConstraint::Conjunctive(q) => PreparedConstraint::Conjunctive(prepare(db, q)),
            DenialConstraint::Aggregate(a) => {
                PreparedConstraint::Aggregate(prepare_aggregate(db, a))
            }
        }
    }

    /// Whether the underlying query evaluates to true in the world `mask`.
    pub fn holds(&self, db: &Database, mask: &WorldMask) -> bool {
        match self {
            PreparedConstraint::Conjunctive(pq) => evaluate_bool(db, pq, mask),
            PreparedConstraint::Aggregate(pa) => evaluate_aggregate(db, pa, mask),
        }
    }

    /// Budget-aware variant of [`PreparedConstraint::holds`]: `Ok` answers
    /// are definite, `Err` means the budget ran out mid-evaluation.
    pub fn holds_governed(
        &self,
        db: &Database,
        mask: &WorldMask,
        budget: &Budget,
    ) -> Result<bool, ExhaustionReason> {
        match self {
            PreparedConstraint::Conjunctive(pq) => evaluate_bool_governed(db, pq, mask, budget),
            PreparedConstraint::Aggregate(pa) => {
                evaluate_aggregate_governed(db, pa, mask, budget)
            }
        }
    }

    /// The conjunctive prepared query, if this is one.
    pub fn as_conjunctive(&self) -> Option<&PreparedQuery> {
        match self {
            PreparedConstraint::Conjunctive(pq) => Some(pq),
            PreparedConstraint::Aggregate(_) => None,
        }
    }

    /// Whether [`eval_world`] may take the delta-seeded path for this
    /// constraint: conjunctive and negation-free (monotone in the delta).
    pub(crate) fn delta_capable(&self) -> bool {
        matches!(self, PreparedConstraint::Conjunctive(pq) if pq.seedable())
    }
}

/// Evaluates the constraint over one maximal world, preferring a
/// delta-seeded plan when sound. Increments `worlds_evaluated` and the
/// delta counters.
///
/// Soundness precondition for the delta path: the caller has already
/// established that the query is **false over the base world** `R` (both
/// `NaiveDCSat` and `OptDCSat` check `R` before enumerating worlds when
/// `use_delta` applies). Every world is `R` plus its active pending tuples,
/// and the query is negation-free, hence monotone in the added tuples: a
/// satisfying assignment either exists in `R` alone (excluded by the cached
/// base verdict) or touches at least one delta tuple — exactly what the
/// delta-seeded plans enumerate. An empty-delta world *is* `R` and is
/// answered from the cache without any evaluation.
pub(crate) fn eval_world(
    db: &Database,
    pc: &PreparedConstraint,
    world: &WorldMask,
    opts: &DcSatOptions,
    budget: &Budget,
    stats: &mut DcSatStats,
) -> Result<bool, ExhaustionReason> {
    let _wc_span = probes::CORE_PHASE_WORLD_CHECKS_NS.span();
    stats.worlds_evaluated += 1;
    if opts.use_delta {
        if let PreparedConstraint::Conjunctive(pq) = pc {
            if pq.seedable() {
                stats.base_cache_hits += 1;
                probes::CORE_BASE_CACHE_HITS.incr();
                if world.txs().next().is_none() {
                    return Ok(false);
                }
                stats.delta_seeded_evals += 1;
                return evaluate_bool_delta_governed(db, pq, world, budget);
            }
        }
    }
    pc.holds_governed(db, world, budget)
}

/// A refined `Gq,ind` partition (component member lists), shared across
/// the constraints of a batch.
type SharedPartition = Arc<Vec<Vec<usize>>>;

/// Reuse view for one governed check or one [`Solver::check_batch`] run
/// (see `crate::solver`): the refined `Gq,ind` partition per canonical Θq
/// list, and the component-keyed clique cache.
///
/// By default both stores are private to the view and die with it — sound
/// because the pending set is frozen for the view's lifetime. When backed
/// by a [`SharedEnumCache`](crate::cache::SharedEnumCache)
/// (via [`ReuseCtx::with_shared`]) the stores outlive the view and are
/// shared across sessions; the shared cache's generation-checked
/// invalidation hooks keep them sound across mutations. Either way the
/// view keeps its *own* hit/miss counters, so per-batch (and per-tenant)
/// reuse accounting stays exact against a long-lived backing store.
pub(crate) struct ReuseCtx {
    /// Long-lived backing store, when attached.
    shared: Option<Arc<crate::cache::SharedEnumCache>>,
    /// Refined partitions keyed by the *exact* canonical Θq list — a hash
    /// signature alone could collide two different refinements, which would
    /// be silently unsound. Used only when no shared backing is attached.
    partitions: Mutex<HashMap<Vec<EqualityConstraint>, SharedPartition>>,
    /// Complete per-component clique enumerations, in local induced-subgraph
    /// indices (the component member list is the local→global mapping).
    /// Used only when no shared backing is attached.
    local_cliques: CliqueCache,
    /// Components answered from the clique store through *this* view.
    hits: std::sync::atomic::AtomicU64,
    /// Components this view had to enumerate afresh.
    misses: std::sync::atomic::AtomicU64,
    /// Sequence number of the batch constraint currently being checked;
    /// labels the work-stealing scheduler's (constraint × component ×
    /// subproblem) units. Purely diagnostic — results never depend on it.
    constraint_seq: std::sync::atomic::AtomicUsize,
}

impl ReuseCtx {
    pub(crate) fn new() -> Self {
        ReuseCtx {
            shared: None,
            partitions: Mutex::new(HashMap::new()),
            local_cliques: CliqueCache::new(),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
            constraint_seq: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// A view backed by a cross-session shared cache: partition and clique
    /// probes read and seed the shared stores instead of view-local ones.
    pub(crate) fn with_shared(cache: Arc<crate::cache::SharedEnumCache>) -> Self {
        let mut ctx = ReuseCtx::new();
        ctx.shared = Some(cache);
        ctx
    }

    /// The clique store this view reads and seeds.
    fn cliques(&self) -> &CliqueCache {
        match &self.shared {
            Some(cache) => cache.cliques(),
            None => &self.local_cliques,
        }
    }

    /// Uncharged peek (shaping work items before the charged probe).
    pub(crate) fn peek_cliques(&self, component: &[usize]) -> Option<Arc<Vec<Vec<usize>>>> {
        self.cliques().peek(component)
    }

    /// Charged probe: counts a hit or miss on both the backing store and
    /// this view, returning the cached enumeration or a vacant slot.
    pub(crate) fn clique_entry<'a>(&'a self, component: &[usize]) -> bcdb_graph::CliqueEntry<'a> {
        let entry = self.cliques().entry(component);
        match &entry {
            bcdb_graph::CliqueEntry::Hit(_) => {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            }
            bcdb_graph::CliqueEntry::Miss(_) => {
                self.misses.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            }
        };
        entry
    }

    /// Uncharged publish of a **complete** enumeration (deferred-harvest
    /// path; the charged probe already ran through [`ReuseCtx::clique_entry`]).
    pub(crate) fn publish_cliques(&self, component: Vec<usize>, cliques: Vec<Vec<usize>>) {
        self.cliques().publish_complete(component, cliques);
    }

    /// Components answered from the cache through this view.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Components this view enumerated afresh.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Advances to the next batch constraint (called once per constraint
    /// by `Solver::check_batch`), returning its sequence number.
    pub(crate) fn begin_constraint(&self) -> usize {
        self.constraint_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// The current constraint's sequence number (0 before any
    /// `begin_constraint`, i.e. outside a batch).
    pub(crate) fn constraint_tag(&self) -> usize {
        self.constraint_seq
            .load(std::sync::atomic::Ordering::Relaxed)
            .saturating_sub(1)
    }

    /// The refined `Gq,ind` partition for the canonical Θq list `thetas`
    /// (see [`bcdb_query::canonical_equalities`]), computed at most once
    /// per distinct list (per backing-store lifetime).
    pub(crate) fn partition(
        &self,
        bcdb: &BlockchainDb,
        pre: &Precomputed,
        thetas: &[EqualityConstraint],
    ) -> SharedPartition {
        let compute = || refined_components(bcdb, pre, thetas);
        if let Some(cache) = &self.shared {
            return cache.partition_or_compute(thetas, compute);
        }
        if let Some(p) = self.partitions.lock().unwrap().get(thetas) {
            return Arc::clone(p);
        }
        let p = Arc::new(compute());
        self.partitions
            .lock()
            .unwrap()
            .entry(thetas.to_vec())
            .or_insert_with(|| Arc::clone(&p))
            .clone()
    }
}

/// Decides `D |= ¬q`, building the precomputed structures internally.
#[deprecated(note = "use Solver")]
pub fn dcsat(
    bcdb: &mut BlockchainDb,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
) -> Result<DcSatOutcome, CoreError> {
    dc.validate(bcdb.database().catalog())?;
    let pre = Precomputed::build(bcdb);
    check_ungoverned(bcdb, &pre, dc, opts)
}

/// Decides `D |= ¬q` using already-built steady-state structures `pre`
/// (which must reflect the current pending set).
#[deprecated(note = "use Solver")]
pub fn dcsat_with(
    bcdb: &mut BlockchainDb,
    pre: &Precomputed,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
) -> Result<DcSatOutcome, CoreError> {
    check_ungoverned(bcdb, pre, dc, opts)
}

/// Decides `D |= ¬q` under the resource limits in `opts.budget`, building
/// the precomputed structures internally. Never guesses: when the budget
/// runs out, cheap *sound* fallbacks are tried (see [`GovernedOutcome`]),
/// and failing those the verdict is [`Verdict::Unknown`].
#[deprecated(note = "use Solver")]
pub fn dcsat_governed(
    bcdb: &mut BlockchainDb,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
) -> Result<GovernedOutcome, CoreError> {
    dc.validate(bcdb.database().catalog())?;
    let pre = Precomputed::build(bcdb);
    let budget = opts.budget.start();
    check_governed(bcdb, &pre, dc, opts, &budget, None)
}

/// [`dcsat_governed`] over already-built steady-state structures.
#[deprecated(note = "use Solver")]
pub fn dcsat_governed_with(
    bcdb: &mut BlockchainDb,
    pre: &Precomputed,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
) -> Result<GovernedOutcome, CoreError> {
    let budget = opts.budget.start();
    check_governed(bcdb, pre, dc, opts, &budget, None)
}

/// [`dcsat_governed`] drawing from an externally-started [`Budget`] — the
/// caller keeps a handle and can [`Budget::cancel`] from another thread
/// (`opts.budget` is ignored; the supplied budget rules).
#[deprecated(note = "use Solver")]
pub fn dcsat_governed_with_budget(
    bcdb: &mut BlockchainDb,
    pre: &Precomputed,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
    budget: &Budget,
) -> Result<GovernedOutcome, CoreError> {
    check_governed(bcdb, pre, dc, opts, budget, None)
}

/// Ungoverned check: runs to completion under the static unlimited budget;
/// a worker panic is the only way it can report exhaustion.
pub(crate) fn check_ungoverned(
    bcdb: &mut BlockchainDb,
    pre: &Precomputed,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
) -> Result<DcSatOutcome, CoreError> {
    match route(bcdb, pre, dc, opts, &UNGOVERNED, None)? {
        Ok(outcome) => Ok(outcome),
        Err(ex) => Err(CoreError::Exhausted { reason: ex.reason }),
    }
}

/// Governed check over an externally-started budget, optionally drawing on
/// a batch [`ReuseCtx`]. The single implementation behind the deprecated
/// free functions and the [`Solver`](crate::Solver) facade.
pub(crate) fn check_governed(
    bcdb: &mut BlockchainDb,
    pre: &Precomputed,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
    budget: &Budget,
    reuse: Option<&ReuseCtx>,
) -> Result<GovernedOutcome, CoreError> {
    let outcome = match route(bcdb, pre, dc, opts, budget, reuse)? {
        Ok(outcome) => {
            let verdict = match outcome.witness {
                Some(w) => Verdict::Violated(w),
                None => Verdict::Holds,
            };
            GovernedOutcome {
                verdict,
                stats: outcome.stats,
                degraded_to: None,
                elapsed: budget.elapsed(),
            }
        }
        Err(ex) => degrade(bcdb, pre, dc, opts, budget, ex),
    };
    Ok(outcome)
}

/// Validates, prepares, and dispatches to the selected algorithm. The outer
/// error is a configuration problem (invalid constraint, forced algorithm
/// that does not apply); the inner `Err` is budget exhaustion.
#[allow(clippy::type_complexity)]
fn route(
    bcdb: &mut BlockchainDb,
    pre: &Precomputed,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
    budget: &Budget,
    reuse: Option<&ReuseCtx>,
) -> Result<Result<DcSatOutcome, Exhausted>, CoreError> {
    dc.validate(bcdb.database().catalog())?;
    let pc = PreparedConstraint::prepare(bcdb.database_mut(), dc);
    let mono = monotonicity(dc);
    let connected = match dc {
        DenialConstraint::Conjunctive(q) => is_connected(q),
        DenialConstraint::Aggregate(_) => false, // the paper's notion applies to CQs only
    };

    match opts.algorithm {
        Algorithm::Auto => {
            if let Some(case) = tractable::classify(bcdb, dc) {
                return Ok(tractable::run(bcdb, pre, dc, &pc, case, opts, budget));
            }
            match mono {
                Monotonicity::Monotone => {
                    // Auto picks OptDCSat only when Proposition 2's
                    // decomposition is provably complete for this query
                    // (see `atom_graph_complete`); forcing Algorithm::Opt
                    // trusts the paper's proposition as stated.
                    let prop2_safe = match dc {
                        DenialConstraint::Conjunctive(q) => atom_graph_complete(q),
                        DenialConstraint::Aggregate(_) => false,
                    };
                    if connected && prop2_safe {
                        // Covers info needs &mut for index building — do it
                        // before entering the read-only phase.
                        let covers = {
                            let _span = probes::CORE_PHASE_COVERS_NS.span();
                            opt::CoversInfo::build(bcdb, pc.as_conjunctive().unwrap())
                        };
                        Ok(opt::run(bcdb, pre, &pc, &covers, opts, budget, reuse))
                    } else {
                        Ok(naive::run(bcdb, pre, &pc, opts, budget))
                    }
                }
                Monotonicity::NonMonotone { .. } => Ok(oracle::run(bcdb, pre, &pc, budget)),
            }
        }
        Algorithm::Naive => {
            if let Monotonicity::NonMonotone { reason } = mono {
                return Err(CoreError::NotMonotonic { reason });
            }
            Ok(naive::run(bcdb, pre, &pc, opts, budget))
        }
        Algorithm::Opt => {
            if let Monotonicity::NonMonotone { reason } = mono {
                return Err(CoreError::NotMonotonic { reason });
            }
            let Some(pq) = pc.as_conjunctive() else {
                return Err(CoreError::NotConnected);
            };
            if !connected {
                return Err(CoreError::NotConnected);
            }
            let covers = {
                let _span = probes::CORE_PHASE_COVERS_NS.span();
                opt::CoversInfo::build(bcdb, pq)
            };
            Ok(opt::run(bcdb, pre, &pc, &covers, opts, budget, reuse))
        }
        Algorithm::Tractable => match tractable::classify(bcdb, dc) {
            Some(case) => Ok(tractable::run(bcdb, pre, dc, &pc, case, opts, budget)),
            None => Err(CoreError::NotTractable {
                detail: "no PTIME case of Theorems 1-2 matches this query/constraint combination"
                    .into(),
            }),
        },
        Algorithm::Oracle => Ok(oracle::run(bcdb, pre, &pc, budget)),
    }
}

/// Tuple allowance for each post-exhaustion fallback evaluation. Generous
/// enough for realistic prechecks, small enough that the whole ladder stays
/// within one extra deadline window even without a timeout set.
const GRACE_TUPLES: u64 = 1 << 20;

/// The graceful-degradation ladder, entered after the primary algorithm
/// exhausted its budget. Every rung is *sound*:
///
/// 1. **Base world** — `R` is always a possible world; if the query holds
///    over it, the constraint is definitely [`Verdict::Violated`].
/// 2. **Monotone pre-check** — for a monotone constraint, the query being
///    false over `R ∪ ⋃T` proves it false over every world:
///    [`Verdict::Holds`].
/// 3. **NaiveDCSat retry** — when the *oracle* ran out on a monotone
///    constraint, the far smaller maximal-world search may still fit in a
///    grace budget.
///
/// The rungs share one grace budget whose wall-clock allowance equals the
/// original timeout, so a deadline-bound caller waits at most ~2× the
/// deadline in total. A *cancelled* run skips the ladder entirely —
/// cancellation means stop, not "try harder".
fn degrade(
    bcdb: &mut BlockchainDb,
    pre: &Precomputed,
    dc: &DenialConstraint,
    opts: &DcSatOptions,
    budget: &Budget,
    ex: Exhausted,
) -> GovernedOutcome {
    let mut stats = ex.stats;
    let unknown = |stats: DcSatStats, degraded_to, budget: &Budget| GovernedOutcome {
        verdict: Verdict::Unknown(ex.reason.clone()),
        stats,
        degraded_to,
        elapsed: budget.elapsed(),
    };
    if matches!(ex.reason, ExhaustionReason::Cancelled) {
        return unknown(stats, None, budget);
    }
    let grace = BudgetSpec {
        timeout: opts.budget.timeout,
        max_cliques: Some(1 << 16),
        max_worlds: Some(1 << 16),
        max_tuples: Some(GRACE_TUPLES),
    }
    .start();
    let pc = PreparedConstraint::prepare(bcdb.database_mut(), dc);
    let db = bcdb.database();

    // Rung 1: the base world is always possible.
    probes::GOVERNOR_DEGRADATION_TRANSITIONS.incr();
    probes::GOVERNOR_DEGRADATION_RUNG.fetch_max(1);
    if let Ok(true) = pc.holds_governed(db, &db.base_mask(), &grace) {
        stats.worlds_evaluated += 1;
        return GovernedOutcome {
            verdict: Verdict::Violated(db.base_mask()),
            stats,
            degraded_to: Some("degraded/base-world"),
            elapsed: budget.elapsed() + grace.elapsed(),
        };
    }

    let mono = monotonicity(dc);
    if !mono.is_monotone() {
        return unknown(stats, None, budget);
    }

    // Rung 2: monotone pre-check over R ∪ ⋃T.
    probes::GOVERNOR_DEGRADATION_TRANSITIONS.incr();
    probes::GOVERNOR_DEGRADATION_RUNG.fetch_max(2);
    if let Ok(false) = pc.holds_governed(db, &db.all_mask(), &grace) {
        stats.precheck_short_circuit = true;
        probes::CORE_PRECHECK_SHORT_CIRCUITS.incr();
        return GovernedOutcome {
            verdict: Verdict::Holds,
            stats,
            degraded_to: Some("degraded/monotone-precheck"),
            elapsed: budget.elapsed() + grace.elapsed(),
        };
    }

    // Rung 3: the maximal-world search is exponentially smaller than the
    // oracle's full Poss(D) sweep; worth one bounded retry.
    if stats.algorithm == "oracle" {
        probes::GOVERNOR_DEGRADATION_TRANSITIONS.incr();
        probes::GOVERNOR_DEGRADATION_RUNG.fetch_max(3);
        if let Ok(outcome) = naive::run(bcdb, pre, &pc, opts, &grace) {
            stats.cliques_enumerated += outcome.stats.cliques_enumerated;
            stats.worlds_evaluated += outcome.stats.worlds_evaluated;
            let verdict = match outcome.witness {
                Some(w) => Verdict::Violated(w),
                None => Verdict::Holds,
            };
            return GovernedOutcome {
                verdict,
                stats,
                degraded_to: Some("degraded/naive"),
                elapsed: budget.elapsed() + grace.elapsed(),
            };
        }
    }

    unknown(stats, None, budget)
}
