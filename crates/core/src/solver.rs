//! Session-oriented DCSat solving: one handle, many constraints.
//!
//! The paper's steady-state design (§6.3) builds the precomputed structures
//! — inclusion status, `GfTd`, `Gind` — once per chain snapshot and reuses
//! them across denial constraints. The [`Solver`] is that design as an API:
//! it owns the [`BlockchainDb`], the epoch-tagged [`Precomputed`], a
//! base-verdict cache over `R`, and the check options, and exposes
//!
//! * [`Solver::check`] — one governed constraint check amortizing the
//!   session state, and
//! * [`Solver::check_batch`] — the multi-constraint engine: one shared
//!   governor budget, refined `Gq,ind` partitions computed once per
//!   distinct Θq, and complete per-component clique enumerations cached and
//!   replayed across every constraint whose partition touches the same
//!   component members.
//!
//! # Lifecycle and epoch invalidation
//!
//! The solver tracks the chain through its own mutators:
//! [`add_transaction`](Solver::add_transaction) and
//! [`remove_transaction`](Solver::remove_transaction) update `Precomputed`
//! incrementally and keep the base-verdict cache (the base state `R` did
//! not change). Base-state changes come in two flavours: the **batch
//! delta mutators** ([`promote_transactions`](Solver::promote_transactions),
//! [`append_base_rows`](Solver::append_base_rows),
//! [`remove_base_rows`](Solver::remove_base_rows),
//! [`insert_transaction_at`](Solver::insert_transaction_at)) apply a mined
//! block or reorg step in place — state reuse, no rebuild — dropping the
//! base-verdict cache, with the caller advancing the epoch once per chain
//! event via [`advance_epoch`](Solver::advance_epoch); and
//! [`replace_db`](Solver::replace_db) — the rebuild oracle — reconstructs
//! everything from scratch and advances the epoch itself.
//! Direct mutation through [`db_mut`](Solver::db_mut) marks the session
//! stale, and the next check transparently rebuilds. Batch reuse state
//! (partitions, cliques) never outlives a single `check_batch` call by
//! default, so it needs no invalidation at all.
//!
//! # Shared enumeration cache
//!
//! Attaching a [`SharedEnumCache`] (via
//! [`SolverBuilder::shared_cache`] or [`Solver::set_shared_cache`])
//! replaces the per-call reuse state with a long-lived, `Arc`-shared store:
//! partitions, complete clique enumerations, and definite verdicts then
//! survive across checks, batches, and sibling sessions (e.g. the read
//! forks of a parallel round executor, see
//! [`fork_for_read`](Solver::fork_for_read)). Every mutator above reports
//! its delta to the cache so only the entries the delta actually touched
//! are dropped — the soundness mapping is tabulated in the
//! [`cache`](crate::cache) module docs. All sessions attached to one cache
//! must observe the same logical database state.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::cache::SharedEnumCache;
use crate::db::{BlockchainDb, PendingTransaction};
use crate::dcsat::{
    check_governed, check_ungoverned, Algorithm, DcSatOptions, DcSatOutcome, DcSatStats,
    GovernedOutcome, PreparedConstraint, ReuseCtx, Verdict,
};
use crate::error::CoreError;
use crate::precompute::Precomputed;
use crate::witness::minimize_witness;
use bcdb_governor::{Budget, BudgetSpec, ExhaustionReason};
use bcdb_graph::CliqueStrategy;
use bcdb_query::{DenialConstraint, EqualityConstraint};
use bcdb_storage::{DbSnapshot, RelationId, StorageBackend, Tuple, TxId, WorldMask};
use bcdb_telemetry::probes;

/// Builds a [`Solver`], absorbing [`DcSatOptions`] and the soundness-
/// sensitive knobs that the plain options struct no longer exposes.
#[derive(Debug)]
pub struct SolverBuilder {
    db: BlockchainDb,
    opts: DcSatOptions,
    backend: Option<Box<dyn StorageBackend>>,
    starting_epoch: u64,
    shared_cache: Option<Arc<SharedEnumCache>>,
}

impl SolverBuilder {
    /// Replaces the whole option set (including the budget). Call before
    /// the targeted setters below: it overwrites everything, including the
    /// builder-only hint and fault-injection knobs.
    pub fn options(mut self, opts: DcSatOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Forces an algorithm (default: [`Algorithm::Auto`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.opts.algorithm = algorithm;
        self
    }

    /// Sets the maximal-clique enumeration strategy.
    pub fn clique_strategy(mut self, strategy: CliqueStrategy) -> Self {
        self.opts.clique_strategy = strategy;
        self
    }

    /// Toggles §6.3's monotone pre-check.
    pub fn precheck(mut self, on: bool) -> Self {
        self.opts.use_precheck = on;
        self
    }

    /// Toggles `OptDCSat`'s constant-covers pruning.
    pub fn covers(mut self, on: bool) -> Self {
        self.opts.use_covers = on;
        self
    }

    /// Toggles cross-component parallelism.
    pub fn parallel(mut self, on: bool) -> Self {
        self.opts.parallel = on;
        self
    }

    /// Toggles intra-component Bron–Kerbosch splitting (two-level
    /// scheduler).
    pub fn parallel_intra(mut self, on: bool) -> Self {
        self.opts.parallel_intra = on;
        self
    }

    /// Toggles delta-seeded world evaluation.
    pub fn delta(mut self, on: bool) -> Self {
        self.opts.use_delta = on;
        self
    }

    /// Worker-thread count for the parallel paths (`None` asks the OS).
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Resource limits for every check started by the solver.
    pub fn budget(mut self, budget: BudgetSpec) -> Self {
        self.opts.budget = budget;
        self
    }

    /// Supplies a fixed external verdict of the constraint over the base
    /// world `R` alone, overriding the solver's own epoch-tagged cache.
    ///
    /// **Soundness contract**: the hint must describe the *current* `R`
    /// for **every** constraint this solver will check, and every mutation
    /// of the base state invalidates it. A wrong hint produces wrong
    /// verdicts, not errors. Prefer letting the solver manage hints itself
    /// — this hook exists for callers with a pre-existing external cache
    /// and for tests.
    pub fn base_verdict_hint(mut self, hint: Option<bool>) -> Self {
        self.opts.base_verdict_hint = hint;
        self
    }

    /// Fault injection for robustness tests: any check whose component
    /// contains this pending-transaction index panics mid-enumeration.
    /// Not part of the stable API.
    #[doc(hidden)]
    pub fn fault_inject_panic_tx(mut self, tx: Option<usize>) -> Self {
        self.opts.fault_inject_panic_tx = tx;
        self
    }

    /// Attaches a [`StorageBackend`]: [`Solver::persist_snapshot`] writes
    /// epoch snapshots through it (without a backend the call is a no-op).
    pub fn backend(mut self, backend: Box<dyn StorageBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Attaches a cross-session [`SharedEnumCache`]: partitions, complete
    /// clique enumerations, and definite verdicts are read from and seeded
    /// into the shared store instead of per-call reuse state (see the
    /// module docs for the sharing contract). Without this call the
    /// classic per-batch behaviour is unchanged.
    pub fn shared_cache(mut self, cache: Arc<SharedEnumCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Seeds the session epoch (default 0). Recovery uses this to resume
    /// a session from a persisted snapshot at the epoch it captured, so
    /// replayed epoch-advancing events land on the same epoch numbers a
    /// never-crashed session would have.
    pub fn starting_epoch(mut self, epoch: u64) -> Self {
        self.starting_epoch = epoch;
        self
    }

    /// Builds the solver, constructing the steady-state [`Precomputed`]
    /// structures for the current pending set.
    pub fn build(self) -> Solver {
        let pre = Precomputed::build(&self.db);
        Solver {
            db: self.db,
            pre,
            opts: self.opts,
            epoch: self.starting_epoch,
            stale: false,
            base_cache: HashMap::new(),
            stats: SolverStats::default(),
            backend: self.backend,
            shared: self.shared_cache,
        }
    }
}

/// Session counters, cumulative since [`SolverBuilder::build`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Single-constraint checks issued ([`Solver::check`] and
    /// [`Solver::check_with_budget`]).
    pub checks: u64,
    /// [`Solver::check_batch`] calls.
    pub batches: u64,
    /// Constraints submitted across all batches.
    pub batch_constraints: u64,
    /// Base-world evaluations actually performed for the hint cache.
    pub base_probes: u64,
    /// Hint-cache lookups answered without re-evaluating `R`.
    pub base_cache_hits: u64,
    /// Checks that ran with a base-verdict hint supplied.
    pub base_hints_supplied: u64,
    /// Components whose cliques were enumerated fresh during batches (and,
    /// with a shared cache attached, single checks).
    pub components_enumerated: u64,
    /// Component checks answered by replaying a cached enumeration.
    pub components_reused: u64,
    /// Checks answered outright from the shared cache's generation-checked
    /// definite-verdict memo (always 0 without an attached
    /// [`SharedEnumCache`]).
    pub verdict_memo_hits: u64,
    /// Epoch advances since the session started — full rebuilds
    /// ([`Solver::replace_db`], staleness) plus incremental
    /// [`Solver::advance_epoch`] calls. Each one dropped the base-verdict
    /// cache.
    pub epoch_invalidations: u64,
}

/// The result of one [`Solver::check_batch`] call.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-constraint results, in submission order. A constraint whose
    /// check panicked is reported as [`Verdict::Unknown`] with
    /// [`ExhaustionReason::WorkerPanicked`]; the rest of the batch is
    /// unaffected.
    pub outcomes: Vec<Result<GovernedOutcome, CoreError>>,
    /// Components whose cliques were enumerated fresh in this batch.
    pub components_enumerated: u64,
    /// Component checks answered by replaying a cached enumeration.
    pub components_reused: u64,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl BatchOutcome {
    /// Clique-enumeration work sharing: total component checks divided by
    /// fresh enumerations. `1.0` means no sharing happened (every component
    /// was enumerated exactly once — including the degenerate empty batch);
    /// `N` means each enumeration served `N` constraints on average.
    pub fn clique_reuse_ratio(&self) -> f64 {
        let total = self.components_enumerated + self.components_reused;
        if total == 0 {
            return 1.0;
        }
        total as f64 / self.components_enumerated.max(1) as f64
    }

    /// The verdicts, in submission order; configuration errors surface as
    /// `Err`.
    pub fn verdicts(&self) -> Vec<Result<&Verdict, &CoreError>> {
        self.outcomes
            .iter()
            .map(|r| r.as_ref().map(|o| &o.verdict))
            .collect()
    }
}

/// A DCSat session over one blockchain database (see the module docs).
///
/// The solver **owns** its [`BlockchainDb`]; clone the database first if the
/// caller needs an independent copy, or take it back with
/// [`into_db`](Solver::into_db).
#[derive(Debug)]
pub struct Solver {
    db: BlockchainDb,
    pre: Precomputed,
    opts: DcSatOptions,
    epoch: u64,
    stale: bool,
    /// Verdict of each constraint (keyed by its display form) over the base
    /// world `R` alone. Valid for the current epoch only: cleared on every
    /// rebuild.
    base_cache: HashMap<String, bool>,
    stats: SolverStats,
    /// Destination for epoch snapshots, if persistence is wanted.
    backend: Option<Box<dyn StorageBackend>>,
    /// Cross-session shared enumeration cache, when attached.
    shared: Option<Arc<SharedEnumCache>>,
}

impl Solver {
    /// Starts building a solver session over `db`.
    pub fn builder(db: BlockchainDb) -> SolverBuilder {
        SolverBuilder {
            db,
            opts: DcSatOptions::default(),
            backend: None,
            starting_epoch: 0,
            shared_cache: None,
        }
    }

    /// Checks one constraint under a fresh budget from the session options.
    pub fn check(&mut self, dc: &DenialConstraint) -> Result<GovernedOutcome, CoreError> {
        let budget = self.opts.budget.start();
        self.check_with_budget(dc, &budget)
    }

    /// Checks one constraint drawing from an externally-started [`Budget`]
    /// — the caller keeps a handle and can [`Budget::cancel`] from another
    /// thread (the session's own budget spec is ignored for this call).
    pub fn check_with_budget(
        &mut self,
        dc: &DenialConstraint,
        budget: &Budget,
    ) -> Result<GovernedOutcome, CoreError> {
        self.refresh();
        self.stats.checks += 1;
        let memo = self.memo_key(dc);
        if let Some(outcome) = self.memo_lookup(&memo, budget) {
            return Ok(outcome);
        }
        let opts = self.opts_with_hint(dc);
        let reuse = self
            .shared
            .as_ref()
            .map(|cache| ReuseCtx::with_shared(Arc::clone(cache)));
        let result = check_governed(&mut self.db, &self.pre, dc, &opts, budget, reuse.as_ref());
        if let Some(ctx) = &reuse {
            self.stats.components_reused += ctx.hits();
            self.stats.components_enumerated += ctx.misses();
        }
        if let Ok(outcome) = &result {
            self.memo_store(memo, &outcome.verdict);
        }
        result
    }

    /// Checks one constraint to completion, ignoring the session budget
    /// (the classic ungoverned semantics: a definite outcome or an error).
    pub fn check_ungoverned(&mut self, dc: &DenialConstraint) -> Result<DcSatOutcome, CoreError> {
        self.refresh();
        self.stats.checks += 1;
        let opts = self.opts_with_hint(dc);
        check_ungoverned(&mut self.db, &self.pre, dc, &opts)
    }

    /// Checks a set of constraints against the current snapshot, sharing
    /// one governor budget, the refined `Gq,ind` partitions, and complete
    /// per-component clique enumerations across the whole batch.
    ///
    /// Verdict agreement: every definite verdict equals what a sequential
    /// [`check`](Solver::check) of the same constraint would produce. Under
    /// a tight shared budget, later constraints may come back
    /// [`Verdict::Unknown`] where fresh-budget sequential checks would have
    /// finished — never the reverse flip of a definite answer. A panic
    /// while checking one constraint is contained to that constraint.
    pub fn check_batch(&mut self, dcs: &[DenialConstraint]) -> BatchOutcome {
        self.check_batch_with_budget(dcs, self.opts.budget)
    }

    /// [`check_batch`](Solver::check_batch) under an explicit budget
    /// envelope instead of the session's own spec. This is the serving
    /// layer's entry point: a multi-tenant caller runs each tenant's
    /// constraint set as one batch governed by that tenant's fair-share
    /// envelope, so exhaustion degrades only that batch to
    /// [`Verdict::Unknown`] and never touches another tenant's budget.
    pub fn check_batch_with_budget(
        &mut self,
        dcs: &[DenialConstraint],
        spec: BudgetSpec,
    ) -> BatchOutcome {
        self.refresh();
        self.stats.batches += 1;
        self.stats.batch_constraints += dcs.len() as u64;
        probes::CORE_SOLVER_BATCH_CONSTRAINTS.add(dcs.len() as u64);
        let budget = spec.start();
        let reuse = match &self.shared {
            Some(cache) => ReuseCtx::with_shared(Arc::clone(cache)),
            None => ReuseCtx::new(),
        };
        let mut outcomes = Vec::with_capacity(dcs.len());
        for dc in dcs {
            // Tags the work units scheduled for this constraint so stolen
            // units stay attributable to their batch position.
            reuse.begin_constraint();
            let memo = self.memo_key(dc);
            if let Some(outcome) = self.memo_lookup(&memo, &budget) {
                outcomes.push(Ok(outcome));
                continue;
            }
            let opts = self.opts_with_hint(dc);
            let db = &mut self.db;
            let pre = &self.pre;
            let result = catch_unwind(AssertUnwindSafe(|| {
                check_governed(db, pre, dc, &opts, &budget, Some(&reuse))
            }));
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(payload) => Ok(GovernedOutcome {
                    verdict: Verdict::Unknown(ExhaustionReason::WorkerPanicked {
                        component: 0,
                        message: crate::dcsat::opt::payload_message(payload.as_ref()),
                    }),
                    stats: DcSatStats {
                        algorithm: "solver/panicked",
                        ..DcSatStats::default()
                    },
                    degraded_to: None,
                    elapsed: budget.elapsed(),
                }),
            };
            if let Ok(out) = &outcome {
                self.memo_store(memo, &out.verdict);
            }
            outcomes.push(outcome);
        }
        let (reused, enumerated) = (reuse.hits(), reuse.misses());
        self.stats.components_enumerated += enumerated;
        self.stats.components_reused += reused;
        BatchOutcome {
            outcomes,
            components_enumerated: enumerated,
            components_reused: reused,
            elapsed: budget.elapsed(),
        }
    }

    /// The refined `Gq,ind` partition (sorted component member lists) for
    /// a canonical Θq list, as [`bcdb_query::canonical_equalities`] derives
    /// it. Served through the same reuse path as the checks: with an
    /// attached [`SharedEnumCache`] the partition is read from, or computed
    /// once into, the cache's partition store, so the next check with the
    /// same Θq reuses it.
    pub fn partition(&self, thetas: &[EqualityConstraint]) -> Arc<Vec<Vec<usize>>> {
        let reuse = match &self.shared {
            Some(cache) => ReuseCtx::with_shared(Arc::clone(cache)),
            None => ReuseCtx::new(),
        };
        reuse.partition(&self.db, &self.pre, thetas)
    }

    /// Shrinks a violation witness to an inclusion-minimal possible world
    /// still satisfying the query (see [`minimize_witness`]).
    pub fn minimize(&mut self, dc: &DenialConstraint, witness: &WorldMask) -> WorldMask {
        self.refresh();
        let pc = PreparedConstraint::prepare(self.db.database_mut(), dc);
        minimize_witness(&self.db, &self.pre, &pc, witness)
    }

    /// Adds a pending transaction, updating the steady-state structures
    /// incrementally. The base state is untouched, so the base-verdict
    /// cache stays valid and the epoch does not advance.
    pub fn add_transaction(
        &mut self,
        name: impl Into<String>,
        tuples: impl IntoIterator<Item = (RelationId, Tuple)>,
    ) -> Result<TxId, CoreError> {
        self.refresh();
        let tx = self.db.add_transaction(name, tuples)?;
        self.pre.note_transaction_added(&self.db, tx);
        if let Some(cache) = &self.shared {
            cache.note_pending_appended();
        }
        Ok(tx)
    }

    /// Removes a pending transaction (eviction), updating the steady-state
    /// structures incrementally. Like
    /// [`add_transaction`](Solver::add_transaction), this keeps the epoch
    /// and base cache.
    pub fn remove_transaction(&mut self, tx: TxId) -> PendingTransaction {
        self.refresh();
        let removed = self.db.remove_transaction(tx);
        self.pre.note_transaction_removed(tx);
        if let Some(cache) = &self.shared {
            cache.note_pending_removed(&[tx.index()]);
        }
        removed
    }

    /// Batch eviction: removes several pending transactions in one store
    /// pass, updating the steady-state structures in one batch shrink
    /// (one graph rebuild and one `Gind` reconstruction for all of them).
    /// Keeps the epoch and base cache, like
    /// [`remove_transaction`](Solver::remove_transaction). Returns the
    /// removed transactions in ascending-id order.
    pub fn remove_transactions(&mut self, txs: &[TxId]) -> Vec<PendingTransaction> {
        self.refresh();
        let mut sorted = txs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let removed = self.db.remove_transactions(&sorted);
        self.pre.note_transactions_removed(&sorted);
        if let Some(cache) = &self.shared {
            let idxs: Vec<usize> = sorted.iter().map(|t| t.index()).collect();
            cache.note_pending_removed(&idxs);
        }
        removed
    }

    /// Promotes pending transactions into the current state in place — a
    /// mined block as a batch delta. Their tuples become base rows (in the
    /// order given), survivors renumber down, and the steady-state
    /// structures absorb both deltas without a rebuild. `R` changed, so
    /// the base-verdict cache is dropped; the caller advances the epoch
    /// once per chain event via [`advance_epoch`](Solver::advance_epoch).
    /// Returns the base rows actually added.
    pub fn promote_transactions(
        &mut self,
        txs: &[TxId],
    ) -> Result<Vec<(RelationId, Tuple)>, CoreError> {
        self.refresh();
        let added = self.db.promote_transactions(txs)?;
        let mut sorted = txs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.pre.note_transactions_removed(&sorted);
        let flipped = self.pre.note_base_rows_added(&self.db, &added);
        if let Some(cache) = &self.shared {
            // Removal remap first (survivors renumber down), then the
            // viability flips, which are already in post-removal numbering.
            let idxs: Vec<usize> = sorted.iter().map(|t| t.index()).collect();
            cache.note_pending_removed(&idxs);
            cache.note_base_flips(&flipped);
        }
        self.base_cache.clear();
        Ok(added)
    }

    /// Promotes a single pending transaction; see
    /// [`promote_transactions`](Solver::promote_transactions).
    pub fn promote_transaction(&mut self, tx: TxId) -> Result<Vec<(RelationId, Tuple)>, CoreError> {
        self.promote_transactions(&[tx])
    }

    /// Appends rows to the current state `R` as one batch delta (the
    /// non-promoted part of a mined block, e.g. coinbase rows), updating
    /// the steady-state structures in place and dropping the base-verdict
    /// cache. Returns the rows actually added (existing base duplicates
    /// are skipped).
    pub fn append_base_rows(
        &mut self,
        rows: &[(RelationId, Tuple)],
    ) -> Result<Vec<(RelationId, Tuple)>, CoreError> {
        self.refresh();
        let added = self.db.append_base_rows(rows)?;
        let flipped = self.pre.note_base_rows_added(&self.db, &added);
        if let Some(cache) = &self.shared {
            cache.note_base_flips(&flipped);
        }
        self.base_cache.clear();
        Ok(added)
    }

    /// Retracts previously-appended base rows (reorg undo) as one batch
    /// delta, updating the steady-state structures in place and dropping
    /// the base-verdict cache. Every row must currently be a base row —
    /// pass back exactly what an earlier append reported as added.
    pub fn remove_base_rows(&mut self, rows: &[(RelationId, Tuple)]) -> usize {
        self.refresh();
        let removed = self.db.remove_base_rows(rows);
        let flipped = self.pre.note_base_rows_removed(&self.db, rows);
        if let Some(cache) = &self.shared {
            cache.note_base_flips(&flipped);
        }
        self.base_cache.clear();
        removed
    }

    /// Re-issues a pending transaction at slot `at` (reorg undo putting a
    /// de-mined transaction back at its original position), updating the
    /// steady-state structures incrementally. Pending-only, so the base
    /// cache survives; the surrounding chain event owns the epoch.
    pub fn insert_transaction_at(
        &mut self,
        at: TxId,
        name: impl Into<String>,
        tuples: impl IntoIterator<Item = (RelationId, Tuple)>,
    ) -> Result<(), CoreError> {
        self.refresh();
        self.db.insert_transaction_at(at, name, tuples)?;
        self.pre.note_transaction_inserted(&self.db, at);
        if let Some(cache) = &self.shared {
            cache.note_pending_inserted_at(at.index());
        }
        Ok(())
    }

    /// Advances the session epoch without rebuilding: the incremental
    /// mutators already left the steady-state structures current, so only
    /// the epoch tag and the base-verdict cache move. Callers applying an
    /// epoch-advancing chain event (mined block, reorg) as batch deltas
    /// call this exactly once per event, keeping epoch numbers aligned
    /// with what the [`replace_db`](Solver::replace_db) oracle would
    /// produce.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
        self.stats.epoch_invalidations += 1;
        self.base_cache.clear();
        // The incremental mutators already applied their targeted
        // invalidations; the epoch tick itself only has to kill the
        // verdict memo, which any generation bump does.
        if let Some(cache) = &self.shared {
            cache.note_base_flips(&[]);
        }
    }

    /// Replaces the database wholesale — a mined block, a reorg, any base-
    /// state change. Rebuilds the precomputed structures, advances the
    /// epoch, and drops the base-verdict cache. This is the oracle path
    /// the batch delta mutators are checked against.
    pub fn replace_db(&mut self, db: BlockchainDb) {
        self.db = db;
        self.rebuild();
    }

    /// Read access to the underlying database.
    pub fn db(&self) -> &BlockchainDb {
        &self.db
    }

    /// Mutable access to the underlying database. Marks the session stale:
    /// the next check rebuilds the precomputed structures and advances the
    /// epoch (the solver cannot see *what* changed, so it assumes the base
    /// state did).
    pub fn db_mut(&mut self) -> &mut BlockchainDb {
        self.stale = true;
        &mut self.db
    }

    /// Consumes the session, returning the database.
    pub fn into_db(self) -> BlockchainDb {
        self.db
    }

    /// The steady-state structures for the current snapshot (rebuilding
    /// first if the session is stale).
    pub fn precomputed(&mut self) -> &Precomputed {
        self.refresh();
        &self.pre
    }

    /// The steady-state structures as of the last rebuild, without the
    /// staleness check. The session mutators keep them current; only
    /// [`db_mut`](Solver::db_mut) can leave them stale until the next
    /// check or [`refresh`](Solver::refresh).
    pub fn precomputed_ref(&self) -> &Precomputed {
        &self.pre
    }

    /// The session's invalidation epoch: how many times the precomputed
    /// structures were rebuilt from scratch (plus the builder's
    /// [`starting_epoch`](SolverBuilder::starting_epoch)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Attaches (or replaces) the storage backend after construction.
    pub fn attach_backend(&mut self, backend: Box<dyn StorageBackend>) {
        self.backend = Some(backend);
    }

    /// The attached backend's kind tag, if one is attached.
    pub fn backend_kind(&self) -> Option<&'static str> {
        self.backend.as_deref().map(|b| b.kind())
    }

    /// Captures the session's full state as a [`DbSnapshot`] tagged with
    /// the current epoch.
    pub fn snapshot(&self) -> DbSnapshot {
        self.db.to_db_snapshot(self.epoch)
    }

    /// Persists the current state through the attached backend; returns
    /// the new snapshot id, or `None` if no backend is attached. The
    /// snapshot is fully durable before the id is returned, so callers
    /// can safely journal a boundary record naming it.
    pub fn persist_snapshot(&mut self) -> Result<Option<String>, CoreError> {
        let Some(backend) = self.backend.as_deref_mut() else {
            return Ok(None);
        };
        let snap = self.db.to_db_snapshot(self.epoch);
        Ok(Some(backend.persist_snapshot(&snap)?))
    }

    /// The session's current options.
    pub fn options(&self) -> &DcSatOptions {
        &self.opts
    }

    /// Replaces the session options (budget included). The builder-only
    /// hint and fault-injection knobs come along with the new options —
    /// values constructed outside the core crate always carry the safe
    /// defaults.
    pub fn set_options(&mut self, opts: DcSatOptions) {
        self.opts = opts;
    }

    /// Cumulative session counters.
    pub fn session_stats(&self) -> SolverStats {
        self.stats
    }

    /// Forces a rebuild now if the session is stale (normally implicit in
    /// every check).
    pub fn refresh(&mut self) {
        if self.stale {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        self.pre = Precomputed::build(&self.db);
        self.epoch += 1;
        self.stats.epoch_invalidations += 1;
        self.base_cache.clear();
        self.stale = false;
        // A rebuild means the session cannot name what changed — the only
        // sound shared-cache action is a full flush.
        if let Some(cache) = &self.shared {
            cache.invalidate_all();
        }
    }

    /// The shared cache attached to this session, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedEnumCache>> {
        self.shared.as_ref()
    }

    /// Attaches (or detaches) a cross-session shared cache after
    /// construction. See [`SolverBuilder::shared_cache`] for the sharing
    /// contract; attaching a cache that older sessions seeded against a
    /// *different* database state is unsound — when in doubt, attach a
    /// fresh cache or call [`SharedEnumCache::invalidate_all`] first.
    pub fn set_shared_cache(&mut self, cache: Option<Arc<SharedEnumCache>>) {
        self.shared = cache;
    }

    /// A read-only fork for parallel round executors: an independent
    /// session over a clone of the database and precomputed structures,
    /// sharing the attached [`SharedEnumCache`] (if any) with its parent.
    /// The fork carries no storage backend and starts with zeroed session
    /// counters, so the caller can absorb its per-round stat deltas back
    /// into the parent with [`absorb_fork_stats`](Solver::absorb_fork_stats).
    ///
    /// Checks are logically read-only (their `&mut` is lazy index
    /// building), so a fork's verdicts equal the parent's for the same
    /// constraints — the basis of the deterministic parallel round
    /// executor in `bcdb-server`.
    pub fn fork_for_read(&mut self) -> Solver {
        self.refresh();
        Solver {
            db: self.db.clone(),
            pre: self.pre.clone(),
            opts: self.opts.clone(),
            epoch: self.epoch,
            stale: false,
            base_cache: self.base_cache.clone(),
            stats: SolverStats::default(),
            backend: None,
            shared: self.shared.clone(),
        }
    }

    /// Adds a fork's session counters into this session's, so work done on
    /// [`fork_for_read`](Solver::fork_for_read) forks stays visible in the
    /// parent's [`session_stats`](Solver::session_stats).
    pub fn absorb_fork_stats(&mut self, delta: &SolverStats) {
        self.stats.checks += delta.checks;
        self.stats.batches += delta.batches;
        self.stats.batch_constraints += delta.batch_constraints;
        self.stats.base_probes += delta.base_probes;
        self.stats.base_cache_hits += delta.base_cache_hits;
        self.stats.base_hints_supplied += delta.base_hints_supplied;
        self.stats.components_enumerated += delta.components_enumerated;
        self.stats.components_reused += delta.components_reused;
        self.stats.verdict_memo_hits += delta.verdict_memo_hits;
        self.stats.epoch_invalidations += delta.epoch_invalidations;
    }

    /// The shared-memo coordinates for `dc`: its canonical shape (alpha-
    /// renamed duplicates across tenants share one key) and the cache
    /// generation observed *before* the check runs (so a concurrent
    /// mutation between lookup and store can never stamp a stale proof).
    /// `None` without an attached cache.
    fn memo_key(&self, dc: &DenialConstraint) -> Option<(String, u64)> {
        let cache = self.shared.as_ref()?;
        Some((
            dc.canonical_shape(self.db.database().catalog()),
            cache.generation(),
        ))
    }

    /// Serves a memoized definite verdict for the memo coordinates, if the
    /// shared cache holds one proven under the same generation.
    fn memo_lookup(
        &mut self,
        memo: &Option<(String, u64)>,
        budget: &Budget,
    ) -> Option<GovernedOutcome> {
        let (key, gen) = memo.as_ref()?;
        let verdict = self.shared.as_ref()?.lookup_verdict(key, *gen)?;
        self.stats.verdict_memo_hits += 1;
        probes::CORE_SOLVER_VERDICT_MEMO.incr();
        Some(GovernedOutcome {
            verdict,
            stats: DcSatStats {
                algorithm: "solver/memo",
                ..DcSatStats::default()
            },
            degraded_to: None,
            elapsed: budget.elapsed(),
        })
    }

    /// Publishes a freshly-proven verdict under the pre-check generation;
    /// `Unknown` verdicts and stale generations are dropped by the cache.
    fn memo_store(&self, memo: Option<(String, u64)>, verdict: &Verdict) {
        if let (Some(cache), Some((key, gen))) = (&self.shared, memo) {
            cache.store_verdict(key, gen, verdict);
        }
    }

    /// The session options with a base-verdict hint filled in from the
    /// epoch-tagged cache (conjunctive constraints only — the aggregate
    /// paths never consult the hint). A builder-supplied hint wins.
    fn opts_with_hint(&mut self, dc: &DenialConstraint) -> DcSatOptions {
        let mut opts = self.opts.clone();
        if opts.base_verdict_hint.is_none() {
            opts.base_verdict_hint = self.base_hint(dc);
        } else {
            self.stats.base_hints_supplied += 1;
        }
        opts
    }

    /// The constraint's verdict over the base world `R` alone, from the
    /// epoch-tagged cache, evaluating (under the session budget) at most
    /// once per constraint per epoch. `None` when the constraint is not
    /// conjunctive or the probe itself ran out of budget or panicked.
    fn base_hint(&mut self, dc: &DenialConstraint) -> Option<bool> {
        if !matches!(dc, DenialConstraint::Conjunctive(_)) {
            return None;
        }
        let key = dc.display(self.db.database().catalog()).to_string();
        if let Some(&verdict) = self.base_cache.get(&key) {
            self.stats.base_cache_hits += 1;
            self.stats.base_hints_supplied += 1;
            return Some(verdict);
        }
        let pc = PreparedConstraint::prepare(self.db.database_mut(), dc);
        let budget = self.opts.budget.start();
        let db = self.db.database();
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            pc.holds_governed(db, &db.base_mask(), &budget)
        }))
        .ok()?
        .ok()?;
        self.stats.base_probes += 1;
        self.stats.base_hints_supplied += 1;
        self.base_cache.insert(key, verdict);
        Some(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcdb_storage::{tuple, Catalog, ConstraintSet, Fd, Ind, RelationSchema, ValueType};

    fn setup() -> BlockchainDb {
        let mut cat = Catalog::new();
        cat.add(RelationSchema::new("R", [("a", ValueType::Int), ("b", ValueType::Int)]).unwrap())
            .unwrap();
        cat.add(RelationSchema::new("S", [("x", ValueType::Int)]).unwrap())
            .unwrap();
        let mut cs = ConstraintSet::new();
        cs.add_fd(Fd::named_key(&cat, "R", &["a"]).unwrap());
        cs.add_ind(Ind::named(&cat, "S", &["x"], "R", &["a"]).unwrap());
        BlockchainDb::new(cat, cs)
    }

    /// A mined block applied as batch deltas leaves the solver with the
    /// same database, precomputed judgements, and epoch as the
    /// `replace_db` rebuild oracle.
    #[test]
    fn delta_mined_block_matches_replace_db_oracle() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        bc.insert_current(r, tuple![1i64, 10i64]).unwrap();
        bc.add_transaction("T0", [(r, tuple![5i64, 50i64])]).unwrap();
        bc.add_transaction("T1", [(s, tuple![5i64])]).unwrap();
        bc.add_transaction("T2", [(r, tuple![5i64, 99i64])]).unwrap();

        let mut incr = Solver::builder(bc.clone()).build();
        let mut oracle = Solver::builder(bc.clone()).build();

        // Mine T0: incremental promote + epoch advance vs. full rebuild of
        // the equivalent accepted database.
        incr.promote_transactions(&[TxId(0)]).unwrap();
        incr.advance_epoch();
        let (next, _) = bc.accept_transactions(&[TxId(0)]).unwrap();
        oracle.replace_db(next);

        assert_eq!(incr.epoch(), oracle.epoch());
        assert_eq!(
            incr.precomputed_ref().viable,
            oracle.precomputed_ref().viable
        );
        assert_eq!(
            incr.precomputed_ref().includable,
            oracle.precomputed_ref().includable
        );
        assert_eq!(incr.db().pending_count(), oracle.db().pending_count());
        for (rel, _) in incr.db().database().catalog().iter() {
            let a: Vec<_> = incr.db().database().relation(rel).scan_all().collect();
            let b: Vec<_> = oracle.db().database().relation(rel).scan_all().collect();
            assert_eq!(a.len(), b.len());
            for ((_, x), (_, y)) in a.iter().zip(&b) {
                assert_eq!(x.tuple, y.tuple);
                assert_eq!(x.source, y.source);
            }
        }
    }

    /// Undoing a mined block with the retraction mutators restores the
    /// pre-block state exactly.
    #[test]
    fn delta_undo_restores_pre_block_state() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        bc.insert_current(r, tuple![1i64, 10i64]).unwrap();
        bc.add_transaction("T0", [(r, tuple![5i64, 50i64])]).unwrap();
        bc.add_transaction("T1", [(s, tuple![5i64])]).unwrap();

        let mut solver = Solver::builder(bc).build();
        let before_viable = solver.precomputed_ref().viable.clone();
        let before_incl = solver.precomputed_ref().includable.clone();
        let mined = solver.db().transaction(TxId(0)).clone();
        let added = solver.promote_transactions(&[TxId(0)]).unwrap();
        solver.advance_epoch();

        // Reorg the block out: retract its rows, re-issue the transaction
        // at its original slot.
        solver.remove_base_rows(&added);
        solver
            .insert_transaction_at(TxId(0), mined.name.clone(), mined.tuples.clone())
            .unwrap();
        solver.advance_epoch();

        assert_eq!(solver.precomputed_ref().viable, before_viable);
        assert_eq!(solver.precomputed_ref().includable, before_incl);
        assert_eq!(solver.db().transaction(TxId(0)).name, "T0");
        assert_eq!(solver.epoch(), 2);
    }
}
