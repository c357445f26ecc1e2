//! The long-running monitor session.
//!
//! A [`MonitorSession`] holds a [`Solver`] session over a
//! [`BlockchainDb`] and keeps it true under a stream of [`ChainEvent`]s:
//!
//! * **Intra-epoch** events (arrival, eviction) are applied
//!   *incrementally* — [`Solver::add_transaction`] /
//!   [`Solver::remove_transaction`] — never rebuilding from scratch.
//! * **Epoch-advancing** events (mined block, reorg) mutate the base
//!   state `R`. Under the default [`EpochApply::Incremental`] policy the
//!   session treats the event as a batch of deltas — base rows appended
//!   or retracted, pending transactions removed or re-issued — applied
//!   in place through the solver's batch mutators, then advances the
//!   epoch once via [`Solver::advance_epoch`]. Each applied event leaves
//!   an inverse delta ([`UndoRecord`]) on the session's undo stack and
//!   in the journal (`U` records), so a depth-`d` reorg can pop and
//!   replay `d` undos instead of rebuilding. [`EpochApply::Rebuild`]
//!   keeps the old full-rebuild path ([`Solver::replace_db`]) as an
//!   oracle, and [`EpochApply::IncrementalVerified`] runs both and
//!   counts divergences.
//!
//! The monitor *watches* its registered constraints: each event marks
//! dirty only the constraints whose verdict may actually have changed,
//! so [`recheck_dirty`](MonitorSession::recheck_dirty) skips the rest.
//! The dirty rules are conservative and rest on two facts: possible
//! worlds are *consistent subsets* of the pending set (arrival only adds
//! worlds, eviction only removes them), and a constraint's matches can
//! only involve interactions inside the delta transaction's refined
//! `Gq,ind` component. Concretely:
//!
//! * **Arrival**: a cached definite verdict stays clean unless the new
//!   transaction's component contains a transaction writing a relation
//!   the constraint mentions.
//! * **Eviction**: `Holds` stays clean (worlds only disappear); a cached
//!   violation's witness may have vanished, so `Violated` goes dirty.
//! * **Mined / reorg**: the base state changed — everything goes dirty.
//!
//! Re-checks never take the monitor down: a panicking check is caught
//! and reported as [`Verdict::Unknown`], and transient exhaustion
//! (deadline, cancellation, lost worker) is retried under the session's
//! [`RetryPolicy`].

use crate::event::{ChainEvent, NamedPending, NamedTuples, UndoOp, UndoRecord};
use crate::journal::{Journal, JournalRecord};
use bcdb_core::{
    BlockchainDb, CoreError, DcSatOptions, DcSatStats, GovernedOutcome, Precomputed,
    SharedEnumCache, Solver, SolverStats, Verdict,
};
use bcdb_governor::{BudgetSpec, ExhaustionReason, RetryPolicy};
use bcdb_graph::StealScheduler;
use bcdb_query::{canonical_equalities, DenialConstraint, EqualityConstraint};
use bcdb_storage::{Catalog, ConstraintSet, RelationId, StorageBackend, Tuple, TxId};
use bcdb_telemetry::probes;
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What went wrong while applying an event or journaling it.
#[derive(Debug)]
pub enum MonitorError {
    /// An event referenced a relation name absent from the catalog.
    UnknownRelation(String),
    /// An eviction named a transaction that is not pending.
    UnknownTransaction(String),
    /// A delta-form reorg asked for more undo depth than the session
    /// holds journaled inverse deltas for.
    UndoUnavailable {
        /// The requested reorg depth.
        depth: u64,
        /// How many undo records the session holds.
        available: usize,
    },
    /// The underlying database rejected the change.
    Core(CoreError),
    /// The journal could not be written or read.
    Io(std::io::Error),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::UnknownRelation(n) => write!(f, "unknown relation {n:?}"),
            MonitorError::UnknownTransaction(n) => write!(f, "unknown transaction {n:?}"),
            MonitorError::UndoUnavailable { depth, available } => write!(
                f,
                "reorg depth {depth} exceeds the {available} journaled undo record(s)"
            ),
            MonitorError::Core(e) => write!(f, "core error: {e}"),
            MonitorError::Io(e) => write!(f, "journal i/o error: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<CoreError> for MonitorError {
    fn from(e: CoreError) -> Self {
        MonitorError::Core(e)
    }
}

impl From<std::io::Error> for MonitorError {
    fn from(e: std::io::Error) -> Self {
        MonitorError::Io(e)
    }
}

impl From<bcdb_storage::StorageError> for MonitorError {
    fn from(e: bcdb_storage::StorageError) -> Self {
        MonitorError::Core(e.into())
    }
}

impl MonitorError {
    /// Whether this error is a crash injected by the crash-point harness
    /// (see [`bcdb_storage::CrashController`]). A session that hits one
    /// is "dead": discard it and run [`MonitorSession::recover`].
    pub fn is_injected_crash(&self) -> bool {
        match self {
            MonitorError::Io(e) => bcdb_storage::is_injected_crash(e),
            MonitorError::Core(CoreError::Storage(e)) => e.is_injected_crash(),
            _ => false,
        }
    }
}

/// How the session applies epoch-advancing events (mined blocks and
/// reorgs) to its solver state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EpochApply {
    /// Treat the event as a batch of deltas applied in place, advancing
    /// the epoch without rebuilding. The default.
    #[default]
    Incremental,
    /// Rebuild the solver state from the event's full snapshot via
    /// [`Solver::replace_db`] — the oracle the incremental path is
    /// checked against. Delta-form events carry no snapshot and are
    /// applied incrementally regardless.
    Rebuild,
    /// Apply incrementally, then also run the snapshot rebuild as a
    /// shadow oracle and compare: a mismatch increments
    /// [`MonitorStats::apply_divergences`] (the incremental state is
    /// kept). Measures both `block_apply_ns` and `block_rebuild_ns` in
    /// one run.
    IncrementalVerified,
}

/// Tunables for a session's re-checks.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// DCSat options used for every check (the solver supplies its own
    /// epoch-tagged base-verdict hint per check).
    pub opts: DcSatOptions,
    /// Budget for each individual check attempt (and for the base-verdict
    /// probe that fills the cache).
    pub budget: BudgetSpec,
    /// Retry schedule for *transient* failures: deadline exhaustion,
    /// cancellation, and lost or panicked workers. Deterministic limits
    /// (clique/world/tuple) are never retried — the same budget would die
    /// the same way.
    pub retry: RetryPolicy,
    /// Persist an epoch snapshot (and journal its boundary) every N
    /// epoch-advancing events, when a storage backend is attached.
    /// 1 = every advance (the default); 0 = never snapshot.
    pub snapshot_every: u64,
    /// How epoch-advancing events reach the solver state (see
    /// [`EpochApply`]).
    pub epoch_apply: EpochApply,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            opts: DcSatOptions::default(),
            budget: BudgetSpec::UNLIMITED,
            retry: RetryPolicy::NONE,
            snapshot_every: 1,
            epoch_apply: EpochApply::Incremental,
        }
    }
}

/// Counters describing a session's life so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events applied, of any kind.
    pub events_applied: u64,
    /// Intra-epoch events applied incrementally.
    pub incremental_applies: u64,
    /// Epoch-advancing events applied as in-place batch deltas.
    pub applies: u64,
    /// Epoch-advancing events that rebuilt the solver state from a full
    /// snapshot — the [`EpochApply::Rebuild`] oracle path plus any
    /// incremental-path fallbacks. *Not* incremented by incremental
    /// applies.
    pub rebuilds: u64,
    /// Incremental epoch applies that bailed out to a snapshot rebuild
    /// (e.g. a mined event whose base was not append-only). Each one also
    /// counts in `rebuilds`.
    pub apply_fallbacks: u64,
    /// Verified-mode epoch applies whose incremental state differed from
    /// the shadow rebuild oracle. Should be zero, always.
    pub apply_divergences: u64,
    /// Verified-mode shadow oracle builds (each timed into
    /// `block_rebuild_ns` without counting as a `rebuilds` state change).
    pub shadow_builds: u64,
    /// Wall nanoseconds spent applying epoch-advancing events as batch
    /// deltas.
    pub block_apply_ns: u64,
    /// Wall nanoseconds spent rebuilding epoch state from snapshots
    /// (oracle path, fallbacks, and verified-mode shadow rebuilds).
    pub block_rebuild_ns: u64,
    /// The subset of `applies` that were wire deltas
    /// ([`ChainEvent::TxMinedDelta`]/[`ChainEvent::ReorgDelta`]) — O(block)
    /// work, no snapshot resolution or reconcile planning.
    pub delta_applies: u64,
    /// Wall nanoseconds spent in those delta applies (also included in
    /// `block_apply_ns`).
    pub delta_apply_ns: u64,
    /// Individual constraint re-checks performed.
    pub rechecks: u64,
    /// Retry attempts beyond each check's first try.
    pub retries: u64,
    /// Checks whose panic was contained into `Verdict::Unknown`.
    pub panics_contained: u64,
    /// Checks that ran with a cached base verdict supplied as a hint.
    pub base_hints_supplied: u64,
    /// Base-verdict probes that filled the cache.
    pub base_probes: u64,
    /// Final verdicts that were `Unknown` after retries.
    pub unknown_verdicts: u64,
    /// Constraints left alone by [`MonitorSession::recheck_dirty`]
    /// because no event since their last check could have changed their
    /// verdict.
    pub rechecks_skipped: u64,
    /// Epoch snapshots persisted to the attached storage backend.
    pub snapshots_persisted: u64,
}

/// What unified recovery ([`MonitorSession::recover`]) found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot the session was seeded from, if any loaded.
    pub snapshot_loaded: Option<String>,
    /// Epoch captured by the loaded snapshot (0 on full replay).
    pub snapshot_epoch: u64,
    /// Snapshot boundaries whose snapshot failed to load (corrupt,
    /// missing, or torn by a crash) and were skipped.
    pub snapshots_rejected: u64,
    /// Records in the journal's valid prefix.
    pub total_records: usize,
    /// Event (`E`) records in the valid prefix — how many events the
    /// crashed session had durably applied.
    pub total_events: usize,
    /// Records replayed after the snapshot boundary: the WAL tail. This —
    /// not `total_records` and not the dataset size — bounds recovery work
    /// beyond the single snapshot load.
    pub wal_tail_records: usize,
    /// Bytes the journal scan discarded from a torn/corrupt tail.
    pub dropped_bytes: u64,
    /// Lines the journal scan discarded.
    pub dropped_lines: usize,
    /// Wall time of the whole recovery: scan + snapshot load + replay.
    pub recovery_ns: u64,
}

/// Outcome of re-checking one registered constraint.
#[derive(Clone, Debug)]
pub struct ConstraintVerdict {
    /// The label given at registration.
    pub name: String,
    /// The (possibly indefinite) answer.
    pub verdict: Verdict,
    /// Degraded-mode algorithm that produced the answer, if any.
    pub degraded_to: Option<&'static str>,
    /// Attempts made (1 = no retries needed).
    pub attempts: u32,
    /// Whether an epoch-valid cached base verdict was supplied.
    pub base_hint_used: bool,
}

/// One scheduled check of a batched round (see
/// [`recheck_round`](MonitorSession::recheck_round)): which slot to
/// re-check and under whose envelope. The serving layer builds one of
/// these per due subscription after its fair-share scheduling pass.
#[derive(Clone, Copy, Debug)]
pub struct RoundCheck {
    /// Registration slot of the constraint to re-check.
    pub slot: usize,
    /// Per-attempt budget for this check (the tenant's envelope).
    pub budget: BudgetSpec,
    /// Retry schedule for transient exhaustion.
    pub retry: RetryPolicy,
}

/// Outcome of one [`RoundCheck`], with the cost and cache attribution
/// the serving layer needs to reconcile its fair-share clocks and
/// per-tenant counters after the round.
#[derive(Clone, Debug)]
pub struct RoundResult {
    /// The slot this result answers (mirrors the input check).
    pub slot: usize,
    /// The per-constraint outcome, as [`recheck`](MonitorSession::recheck)
    /// would have reported it.
    pub verdict: ConstraintVerdict,
    /// Wall-clock cost of the check (all attempts), in nanoseconds.
    pub cost_ns: u64,
    /// Enumerations this check answered from cache: component replays
    /// plus generation-checked verdict-memo hits.
    pub cache_hits: u64,
    /// Components this check had to enumerate fresh.
    pub cache_misses: u64,
}

/// A registered denial constraint under watch.
struct Registered {
    name: String,
    dc: DenialConstraint,
    /// Relations the constraint mentions (positive and negated atoms of
    /// its body) — the footprint used by the arrival dirty rule.
    relations: Vec<RelationId>,
    /// Θq in canonical order: the key of the refined `Gq,ind` partition
    /// the arrival dirty rule consults, shared by every constraint that
    /// refines `Gind` the same way.
    thetas: Vec<EqualityConstraint>,
    /// The verdict from the last re-check, if any.
    last: Option<Verdict>,
    /// Whether an event since the last re-check may have changed the
    /// verdict. Freshly registered constraints start dirty.
    dirty: bool,
    /// Unregistered slots stay in place (indices handed out by
    /// [`MonitorSession::register`] must remain stable) but are skipped
    /// by every dirty walk and re-check sweep, and reused by the next
    /// registration.
    retired: bool,
}

/// Base rows resolved against the live catalog.
type ResolvedRows = Vec<(RelationId, Tuple)>;

/// A monitor over one evolving blockchain database. See the module docs.
pub struct MonitorSession {
    solver: Solver,
    constraints: Vec<Registered>,
    journal: Option<Journal>,
    config: MonitorConfig,
    stats: MonitorStats,
    /// Epoch advances since the last persisted snapshot (see
    /// [`MonitorConfig::snapshot_every`]).
    advances_since_snapshot: u64,
    /// Inverse deltas of incrementally-applied epoch events, newest last.
    /// A depth-`d` reorg pops and replays the top `d`; recovery reseeds
    /// the stack from the journal's `U` records.
    undo_stack: Vec<UndoRecord>,
}

impl MonitorSession {
    fn with_solver(solver: Solver) -> MonitorSession {
        MonitorSession {
            solver,
            constraints: Vec::new(),
            journal: None,
            config: MonitorConfig::default(),
            stats: MonitorStats::default(),
            advances_since_snapshot: 0,
            undo_stack: Vec::new(),
        }
    }

    /// A session over an empty database with the given schema.
    pub fn new(catalog: Catalog, constraints: ConstraintSet) -> MonitorSession {
        let bcdb = BlockchainDb::new(catalog, constraints);
        MonitorSession::with_solver(Solver::builder(bcdb).build())
    }

    /// Rebuilds a session by replaying journal `records` (e.g. from
    /// [`Journal::recover`](crate::Journal)). No journaling happens
    /// during the replay; attach the recovered journal afterwards with
    /// [`attach_journal`](MonitorSession::attach_journal).
    pub fn replay(
        catalog: Catalog,
        constraints: ConstraintSet,
        records: &[JournalRecord],
    ) -> Result<MonitorSession, MonitorError> {
        MonitorSession::replay_with(catalog, constraints, records, MonitorConfig::default())
    }

    /// [`replay`](MonitorSession::replay) under an explicit config, so
    /// the replayed events run the same [`EpochApply`] policy (and
    /// budget) the crashed session did.
    pub fn replay_with(
        catalog: Catalog,
        constraints: ConstraintSet,
        records: &[JournalRecord],
        config: MonitorConfig,
    ) -> Result<MonitorSession, MonitorError> {
        let mut s = MonitorSession::new(catalog, constraints);
        s.set_config(config);
        for rec in records {
            if let Some(ev) = rec.event() {
                s.apply(ev)?;
            }
        }
        Ok(s)
    }

    /// Unified crash recovery: scans the journal at `journal_path`
    /// (truncating any torn tail), walks its snapshot boundaries newest
    /// first, seeds the session from the first snapshot `backend` can
    /// still load, and replays only the records after that boundary — the
    /// WAL tail. If no boundary survives (or none loads), falls back to a
    /// full replay from the journal alone. The recovered journal and the
    /// backend are attached to the returned session, so it resumes
    /// journaling and snapshotting where the crashed one stopped.
    pub fn recover(
        catalog: Catalog,
        constraints: ConstraintSet,
        journal_path: impl Into<std::path::PathBuf>,
        backend: Box<dyn StorageBackend>,
    ) -> Result<(MonitorSession, RecoveryReport), MonitorError> {
        let t0 = Instant::now();
        let recovery = Journal::recover(journal_path)?;
        let boundaries: Vec<(usize, String)> = recovery
            .snapshot_boundaries()
            .map(|(i, id)| (i, id.to_string()))
            .collect();
        let mut snapshots_rejected = 0u64;
        let mut seed = None;
        for (idx, id) in boundaries.into_iter().rev() {
            match backend.load_snapshot(&id) {
                Ok(snap) => {
                    seed = Some((idx, id, snap));
                    break;
                }
                Err(_) => snapshots_rejected += 1,
            }
        }
        let (mut session, tail_start, snapshot_loaded, snapshot_epoch) = match seed {
            Some((idx, id, snap)) => {
                let epoch = snap.epoch;
                let bcdb = BlockchainDb::from_db_snapshot(catalog, constraints, &snap)?;
                let solver = Solver::builder(bcdb).starting_epoch(epoch).build();
                (MonitorSession::with_solver(solver), idx + 1, Some(id), epoch)
            }
            None => (MonitorSession::new(catalog, constraints), 0, None, 0),
        };
        // Seed the reorg undo stack from the `U` records before the tail:
        // the tail's events regenerate their own undos during replay, but
        // the pre-snapshot inverse deltas exist only in the journal.
        for rec in &recovery.records[..tail_start] {
            if let Some(undo) = rec.undo() {
                session.undo_stack.push(undo.clone());
            }
        }
        let mut wal_tail_records = 0usize;
        for rec in &recovery.records[tail_start..] {
            wal_tail_records += 1;
            if let Some(ev) = rec.event() {
                session.apply(ev)?;
            }
        }
        let report = RecoveryReport {
            snapshot_loaded,
            snapshot_epoch,
            snapshots_rejected,
            total_records: recovery.records.len(),
            total_events: recovery.records.iter().filter(|r| r.event().is_some()).count(),
            wal_tail_records,
            dropped_bytes: recovery.dropped_bytes,
            dropped_lines: recovery.dropped_lines,
            recovery_ns: t0.elapsed().as_nanos() as u64,
        };
        probes::STORAGE_RECOVERY_NS.record(report.recovery_ns);
        probes::STORAGE_WAL_TAIL_RECORDS.set(report.wal_tail_records as u64);
        session.attach_journal(recovery.journal);
        session.attach_backend(backend);
        Ok((session, report))
    }

    /// Journals every subsequent event to `journal` (write-ahead: the
    /// record is durable before the state changes).
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// Persists epoch snapshots through `backend` on epoch-advancing
    /// events (per [`MonitorConfig::snapshot_every`]), journaling each
    /// snapshot boundary after the snapshot is durable.
    pub fn attach_backend(&mut self, backend: Box<dyn StorageBackend>) {
        self.solver.attach_backend(backend);
    }

    /// The attached storage backend's kind, if any.
    pub fn backend_kind(&self) -> Option<&'static str> {
        self.solver.backend_kind()
    }

    /// Replaces the re-check configuration and syncs it into the solver
    /// session (the per-check budget doubles as the solver's base-probe
    /// budget).
    pub fn set_config(&mut self, config: MonitorConfig) {
        let mut opts = config.opts.clone();
        opts.budget = config.budget;
        self.solver.set_options(opts);
        self.config = config;
    }

    /// Registers a denial constraint for re-checking; returns its index.
    /// New constraints start dirty — they have never been checked. A slot
    /// freed by [`unregister`](MonitorSession::unregister) is reused, so
    /// long-running subscription churn does not grow the table.
    pub fn register(&mut self, name: impl Into<String>, dc: DenialConstraint) -> usize {
        let mut relations: Vec<RelationId> = dc
            .body()
            .positive
            .iter()
            .chain(dc.body().negated.iter())
            .map(|a| a.relation)
            .collect();
        relations.sort();
        relations.dedup();
        let thetas = canonical_equalities(dc.body());
        let slot = Registered {
            name: name.into(),
            dc,
            relations,
            thetas,
            last: None,
            dirty: true,
            retired: false,
        };
        if let Some(idx) = self.constraints.iter().position(|c| c.retired) {
            self.constraints[idx] = slot;
            idx
        } else {
            self.constraints.push(slot);
            self.constraints.len() - 1
        }
    }

    /// Retires a registered constraint. Its index is excluded from every
    /// subsequent sweep and will be handed out again by the next
    /// [`register`](MonitorSession::register).
    pub fn unregister(&mut self, idx: usize) {
        let c = &mut self.constraints[idx];
        c.retired = true;
        c.dirty = false;
        c.last = None;
    }

    /// The current epoch (bumped by every mined block or reorg).
    pub fn epoch(&self) -> u64 {
        self.solver.epoch()
    }

    /// How many journaled inverse deltas the session holds — the maximum
    /// depth a delta-form reorg can rewind right now.
    pub fn undo_depth(&self) -> usize {
        self.undo_stack.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// The underlying solver session's counters.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.session_stats()
    }

    /// The monitored database.
    pub fn bcdb(&self) -> &BlockchainDb {
        self.solver.db()
    }

    /// The incrementally maintained steady state.
    pub fn precomputed(&self) -> &Precomputed {
        self.solver.precomputed_ref()
    }

    /// Names of the pending transactions, in issue order.
    pub fn pending_names(&self) -> Vec<&str> {
        self.solver
            .db()
            .pending()
            .iter()
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Indices of the constraints currently marked dirty.
    pub fn dirty_indices(&self) -> Vec<usize> {
        self.constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dirty && !c.retired)
            .map(|(i, _)| i)
            .collect()
    }

    /// Live (non-retired) registered constraints.
    pub fn registered_count(&self) -> usize {
        self.constraints.iter().filter(|c| !c.retired).count()
    }

    /// Flushes the attached journal to durable storage (a no-op without
    /// one). Graceful shutdown calls this before persisting the final
    /// snapshot so the WAL tail is complete on disk.
    pub fn sync_journal(&mut self) -> Result<(), MonitorError> {
        if let Some(journal) = &mut self.journal {
            journal.sync()?;
        }
        Ok(())
    }

    /// Persists a snapshot of the current state immediately, regardless of
    /// the [`MonitorConfig::snapshot_every`] cadence, and journals its
    /// boundary. Returns the snapshot id, or `None` without a backend.
    pub fn persist_snapshot_now(&mut self) -> Result<Option<String>, MonitorError> {
        if self.solver.backend_kind().is_none() {
            return Ok(None);
        }
        let id = self.solver.persist_snapshot()?;
        if let Some(id) = &id {
            self.advances_since_snapshot = 0;
            self.stats.snapshots_persisted += 1;
            if let Some(journal) = &mut self.journal {
                journal.append_snapshot_boundary(self.solver.epoch(), id)?;
            }
        }
        Ok(id)
    }

    fn resolve(&self, tuples: &[(String, Tuple)]) -> Result<Vec<(RelationId, Tuple)>, MonitorError> {
        let cat = self.solver.db().database().catalog();
        tuples
            .iter()
            .map(|(name, tuple)| {
                cat.resolve(name)
                    .map(|rel| (rel, tuple.clone()))
                    .ok_or_else(|| MonitorError::UnknownRelation(name.clone()))
            })
            .collect()
    }

    /// Applies one event: journals it (write-ahead), then updates the
    /// database and the steady state — incrementally for intra-epoch
    /// events, by snapshot rebuild for epoch-advancing ones.
    pub fn apply(&mut self, event: &ChainEvent) -> Result<(), MonitorError> {
        if let Some(journal) = &mut self.journal {
            journal.append(self.solver.epoch(), event)?;
        }
        match event {
            ChainEvent::TxArrived { name, tuples } => {
                let _span = probes::MONITOR_APPLY_NS.span();
                let tuples = self.resolve(tuples)?;
                let tx = self.solver.add_transaction(name.clone(), tuples)?;
                self.mark_dirty_after_arrival(tx);
                self.stats.incremental_applies += 1;
            }
            ChainEvent::TxEvicted { name } => {
                let _span = probes::MONITOR_APPLY_NS.span();
                let idx = self
                    .solver
                    .db()
                    .pending()
                    .iter()
                    .position(|t| &t.name == name)
                    .ok_or_else(|| MonitorError::UnknownTransaction(name.clone()))?;
                self.solver.remove_transaction(TxId(idx as u32));
                // Worlds only disappear: a universally-quantified `Holds`
                // survives, but a cached violation's witness might be gone.
                for c in &mut self.constraints {
                    if !c.retired && !matches!(c.last, Some(Verdict::Holds)) {
                        c.dirty = true;
                    }
                }
                self.stats.incremental_applies += 1;
            }
            ChainEvent::TxMined { .. }
            | ChainEvent::Reorg { .. }
            | ChainEvent::TxMinedDelta { .. }
            | ChainEvent::ReorgDelta { .. } => {
                self.apply_epoch_event(event)?;
                // The base state changed, so every watched constraint is
                // dirty regardless of which apply path ran.
                for c in &mut self.constraints {
                    if !c.retired {
                        c.dirty = true;
                    }
                }
                self.maybe_persist_snapshot()?;
            }
        }
        probes::MONITOR_EPOCH.set(self.solver.epoch());
        self.stats.events_applied += 1;
        Ok(())
    }

    /// Routes one epoch-advancing event through the configured
    /// [`EpochApply`] policy. Either path leaves the solver exactly one
    /// epoch further with current steady-state structures and an empty
    /// base-verdict cache.
    fn apply_epoch_event(&mut self, event: &ChainEvent) -> Result<(), MonitorError> {
        // Snapshot-form events can take the rebuild oracle; delta-form
        // events carry no snapshot and are always applied incrementally.
        let snapshot = match event {
            ChainEvent::TxMined { base, pending, .. } => Some((base, pending, true)),
            ChainEvent::Reorg { base, pending, .. } => Some((base, pending, false)),
            _ => None,
        };
        if self.config.epoch_apply == EpochApply::Rebuild {
            if let Some((base, pending, _)) = snapshot {
                return self.rebuild_from_snapshot(base, pending);
            }
        }
        let t0 = Instant::now();
        let undo = match (event, snapshot) {
            (_, Some((base, pending, append_only))) => {
                self.try_reconcile_to_snapshot(base, pending, append_only)?
            }
            (ChainEvent::TxMinedDelta { mined, appended }, _) => {
                Some(self.apply_mined_delta(mined, appended)?)
            }
            (ChainEvent::ReorgDelta { depth }, _) => Some(self.apply_reorg_delta(*depth)?),
            _ => unreachable!("apply_epoch_event sees only epoch-advancing events"),
        };
        let Some(undo) = undo else {
            // The incremental plan was rejected (a mined event whose base
            // was not append-only): take the oracle path.
            let (base, pending, _) = snapshot.expect("only snapshot events can fall back");
            self.stats.apply_fallbacks += 1;
            return self.rebuild_from_snapshot(base, pending);
        };
        self.solver.advance_epoch();
        let ns = t0.elapsed().as_nanos() as u64;
        probes::MONITOR_APPLY_NS.record(ns);
        self.stats.block_apply_ns += ns;
        self.stats.applies += 1;
        if snapshot.is_none() {
            self.stats.delta_applies += 1;
            self.stats.delta_apply_ns += ns;
        }
        if let Some(journal) = &mut self.journal {
            journal.append_undo(self.solver.epoch(), &undo)?;
        }
        self.undo_stack.push(undo);
        if self.config.epoch_apply == EpochApply::IncrementalVerified {
            match snapshot {
                Some((base, pending, _)) => self.shadow_verify(base, pending)?,
                // Delta events carry no authoritative snapshot; verify
                // the incrementally maintained steady state against a
                // cold build over the live database instead.
                None => self.shadow_verify_steady(),
            }
        }
        Ok(())
    }

    /// The oracle path: rebuilds the solver state from the event's full
    /// snapshot via [`Solver::replace_db`], which rebuilds the steady
    /// state, advances the epoch, and drops the base-verdict cache.
    fn rebuild_from_snapshot(
        &mut self,
        base: &NamedTuples,
        pending: &NamedPending,
    ) -> Result<(), MonitorError> {
        let t0 = Instant::now();
        let next = {
            let _span = probes::MONITOR_REBUILD_NS.span();
            self.build_snapshot_db(base, pending)?
        };
        self.solver.replace_db(next);
        self.stats.block_rebuild_ns += t0.elapsed().as_nanos() as u64;
        self.stats.rebuilds += 1;
        Ok(())
    }

    /// Builds a fresh [`BlockchainDb`] holding exactly the snapshot.
    fn build_snapshot_db(
        &self,
        base: &NamedTuples,
        pending: &NamedPending,
    ) -> Result<BlockchainDb, MonitorError> {
        let catalog = self.solver.db().database().catalog().clone();
        let cs = self.solver.db().constraints().clone();
        let mut next = BlockchainDb::new(catalog, cs);
        for (rel_name, tuple) in base {
            let rel = next
                .database()
                .catalog()
                .resolve(rel_name)
                .ok_or_else(|| MonitorError::UnknownRelation(rel_name.clone()))?;
            next.insert_current(rel, tuple.clone())?;
        }
        for (name, tuples) in pending {
            let resolved: Result<Vec<_>, MonitorError> = tuples
                .iter()
                .map(|(rn, t)| {
                    next.database()
                        .catalog()
                        .resolve(rn)
                        .map(|rel| (rel, t.clone()))
                        .ok_or_else(|| MonitorError::UnknownRelation(rn.clone()))
                })
                .collect();
            next.add_transaction(name.clone(), resolved?)?;
        }
        Ok(next)
    }

    /// Verified mode's shadow oracle: rebuild from the snapshot on the
    /// side, time it as the rebuild cost, and compare against the live
    /// incremental state. Divergences are counted, never adopted — the
    /// incremental path is what is under test, and the soak gate requires
    /// the counter to stay zero.
    fn shadow_verify(
        &mut self,
        base: &NamedTuples,
        pending: &NamedPending,
    ) -> Result<(), MonitorError> {
        let t0 = Instant::now();
        let oracle_db = self.build_snapshot_db(base, pending)?;
        let oracle_pre = Precomputed::build(&oracle_db);
        let ns = t0.elapsed().as_nanos() as u64;
        probes::MONITOR_REBUILD_NS.record(ns);
        self.stats.block_rebuild_ns += ns;
        self.stats.shadow_builds += 1;
        if !self.matches_oracle(&oracle_db, &oracle_pre) {
            self.stats.apply_divergences += 1;
        }
        Ok(())
    }

    /// The verified-mode shadow for *delta* events, which carry no
    /// authoritative snapshot: rebuild the steady state cold over the
    /// live database and demand it match the incrementally maintained
    /// one. (Row contents can't be cross-checked without a snapshot; the
    /// soak's epoch-end audit covers those against the chain export.)
    fn shadow_verify_steady(&mut self) {
        let t0 = Instant::now();
        let oracle_pre = Precomputed::build(self.solver.db());
        let ns = t0.elapsed().as_nanos() as u64;
        probes::MONITOR_REBUILD_NS.record(ns);
        self.stats.block_rebuild_ns += ns;
        self.stats.shadow_builds += 1;
        let live_pre = self.solver.precomputed_ref();
        let n = oracle_pre.fd_graph.node_count();
        let mut agree = live_pre.viable == oracle_pre.viable
            && live_pre.includable == oracle_pre.includable
            && live_pre.fd_graph.node_count() == n;
        if agree {
            let mut live_uf = live_pre.ind_uf.clone();
            let mut oracle_uf = oracle_pre.ind_uf.clone();
            'scan: for a in 0..n {
                for b in a + 1..n {
                    if live_pre.fd_graph.has_edge(a, b) != oracle_pre.fd_graph.has_edge(a, b)
                        || live_uf.connected(a, b) != oracle_uf.connected(a, b)
                    {
                        agree = false;
                        break 'scan;
                    }
                }
            }
        }
        if !agree {
            self.stats.apply_divergences += 1;
        }
    }

    /// Whether the live state is observably identical to the oracle's:
    /// same per-relation row sequences (tuple and source), same pending
    /// names, same steady-state verdict inputs.
    fn matches_oracle(&self, oracle_db: &BlockchainDb, oracle_pre: &Precomputed) -> bool {
        let live_db = self.solver.db();
        let cat = live_db.database().catalog();
        for (rel, _) in cat.iter() {
            let live: Vec<_> = live_db
                .database()
                .relation(rel)
                .scan_all()
                .map(|(_, row)| (row.tuple.clone(), row.source))
                .collect();
            let oracle: Vec<_> = oracle_db
                .database()
                .relation(rel)
                .scan_all()
                .map(|(_, row)| (row.tuple.clone(), row.source))
                .collect();
            if live != oracle {
                return false;
            }
        }
        let live_names: Vec<_> = live_db.pending().iter().map(|t| &t.name).collect();
        let oracle_names: Vec<_> = oracle_db.pending().iter().map(|t| &t.name).collect();
        if live_names != oracle_names {
            return false;
        }
        let live_pre = self.solver.precomputed_ref();
        if live_pre.viable != oracle_pre.viable || live_pre.includable != oracle_pre.includable {
            return false;
        }
        let n = oracle_pre.fd_graph.node_count();
        if live_pre.fd_graph.node_count() != n {
            return false;
        }
        let mut live_uf = live_pre.ind_uf.clone();
        let mut oracle_uf = oracle_pre.ind_uf.clone();
        for a in 0..n {
            for b in a + 1..n {
                if live_pre.fd_graph.has_edge(a, b) != oracle_pre.fd_graph.has_edge(a, b)
                    || live_uf.connected(a, b) != oracle_uf.connected(a, b)
                {
                    return false;
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Incremental epoch apply: recorded batch deltas.
    //
    // Each primitive below mutates through the solver's batch delta
    // mutators and pushes the *inverse* op onto `rec` (in apply order);
    // `finish_undo` reverses the list so executing the resulting record's
    // ops front-to-back reverts the event.
    // ------------------------------------------------------------------

    fn rel_name(&self, rel: RelationId) -> String {
        self.solver
            .db()
            .database()
            .catalog()
            .schema(rel)
            .name()
            .to_string()
    }

    fn name_rows(&self, rows: &[(RelationId, Tuple)]) -> NamedTuples {
        rows.iter()
            .map(|(rel, t)| (self.rel_name(*rel), t.clone()))
            .collect()
    }

    fn rec_append_base(
        &mut self,
        rows: Vec<(RelationId, Tuple)>,
        rec: &mut Vec<UndoOp>,
    ) -> Result<(), MonitorError> {
        if rows.is_empty() {
            return Ok(());
        }
        let added = self.solver.append_base_rows(&rows)?;
        if !added.is_empty() {
            let named = self.name_rows(&added);
            rec.push(UndoOp::RemoveBase(named));
        }
        Ok(())
    }

    fn rec_remove_base(&mut self, rows: Vec<(RelationId, Tuple)>, rec: &mut Vec<UndoOp>) {
        if rows.is_empty() {
            return;
        }
        let named = self.name_rows(&rows);
        self.solver.remove_base_rows(&rows);
        rec.push(UndoOp::AppendBase(named));
    }

    fn rec_remove_txs(&mut self, mut ids: Vec<TxId>, rec: &mut Vec<UndoOp>) {
        if ids.is_empty() {
            return;
        }
        ids.sort_unstable();
        ids.dedup();
        let entries: Vec<(u64, String, NamedTuples)> = ids
            .iter()
            .map(|id| {
                let t = &self.solver.db().pending()[id.index()];
                (id.0 as u64, t.name.clone(), self.name_rows(&t.tuples))
            })
            .collect();
        self.solver.remove_transactions(&ids);
        rec.push(UndoOp::InsertTxs(entries));
    }

    fn rec_insert_tx(
        &mut self,
        at: TxId,
        name: String,
        tuples: Vec<(RelationId, Tuple)>,
        rec: &mut Vec<UndoOp>,
    ) -> Result<(), MonitorError> {
        self.solver.insert_transaction_at(at, name.clone(), tuples)?;
        rec.push(UndoOp::RemoveTx { name });
        Ok(())
    }

    fn finish_undo(mut rec: Vec<UndoOp>) -> UndoRecord {
        rec.reverse();
        UndoRecord { ops: rec }
    }

    /// Executes one undo record through the recorded primitives, so the
    /// *current* event's recorder captures the inverse (undoing an undo
    /// re-applies the block — a reorg's own undo record is its redo).
    ///
    /// Tolerates mempool churn since the record was captured: arrivals
    /// and evictions between the block and its reorg can shift or remove
    /// pending entries, so insert indices are clamped to the live pending
    /// length and removing an already-evicted name is a no-op. With no
    /// intervening intra-epoch events the record is an exact inverse.
    fn execute_undo(&mut self, undo: &UndoRecord, rec: &mut Vec<UndoOp>) -> Result<(), MonitorError> {
        for op in &undo.ops {
            match op {
                UndoOp::AppendBase(rows) => {
                    let rows = self.resolve(rows)?;
                    self.rec_append_base(rows, rec)?;
                }
                UndoOp::RemoveBase(rows) => {
                    let rows = self.resolve(rows)?;
                    self.rec_remove_base(rows, rec);
                }
                UndoOp::InsertTxs(entries) => {
                    for (at, name, tuples) in entries {
                        let tuples = self.resolve(tuples)?;
                        let len = self.solver.db().pending().len() as u64;
                        let at = (*at).min(len);
                        self.rec_insert_tx(TxId(at as u32), name.clone(), tuples, rec)?;
                    }
                }
                UndoOp::RemoveTx { name } => {
                    let idx = self
                        .solver
                        .db()
                        .pending()
                        .iter()
                        .position(|t| &t.name == name);
                    if let Some(idx) = idx {
                        self.rec_remove_txs(vec![TxId(idx as u32)], rec);
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolves the snapshot's base rows and collapses duplicates to
    /// first occurrence per relation — exactly the sequence a cold
    /// rebuild's deduplicating `insert_current` loop would store.
    fn resolve_base(&self, base: &NamedTuples) -> Result<Vec<(RelationId, Tuple)>, MonitorError> {
        let rows = self.resolve(base)?;
        let mut seen: FxHashSet<(RelationId, &Tuple)> = FxHashSet::default();
        let mut keep = Vec::with_capacity(rows.len());
        for (i, (rel, tuple)) in rows.iter().enumerate() {
            if seen.insert((*rel, tuple)) {
                keep.push(i);
            }
        }
        if keep.len() == rows.len() {
            return Ok(rows);
        }
        Ok(keep.into_iter().map(|i| rows[i].clone()).collect())
    }

    /// Longest-common-prefix base plan: per relation, keep the shared
    /// prefix of the current base rows and the (deduplicated) target,
    /// remove the current suffix past it, append the target remainder.
    /// Base rows are unique per relation, so removing a suffix by content
    /// never touches a kept prefix row.
    fn base_reconcile_plan(&self, target: &[(RelationId, Tuple)]) -> (ResolvedRows, ResolvedRows) {
        let db = self.solver.db().database();
        let nrel = db.catalog().relation_count();
        let mut per_rel_target: Vec<Vec<&Tuple>> = vec![Vec::new(); nrel];
        for (rel, tuple) in target {
            per_rel_target[rel.index()].push(tuple);
        }
        let mut to_remove = Vec::new();
        let mut to_append = Vec::new();
        for (rel, _) in db.catalog().iter() {
            let current: Vec<&Tuple> = db.relation(rel).base_tuples().collect();
            let tgt = &per_rel_target[rel.index()];
            let mut p = 0;
            while p < current.len() && p < tgt.len() && current[p] == tgt[p] {
                p += 1;
            }
            for t in &current[p..] {
                to_remove.push((rel, (*t).clone()));
            }
            for t in &tgt[p..] {
                to_append.push((rel, (*t).clone()));
            }
        }
        (to_remove, to_append)
    }

    /// Brings the pending set to exactly `target` (names, tuples, order)
    /// with a batch removal of entries not in the target, then ordered
    /// re-insertions of entries not currently present. Greedy
    /// subsequence matching keeps every entry that survives unchanged.
    fn reconcile_pending(
        &mut self,
        target: &[(String, Vec<(RelationId, Tuple)>)],
        rec: &mut Vec<UndoOp>,
    ) -> Result<(), MonitorError> {
        let current: Vec<(String, Vec<(RelationId, Tuple)>)> = self
            .solver
            .db()
            .pending()
            .iter()
            .map(|t| (t.name.clone(), t.tuples.clone()))
            .collect();
        let mut matched = vec![false; target.len()];
        let mut keep = vec![false; current.len()];
        let mut ti = 0usize;
        for (ci, entry) in current.iter().enumerate() {
            if let Some(j) = (ti..target.len()).find(|&j| &target[j] == entry) {
                matched[j] = true;
                keep[ci] = true;
                ti = j + 1;
            }
        }
        let removals: Vec<TxId> = (0..current.len())
            .filter(|&i| !keep[i])
            .map(|i| TxId(i as u32))
            .collect();
        self.rec_remove_txs(removals, rec);
        // Ascending target order: when slot j is filled, slots 0..j
        // already hold exactly target[0..j] (matched survivors plus
        // earlier insertions), so each insert lands at its final index.
        for (j, (name, tuples)) in target.iter().enumerate() {
            if !matched[j] {
                self.rec_insert_tx(TxId(j as u32), name.clone(), tuples.clone(), rec)?;
            }
        }
        Ok(())
    }

    /// The incremental path for snapshot-form epoch events. The snapshot
    /// carries the full authoritative target state, so it reconciles
    /// directly — no undo rewind (that is the delta-form reorg's job,
    /// where no target exists). Returns `None` — plan rejected, nothing
    /// mutated — when `append_only` (a mined event) and the base would
    /// have to shrink: a block never retracts rows, so the stream
    /// disagrees with our state and the snapshot oracle should take over.
    fn try_reconcile_to_snapshot(
        &mut self,
        base: &NamedTuples,
        pending: &NamedPending,
        append_only: bool,
    ) -> Result<Option<UndoRecord>, MonitorError> {
        let target_base = self.resolve_base(base)?;
        let target_pending: Vec<(String, Vec<(RelationId, Tuple)>)> = pending
            .iter()
            .map(|(name, tuples)| Ok((name.clone(), self.resolve(tuples)?)))
            .collect::<Result<_, MonitorError>>()?;
        if append_only {
            let (to_remove, _) = self.base_reconcile_plan(&target_base);
            if !to_remove.is_empty() {
                return Ok(None);
            }
        }
        let mut rec = Vec::new();
        let (to_remove, to_append) = self.base_reconcile_plan(&target_base);
        self.rec_remove_base(to_remove, &mut rec);
        self.rec_append_base(to_append, &mut rec)?;
        self.reconcile_pending(&target_pending, &mut rec)?;
        Ok(Some(Self::finish_undo(rec)))
    }

    /// The purely incremental mined-block delta: append the block's base
    /// rows, drop the mined transactions from the pending set.
    fn apply_mined_delta(
        &mut self,
        mined: &[String],
        appended: &NamedTuples,
    ) -> Result<UndoRecord, MonitorError> {
        let rows = self.resolve(appended)?;
        let ids: Vec<TxId> = mined
            .iter()
            .map(|name| {
                self.solver
                    .db()
                    .pending()
                    .iter()
                    .position(|t| &t.name == name)
                    .map(|i| TxId(i as u32))
                    .ok_or_else(|| MonitorError::UnknownTransaction(name.clone()))
            })
            .collect::<Result<_, MonitorError>>()?;
        let mut rec = Vec::new();
        self.rec_append_base(rows, &mut rec)?;
        self.rec_remove_txs(ids, &mut rec);
        Ok(Self::finish_undo(rec))
    }

    /// The delta-form reorg: pop `depth` undo records and replay them.
    /// The recorded inverse of the rewind is the reorg's own undo — so a
    /// later `ReorgDelta` can *redo* the disconnected blocks.
    fn apply_reorg_delta(&mut self, depth: u64) -> Result<UndoRecord, MonitorError> {
        if (self.undo_stack.len() as u64) < depth {
            return Err(MonitorError::UndoUnavailable {
                depth,
                available: self.undo_stack.len(),
            });
        }
        let mut rec = Vec::new();
        for _ in 0..depth {
            let undo = self.undo_stack.pop().expect("checked above");
            self.execute_undo(&undo, &mut rec)?;
        }
        Ok(Self::finish_undo(rec))
    }

    /// After an epoch advance: persist a snapshot of the new state and
    /// journal its boundary, if a backend is attached and the cadence is
    /// due. The `S` record is appended only once the snapshot is fully
    /// durable, so recovery can trust every boundary it reads.
    fn maybe_persist_snapshot(&mut self) -> Result<(), MonitorError> {
        if self.solver.backend_kind().is_none() || self.config.snapshot_every == 0 {
            return Ok(());
        }
        self.advances_since_snapshot += 1;
        if self.advances_since_snapshot < self.config.snapshot_every {
            return Ok(());
        }
        if let Some(id) = self.solver.persist_snapshot()? {
            self.advances_since_snapshot = 0;
            self.stats.snapshots_persisted += 1;
            if let Some(journal) = &mut self.journal {
                journal.append_snapshot_boundary(self.solver.epoch(), &id)?;
            }
        }
        Ok(())
    }

    /// Arrival dirty rule: worlds only *appear*, and every new world
    /// contains the new transaction, so a cached definite verdict can only
    /// change through matches interacting with `tx`. Those interactions
    /// stay inside `tx`'s refined `Gq,ind` component, so the constraint
    /// stays clean unless that component contains a transaction writing
    /// one of the constraint's relations. (Cached `Unknown` and
    /// never-checked constraints are always dirty.)
    ///
    /// The component depends on the constraint only through its canonical
    /// Θq, so it is looked up once per distinct Θq and reduced to the
    /// relations its members write; each constraint then intersects that
    /// set with its own footprint.
    fn mark_dirty_after_arrival(&mut self, tx: TxId) {
        let solver = &self.solver;
        // Per distinct Θq: the relations written inside `tx`'s component
        // (`None` if `tx` is in none, which leaves everything dirty).
        let mut written: FxHashMap<&[EqualityConstraint], Option<Vec<RelationId>>> =
            FxHashMap::default();
        for c in &mut self.constraints {
            let Registered {
                relations,
                thetas,
                last,
                dirty,
                retired,
                ..
            } = c;
            if *dirty || *retired {
                continue;
            }
            *dirty = match last {
                Some(Verdict::Holds) | Some(Verdict::Violated(_)) => {
                    let thetas: &[EqualityConstraint] = thetas;
                    written
                        .entry(thetas)
                        .or_insert_with(|| component_relations(solver, thetas, tx))
                        .as_ref()
                        .is_none_or(|rels| relations.iter().any(|r| rels.contains(r)))
                }
                _ => true,
            };
        }
    }

    /// Re-checks one registered constraint, retrying transient failures
    /// and containing panics. Never panics itself. The retry schedule is
    /// bound to the constraint's slot as its attempt site, so constraints
    /// sharing one configured seed still back off decorrelated.
    pub fn recheck(&mut self, idx: usize) -> ConstraintVerdict {
        let retry = self.config.retry.for_site(idx as u64);
        self.recheck_with(idx, self.config.budget, retry)
    }

    /// [`recheck`](MonitorSession::recheck) under an explicit per-attempt
    /// budget and retry schedule instead of the session config — the
    /// serving layer's entry point, where each check runs under its
    /// tenant's fair-share envelope.
    pub fn recheck_with(
        &mut self,
        idx: usize,
        spec: BudgetSpec,
        retry: RetryPolicy,
    ) -> ConstraintVerdict {
        debug_assert!(!self.constraints[idx].retired, "recheck of a retired slot");
        let dc = self.constraints[idx].dc.clone();
        let name = self.constraints[idx].name.clone();
        let before = self.solver.session_stats();
        let raw = run_check(&mut self.solver, &dc, spec, retry);
        let delta = diff_stats(&self.solver.session_stats(), &before);
        self.merge_check(idx, name, raw, &delta)
    }

    /// Folds one raw check result into the session: mirrors the solver's
    /// stat deltas into the monitor stats, records the verdict on the
    /// slot, and shapes the public [`ConstraintVerdict`]. Shared by the
    /// serial path and the post-round merge of the parallel path, so both
    /// account identically.
    fn merge_check(
        &mut self,
        idx: usize,
        name: String,
        raw: RawCheck,
        delta: &SolverStats,
    ) -> ConstraintVerdict {
        self.stats.panics_contained += raw.panics;
        self.stats.base_probes += delta.base_probes;
        self.stats.base_hints_supplied += delta.base_hints_supplied;
        self.stats.rechecks += 1;
        self.stats.retries += u64::from(raw.attempts.saturating_sub(1));
        if !raw.outcome.verdict.is_definite() {
            self.stats.unknown_verdicts += 1;
        }
        self.constraints[idx].last = Some(raw.outcome.verdict.clone());
        self.constraints[idx].dirty = false;
        ConstraintVerdict {
            name,
            verdict: raw.outcome.verdict,
            degraded_to: raw.outcome.degraded_to,
            attempts: raw.attempts,
            base_hint_used: delta.base_hints_supplied > 0,
        }
    }

    /// Attaches a cross-session [`SharedEnumCache`] to the underlying
    /// solver, so this session's checks reuse (and feed) enumerations
    /// from every other solver on the same cache. The cache's sharing
    /// contract applies: all attached sessions must observe the same
    /// logical database state (see [`bcdb_core::cache`]).
    pub fn attach_shared_cache(&mut self, cache: Arc<SharedEnumCache>) {
        self.solver.set_shared_cache(Some(cache));
    }

    /// The attached shared cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedEnumCache>> {
        self.solver.shared_cache()
    }

    /// Re-checks a batch of constraints as one round, on up to `threads`
    /// workers, and returns one [`RoundResult`] per check **in input
    /// order** regardless of thread count or scheduling.
    ///
    /// With `threads <= 1` this is exactly a loop of
    /// [`recheck_with`](MonitorSession::recheck_with). With more, each
    /// worker runs checks against its own read-only
    /// [fork](Solver::fork_for_read) of the solver, claiming work through
    /// a [`StealScheduler`]; the forks share the session's
    /// [`SharedEnumCache`] (when attached), so one worker's enumeration
    /// still answers another's duplicate shape. Checks are logically
    /// read-only, so a fork returns the verdict the parent would have —
    /// which is what makes the merge deterministic: results, stat
    /// mirroring, and slot updates are applied serially in input order
    /// after all workers finish, and fork stats are absorbed back into
    /// the parent session.
    ///
    /// Panics inside a check are contained per-item exactly as in the
    /// serial path; a panicking check costs its worker nothing beyond
    /// that item.
    pub fn recheck_round(&mut self, checks: &[RoundCheck], threads: usize) -> Vec<RoundResult> {
        let workers = threads.max(1).min(checks.len());
        if workers <= 1 {
            return checks
                .iter()
                .map(|check| {
                    let before = self.solver.session_stats();
                    let start = Instant::now();
                    let verdict = self.recheck_with(check.slot, check.budget, check.retry);
                    let delta = diff_stats(&self.solver.session_stats(), &before);
                    RoundResult {
                        slot: check.slot,
                        verdict,
                        cost_ns: start.elapsed().as_nanos() as u64,
                        cache_hits: delta.components_reused + delta.verdict_memo_hits,
                        cache_misses: delta.components_enumerated,
                    }
                })
                .collect();
        }
        struct Partial {
            raw: RawCheck,
            cost_ns: u64,
            delta: SolverStats,
        }
        for check in checks {
            debug_assert!(
                !self.constraints[check.slot].retired,
                "round check of a retired slot"
            );
        }
        let dcs: Vec<DenialConstraint> = checks
            .iter()
            .map(|check| self.constraints[check.slot].dc.clone())
            .collect();
        let slots: Vec<Mutex<Option<Partial>>> =
            checks.iter().map(|_| Mutex::new(None)).collect();
        let scheduler = StealScheduler::new(workers, 0..checks.len());
        let mut forks: Vec<Solver> = (0..workers).map(|_| self.solver.fork_for_read()).collect();
        std::thread::scope(|scope| {
            for (worker, fork) in forks.iter_mut().enumerate() {
                let scheduler = &scheduler;
                let slots = &slots;
                let dcs = &dcs;
                scope.spawn(move || {
                    while let Some(i) = scheduler.pop(worker) {
                        let check = &checks[i];
                        let before = fork.session_stats();
                        let start = Instant::now();
                        let raw = run_check(fork, &dcs[i], check.budget, check.retry);
                        let cost_ns = start.elapsed().as_nanos() as u64;
                        let delta = diff_stats(&fork.session_stats(), &before);
                        *slots[i].lock().unwrap() = Some(Partial {
                            raw,
                            cost_ns,
                            delta,
                        });
                    }
                });
            }
        });
        // Serial merge in input order: identical bookkeeping to the
        // 1-thread path, applied in the same sequence every run.
        let mut absorbed = SolverStats::default();
        let results = checks
            .iter()
            .zip(slots)
            .map(|(check, slot)| {
                let partial = slot
                    .into_inner()
                    .unwrap()
                    .expect("scheduler drained every index");
                add_stats(&mut absorbed, &partial.delta);
                let name = self.constraints[check.slot].name.clone();
                let verdict =
                    self.merge_check(check.slot, name, partial.raw, &partial.delta);
                RoundResult {
                    slot: check.slot,
                    verdict,
                    cost_ns: partial.cost_ns,
                    cache_hits: partial.delta.components_reused
                        + partial.delta.verdict_memo_hits,
                    cache_misses: partial.delta.components_enumerated,
                }
            })
            .collect();
        self.solver.absorb_fork_stats(&absorbed);
        results
    }

    /// Re-checks every live registered constraint, in registration order.
    pub fn recheck_all(&mut self) -> Vec<ConstraintVerdict> {
        (0..self.constraints.len())
            .filter(|&i| !self.constraints[i].retired)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|i| self.recheck(i))
            .collect()
    }

    /// Re-checks only the constraints marked dirty (in registration
    /// order), skipping — and counting as skipped — every constraint whose
    /// cached verdict is still known to be current.
    pub fn recheck_dirty(&mut self) -> Vec<ConstraintVerdict> {
        let mut out = Vec::new();
        for i in 0..self.constraints.len() {
            if self.constraints[i].retired {
                continue;
            }
            if self.constraints[i].dirty {
                out.push(self.recheck(i));
            } else {
                self.stats.rechecks_skipped += 1;
            }
        }
        out
    }
}

/// The raw product of one retried, panic-contained check — everything
/// [`merge_check`](MonitorSession::merge_check) needs that came from the
/// solver rather than the session.
struct RawCheck {
    outcome: GovernedOutcome,
    attempts: u32,
    panics: u64,
}

/// The retry/containment core of a re-check, runnable against any solver
/// — the session's own or a per-worker read fork. Never panics.
fn run_check(
    solver: &mut Solver,
    dc: &DenialConstraint,
    spec: BudgetSpec,
    retry: RetryPolicy,
) -> RawCheck {
    // The retry loop gets its own overall deadline: enough for every
    // allowed attempt to spend its full per-attempt budget, so the
    // schedule is bounded even if each attempt runs to exhaustion.
    let deadline = spec
        .timeout
        .map(|t| Instant::now() + t.saturating_mul(retry.max_retries + 1));
    let mut attempts = 0u32;
    let mut panics = 0u64;
    let outcome = retry.run(deadline, |attempt| {
        attempts = attempt + 1;
        let budget = spec.start();
        let checked = catch_unwind(AssertUnwindSafe(|| solver.check_with_budget(dc, &budget)));
        let elapsed = budget.elapsed();
        match checked {
            Ok(Ok(out)) => match &out.verdict {
                // Transient exhaustion: the next attempt may win the
                // race (or the backoff may let an event batch drain).
                Verdict::Unknown(
                    ExhaustionReason::DeadlineExceeded { .. }
                    | ExhaustionReason::Cancelled
                    | ExhaustionReason::WorkerPanicked { .. },
                ) => ControlFlow::Continue(out),
                // Definite verdicts and deterministic limits are final.
                _ => ControlFlow::Break(out),
            },
            // A configuration error (invalid constraint) will not
            // improve with retries.
            Ok(Err(err)) => ControlFlow::Break(unknown_outcome(err.to_string(), elapsed)),
            Err(panic) => {
                panics += 1;
                let message = panic_message(panic.as_ref());
                ControlFlow::Continue(unknown_outcome(message, elapsed))
            }
        }
    });
    RawCheck {
        outcome,
        attempts,
        panics,
    }
}

/// The relations written by the members of `tx`'s component in the
/// partition for `thetas`, sorted; `None` if no component holds `tx`.
fn component_relations(
    solver: &Solver,
    thetas: &[EqualityConstraint],
    tx: TxId,
) -> Option<Vec<RelationId>> {
    let partition = solver.partition(thetas);
    let component = partition
        .iter()
        .find(|comp| comp.binary_search(&tx.index()).is_ok())?;
    let pending = solver.db().pending();
    let mut rels: Vec<RelationId> = component
        .iter()
        .flat_map(|&i| pending[i].tuples.iter().map(|(rel, _)| *rel))
        .collect();
    rels.sort();
    rels.dedup();
    Some(rels)
}

/// Field-wise `after - before` over session stats (both cumulative
/// snapshots of the same solver, so every subtraction is non-negative).
fn diff_stats(after: &SolverStats, before: &SolverStats) -> SolverStats {
    SolverStats {
        checks: after.checks - before.checks,
        batches: after.batches - before.batches,
        batch_constraints: after.batch_constraints - before.batch_constraints,
        base_probes: after.base_probes - before.base_probes,
        base_cache_hits: after.base_cache_hits - before.base_cache_hits,
        base_hints_supplied: after.base_hints_supplied - before.base_hints_supplied,
        components_enumerated: after.components_enumerated - before.components_enumerated,
        components_reused: after.components_reused - before.components_reused,
        verdict_memo_hits: after.verdict_memo_hits - before.verdict_memo_hits,
        epoch_invalidations: after.epoch_invalidations - before.epoch_invalidations,
    }
}

/// Field-wise `into += delta`.
fn add_stats(into: &mut SolverStats, delta: &SolverStats) {
    into.checks += delta.checks;
    into.batches += delta.batches;
    into.batch_constraints += delta.batch_constraints;
    into.base_probes += delta.base_probes;
    into.base_cache_hits += delta.base_cache_hits;
    into.base_hints_supplied += delta.base_hints_supplied;
    into.components_enumerated += delta.components_enumerated;
    into.components_reused += delta.components_reused;
    into.verdict_memo_hits += delta.verdict_memo_hits;
    into.epoch_invalidations += delta.epoch_invalidations;
}

fn unknown_outcome(message: String, elapsed: std::time::Duration) -> GovernedOutcome {
    GovernedOutcome {
        verdict: Verdict::Unknown(ExhaustionReason::WorkerPanicked {
            component: 0,
            message,
        }),
        stats: DcSatStats::default(),
        degraded_to: None,
        elapsed,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_path;
    use bcdb_core::Algorithm;
    use bcdb_query::parse_denial_constraint;
    use bcdb_storage::{tuple, Fd, RelationSchema, ValueType};

    fn setup() -> (Catalog, ConstraintSet) {
        let mut cat = Catalog::new();
        cat.add(
            RelationSchema::new("Pay", [("id", ValueType::Int), ("to", ValueType::Text)]).unwrap(),
        )
        .unwrap();
        let mut cs = ConstraintSet::new();
        cs.add_fd(Fd::named_key(&cat, "Pay", &["id"]).unwrap());
        (cat, cs)
    }

    fn arrival(name: &str, id: i64, to: &str) -> ChainEvent {
        ChainEvent::TxArrived {
            name: name.to_string(),
            tuples: vec![("Pay".to_string(), tuple![id, to])],
        }
    }

    fn evict(name: &str) -> ChainEvent {
        ChainEvent::TxEvicted {
            name: name.to_string(),
        }
    }

    /// Asserts the incrementally maintained steady state equals a cold
    /// rebuild of the session's own database.
    fn assert_self_consistent(s: &MonitorSession) {
        let rebuilt = Precomputed::build(s.bcdb());
        let live = s.precomputed();
        assert_eq!(live.viable, rebuilt.viable, "viable");
        assert_eq!(live.includable, rebuilt.includable, "includable");
        let n = rebuilt.fd_graph.node_count();
        assert_eq!(live.fd_graph.node_count(), n, "GfTd node count");
        let mut live_uf = live.ind_uf.clone();
        let mut cold_uf = rebuilt.ind_uf.clone();
        for a in 0..n {
            for b in a + 1..n {
                assert_eq!(
                    live.fd_graph.has_edge(a, b),
                    rebuilt.fd_graph.has_edge(a, b),
                    "GfTd edge ({a},{b})"
                );
                assert_eq!(
                    live_uf.connected(a, b),
                    cold_uf.connected(a, b),
                    "IND component ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn incremental_stream_matches_cold_rebuild() {
        let (cat, cs) = setup();
        let mut s = MonitorSession::new(cat, cs);
        for (name, id, to) in [
            ("t0", 1, "ann"),
            ("t1", 1, "bob"), // conflicts with t0 on the key
            ("t2", 2, "bob"),
            ("t3", 3, "cam"),
        ] {
            s.apply(&arrival(name, id, to)).unwrap();
            assert_self_consistent(&s);
        }
        s.apply(&evict("t1")).unwrap();
        assert_self_consistent(&s);
        s.apply(&arrival("t4", 4, "ann")).unwrap();
        s.apply(&evict("t0")).unwrap();
        assert_self_consistent(&s);
        assert_eq!(s.pending_names(), ["t2", "t3", "t4"]);
        assert_eq!(s.epoch(), 0, "intra-epoch events never advance the epoch");
        assert_eq!(s.stats().incremental_applies, 7);
        assert_eq!(s.stats().rebuilds, 0);
    }

    #[test]
    fn mined_event_applies_incrementally_and_advances_epoch() {
        let (cat, cs) = setup();
        let mut s = MonitorSession::new(cat, cs);
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&arrival("t1", 2, "bob")).unwrap();
        // t0 gets mined: its tuple moves to the base snapshot.
        s.apply(&ChainEvent::TxMined {
            mined: vec!["t0".to_string()],
            base: vec![("Pay".to_string(), tuple![1i64, "ann"])],
            pending: vec![("t1".to_string(), vec![("Pay".to_string(), tuple![2i64, "bob"])])],
        })
        .unwrap();
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.pending_names(), ["t1"]);
        assert_self_consistent(&s);
        let pay = s.bcdb().database().catalog().resolve("Pay").unwrap();
        let base_rows: Vec<_> = s
            .bcdb()
            .database()
            .relation(pay)
            .scan_all()
            .filter(|(_, row)| row.source == bcdb_storage::Source::Base)
            .collect();
        assert_eq!(base_rows.len(), 1);
        // The default policy applies the block as a batch delta: no
        // snapshot rebuild, one inverse delta on the undo stack.
        assert_eq!(s.stats().applies, 1);
        assert_eq!(s.stats().rebuilds, 0);
        assert_eq!(s.undo_depth(), 1);
    }

    #[test]
    fn rebuild_oracle_mode_still_rebuilds() {
        let (cat, cs) = setup();
        let mut s = MonitorSession::new(cat, cs);
        s.set_config(MonitorConfig {
            epoch_apply: EpochApply::Rebuild,
            ..MonitorConfig::default()
        });
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&ChainEvent::TxMined {
            mined: vec!["t0".to_string()],
            base: vec![("Pay".to_string(), tuple![1i64, "ann"])],
            pending: vec![],
        })
        .unwrap();
        assert_eq!(s.epoch(), 1);
        assert_self_consistent(&s);
        assert_eq!(s.stats().rebuilds, 1);
        assert_eq!(s.stats().applies, 0);
        assert_eq!(s.undo_depth(), 0, "the oracle path records no undos");
    }

    #[test]
    fn verified_mode_times_both_paths_and_sees_no_divergence() {
        let (cat, cs) = setup();
        let mut s = MonitorSession::new(cat, cs);
        s.set_config(MonitorConfig {
            epoch_apply: EpochApply::IncrementalVerified,
            ..MonitorConfig::default()
        });
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&arrival("t1", 2, "bob")).unwrap();
        s.apply(&ChainEvent::TxMined {
            mined: vec!["t0".to_string()],
            base: vec![("Pay".to_string(), tuple![1i64, "ann"])],
            pending: vec![(
                "t1".to_string(),
                vec![("Pay".to_string(), tuple![2i64, "bob"])],
            )],
        })
        .unwrap();
        s.apply(&ChainEvent::Reorg {
            depth: 1,
            base: vec![],
            pending: vec![(
                "t1".to_string(),
                vec![("Pay".to_string(), tuple![2i64, "bob"])],
            )],
        })
        .unwrap();
        let st = s.stats();
        assert_eq!(st.applies, 2);
        assert_eq!(st.apply_divergences, 0);
        assert!(st.block_apply_ns > 0, "incremental path was timed");
        assert!(st.block_rebuild_ns > 0, "shadow oracle was timed");
        assert_self_consistent(&s);
    }

    #[test]
    fn delta_events_mine_and_reorg_without_snapshots() {
        let (cat, cs) = setup();
        let mut s = MonitorSession::new(cat, cs.clone());
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&arrival("t1", 2, "bob")).unwrap();
        // Delta-form block: t0 mined, its row (plus a coinbase-style row)
        // appended — no snapshot anywhere.
        s.apply(&ChainEvent::TxMinedDelta {
            mined: vec!["t0".to_string()],
            appended: vec![
                ("Pay".to_string(), tuple![100i64, "miner"]),
                ("Pay".to_string(), tuple![1i64, "ann"]),
            ],
        })
        .unwrap();
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.pending_names(), ["t1"]);
        assert_self_consistent(&s);
        let before = state_bytes(&s);

        // Mine a second delta block, then rewind it with a delta reorg.
        s.apply(&ChainEvent::TxMinedDelta {
            mined: vec!["t1".to_string()],
            appended: vec![("Pay".to_string(), tuple![2i64, "bob"])],
        })
        .unwrap();
        assert_eq!(s.undo_depth(), 2);
        s.apply(&ChainEvent::ReorgDelta { depth: 1 }).unwrap();
        assert_eq!(s.epoch(), 3);
        assert_eq!(s.pending_names(), ["t1"]);
        assert_self_consistent(&s);
        // State (modulo the epoch tag) is exactly the pre-block state.
        assert_eq!(
            bcdb_storage::encode_snapshot(&s.bcdb().to_db_snapshot(1)),
            before
        );
        // The reorg's own undo is a redo: rewinding it re-mines t1.
        s.apply(&ChainEvent::ReorgDelta { depth: 1 }).unwrap();
        assert_eq!(s.pending_names(), Vec::<&str>::new());
        assert_self_consistent(&s);

        // Rewinding deeper than the stack is an error, applied atomically.
        let err = s.apply(&ChainEvent::ReorgDelta { depth: 99 }).unwrap_err();
        assert!(matches!(err, MonitorError::UndoUnavailable { .. }));
    }

    #[test]
    fn non_append_only_mined_event_falls_back_to_rebuild() {
        let (cat, cs) = setup();
        let mut s = MonitorSession::new(cat, cs);
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&mined("t0", vec![("Pay".to_string(), tuple![1i64, "ann"])]))
            .unwrap();
        assert_eq!(s.stats().applies, 1);
        // A mined event whose base *dropped* a row contradicts the
        // append-only contract: the snapshot oracle takes over.
        s.apply(&mined("t1", vec![("Pay".to_string(), tuple![9i64, "zed"])]))
            .unwrap();
        let st = s.stats();
        assert_eq!(st.apply_fallbacks, 1);
        assert_eq!(st.rebuilds, 1);
        assert_eq!(s.epoch(), 2);
        assert_self_consistent(&s);
    }

    #[test]
    fn base_verdict_cache_is_epoch_tagged() {
        let (cat, cs) = setup();
        let dc = parse_denial_constraint(
            "q() <- Pay(i, x), Pay(j, x), i != j",
            &cat,
        )
        .unwrap();
        let mut s = MonitorSession::new(cat, cs);
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&arrival("t1", 2, "ann")).unwrap();
        s.register("dup-payee", dc);

        let v1 = s.recheck(0);
        assert!(v1.base_hint_used);
        assert_eq!(s.stats().base_probes, 1);
        // Same epoch: the cache answers, no second probe.
        let _ = s.recheck(0);
        assert_eq!(s.stats().base_probes, 1);
        assert_eq!(s.stats().base_hints_supplied, 2);
        // Two pending payments to ann can coexist -> violable.
        assert_eq!(v1.verdict.satisfied(), Some(false));

        // An epoch advance invalidates the cache.
        s.apply(&ChainEvent::Reorg {
            depth: 1,
            base: vec![("Pay".to_string(), tuple![7i64, "zed"])],
            pending: vec![],
        })
        .unwrap();
        let v2 = s.recheck(0);
        assert_eq!(s.stats().base_probes, 2, "new epoch needs a fresh probe");
        assert_eq!(v2.verdict.satisfied(), Some(true));
    }

    #[test]
    fn journal_replay_reproduces_session() {
        let (cat, cs) = setup();
        let path = scratch_path("session_replay");
        let mut s = MonitorSession::new(cat.clone(), cs.clone());
        s.attach_journal(Journal::create(&path).unwrap());
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&arrival("t1", 1, "bob")).unwrap();
        s.apply(&evict("t0")).unwrap();
        s.apply(&ChainEvent::TxMined {
            mined: vec!["t1".to_string()],
            base: vec![("Pay".to_string(), tuple![1i64, "bob"])],
            pending: vec![],
        })
        .unwrap();
        s.apply(&arrival("t2", 2, "cam")).unwrap();

        let recovery = Journal::recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 6, "5 events + 1 undo record");
        assert_eq!(recovery.dropped_bytes, 0);
        let replayed = MonitorSession::replay(cat, cs, &recovery.records).unwrap();
        assert_eq!(replayed.epoch(), s.epoch());
        assert_eq!(replayed.pending_names(), s.pending_names());
        assert_self_consistent(&replayed);
        // Replaying the mined event regenerated its inverse delta, and it
        // matches the journaled one byte for byte.
        assert_eq!(replayed.undo_depth(), 1);
        let journaled = recovery.records.iter().find_map(|r| r.undo()).unwrap();
        assert_eq!(&replayed.undo_stack[0], journaled);
        // The recovered journal continues the sequence.
        assert_eq!(recovery.journal.next_seq(), 6);
    }

    #[test]
    fn config_errors_become_unknown_not_panics() {
        let (cat, cs) = setup();
        // An aggregate constraint forced onto OptDCSat is a configuration
        // error; the monitor must absorb it as Unknown.
        let dc = parse_denial_constraint("[q(sum(i)) <- Pay(i, 'bob')] >= 1", &cat).unwrap();
        let mut s = MonitorSession::new(cat, cs);
        s.apply(&arrival("t0", 1, "bob")).unwrap();
        s.register("forced-opt-aggregate", dc);
        s.set_config(MonitorConfig {
            opts: DcSatOptions::default().with_algorithm(Algorithm::Opt),
            ..MonitorConfig::default()
        });
        let v = s.recheck(0);
        assert!(!v.verdict.is_definite());
        assert_eq!(v.attempts, 1, "configuration errors are not retried");
        assert_eq!(s.stats().unknown_verdicts, 1);
    }

    #[test]
    fn deterministic_budget_limits_are_not_retried() {
        let (cat, cs) = setup();
        let dc = parse_denial_constraint("q() <- Pay(i, x), Pay(j, x), i != j", &cat).unwrap();
        let mut s = MonitorSession::new(cat, cs);
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&arrival("t1", 2, "ann")).unwrap();
        s.register("dup-payee", dc);
        s.set_config(MonitorConfig {
            budget: BudgetSpec {
                max_tuples: Some(0),
                ..BudgetSpec::UNLIMITED
            },
            retry: RetryPolicy::new(3, std::time::Duration::ZERO, 1),
            ..MonitorConfig::default()
        });
        let v = s.recheck(0);
        assert_eq!(v.attempts, 1, "tuple-limit exhaustion is deterministic");
        assert_eq!(s.stats().retries, 0);
    }

    #[test]
    fn dirty_tracking_skips_unaffected_constraints() {
        let mut cat = Catalog::new();
        cat.add(
            RelationSchema::new("Pay", [("id", ValueType::Int), ("to", ValueType::Text)]).unwrap(),
        )
        .unwrap();
        cat.add(RelationSchema::new("Audit", [("id", ValueType::Int)]).unwrap())
            .unwrap();
        let mut cs = ConstraintSet::new();
        cs.add_fd(Fd::named_key(&cat, "Pay", &["id"]).unwrap());
        let dc = parse_denial_constraint("q() <- Pay(i, x), Pay(j, x), i != j", &cat).unwrap();
        let mut s = MonitorSession::new(cat, cs);
        s.register("dup-payee", dc);
        assert_eq!(s.dirty_indices(), [0], "fresh registrations start dirty");

        s.apply(&arrival("t0", 1, "ann")).unwrap();
        let v = s.recheck_dirty();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].verdict.satisfied(), Some(true), "one payment cannot dup");
        assert!(s.dirty_indices().is_empty());

        // An arrival touching only Audit cannot change the Pay constraint:
        // its component contains no transaction writing Pay.
        s.apply(&ChainEvent::TxArrived {
            name: "a0".to_string(),
            tuples: vec![("Audit".to_string(), tuple![9i64])],
        })
        .unwrap();
        assert!(s.dirty_indices().is_empty());
        assert!(s.recheck_dirty().is_empty());
        assert_eq!(s.stats().rechecks_skipped, 1);

        // A second payment to ann can flip the verdict -> dirty, re-checked.
        s.apply(&arrival("t1", 2, "ann")).unwrap();
        assert_eq!(s.dirty_indices(), [0]);
        let v = s.recheck_dirty();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].verdict.satisfied(), Some(false));

        // Eviction can erase a violation witness: Violated goes dirty even
        // for an unrelated eviction, and the re-check restores Holds.
        s.apply(&evict("t1")).unwrap();
        assert_eq!(s.dirty_indices(), [0]);
        let v = s.recheck_dirty();
        assert_eq!(v[0].verdict.satisfied(), Some(true));

        // `Holds` survives evictions — worlds only disappear.
        s.apply(&evict("a0")).unwrap();
        assert!(s.dirty_indices().is_empty());
        assert_eq!(s.stats().rechecks_skipped, 1);
    }

    #[test]
    fn mined_blocks_dirty_everything() {
        let (cat, cs) = setup();
        let dc = parse_denial_constraint("q() <- Pay(i, x), Pay(j, x), i != j", &cat).unwrap();
        let mut s = MonitorSession::new(cat, cs);
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.register("dup-payee", dc);
        let _ = s.recheck_dirty();
        assert!(s.dirty_indices().is_empty());
        s.apply(&ChainEvent::TxMined {
            mined: vec!["t0".to_string()],
            base: vec![("Pay".to_string(), tuple![1i64, "ann"])],
            pending: vec![],
        })
        .unwrap();
        assert_eq!(s.dirty_indices(), [0], "base-state changes dirty everything");
    }

    /// Encoded state snapshot — the byte-identity yardstick used by the
    /// recovery tests (and, at scale, by `repro crashstorm`).
    fn state_bytes(s: &MonitorSession) -> Vec<u8> {
        bcdb_storage::encode_snapshot(&s.bcdb().to_db_snapshot(s.epoch()))
    }

    fn mined(name: &str, base: Vec<(String, Tuple)>) -> ChainEvent {
        mined_with(name, base, vec![])
    }

    fn mined_with(
        name: &str,
        base: Vec<(String, Tuple)>,
        pending: Vec<(String, Vec<(String, Tuple)>)>,
    ) -> ChainEvent {
        ChainEvent::TxMined {
            mined: vec![name.to_string()],
            base,
            pending,
        }
    }

    #[test]
    fn unified_recovery_seeds_from_snapshot_and_replays_tail() {
        use bcdb_storage::DiskBackend;
        let (cat, cs) = setup();
        let dir = crate::testutil::scratch_dir("session_recover");
        let journal_path = dir.join("wal.journal");

        let mut s = MonitorSession::new(cat.clone(), cs.clone());
        s.attach_journal(Journal::create(&journal_path).unwrap());
        s.attach_backend(Box::new(DiskBackend::new(dir.join("snaps")).unwrap()));
        assert_eq!(s.backend_kind(), Some("disk"));
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&arrival("t1", 2, "bob")).unwrap();
        // Epoch advance -> snapshot persisted + S record journaled. The
        // event carries the full post-block state: t1 stays pending.
        s.apply(&mined_with(
            "t0",
            vec![("Pay".to_string(), tuple![1i64, "ann"])],
            vec![(
                "t1".to_string(),
                vec![("Pay".to_string(), tuple![2i64, "bob"])],
            )],
        ))
        .unwrap();
        assert_eq!(s.stats().snapshots_persisted, 1);
        // Post-snapshot tail: two more events.
        s.apply(&arrival("t2", 3, "cam")).unwrap();
        s.apply(&evict("t1")).unwrap();
        let want = state_bytes(&s);
        let want_epoch = s.epoch();
        drop(s);

        let backend = Box::new(DiskBackend::new(dir.join("snaps")).unwrap());
        let (recovered, report) =
            MonitorSession::recover(cat.clone(), cs.clone(), &journal_path, backend).unwrap();
        assert!(report.snapshot_loaded.is_some());
        assert_eq!(report.snapshot_epoch, 1);
        assert_eq!(report.snapshots_rejected, 0);
        assert_eq!(report.total_records, 7, "5 events + 1 undo + 1 boundary");
        assert_eq!(report.total_events, 5);
        assert_eq!(report.wal_tail_records, 2, "only the tail is replayed");
        assert_eq!(recovered.epoch(), want_epoch);
        assert_eq!(state_bytes(&recovered), want, "byte-identical state");
        assert_self_consistent(&recovered);
        assert_eq!(
            recovered.undo_depth(),
            1,
            "the pre-tail undo record reseeded the reorg stack"
        );

        // And the recovered session keeps journaling + snapshotting. The
        // event snapshot carries the *full* post-block base state.
        let mut recovered = recovered;
        recovered
            .apply(&mined(
                "t2",
                vec![
                    ("Pay".to_string(), tuple![1i64, "ann"]),
                    ("Pay".to_string(), tuple![3i64, "cam"]),
                ],
            ))
            .unwrap();
        assert_eq!(recovered.stats().snapshots_persisted, 1);
        let rec = Journal::recover(&journal_path).unwrap();
        assert_eq!(
            rec.records.len(),
            10,
            "tail event + its undo + its boundary appended"
        );
    }

    #[test]
    fn recovery_skips_corrupt_snapshots_and_can_fall_back_to_full_replay() {
        use bcdb_storage::DiskBackend;
        let (cat, cs) = setup();
        let dir = crate::testutil::scratch_dir("session_recover_corrupt");
        let journal_path = dir.join("wal.journal");

        let mut s = MonitorSession::new(cat.clone(), cs.clone());
        s.attach_journal(Journal::create(&journal_path).unwrap());
        s.attach_backend(Box::new(DiskBackend::new(dir.join("snaps")).unwrap()));
        s.apply(&arrival("t0", 1, "ann")).unwrap();
        s.apply(&mined("t0", vec![("Pay".to_string(), tuple![1i64, "ann"])]))
            .unwrap();
        s.apply(&arrival("t1", 2, "bob")).unwrap();
        s.apply(&mined("t1", vec![("Pay".to_string(), tuple![2i64, "bob"])]))
            .unwrap();
        let want = state_bytes(&s);
        drop(s);

        // Corrupt the newest snapshot: recovery must fall back to the
        // older one and replay a longer tail.
        let mut snaps: Vec<_> = std::fs::read_dir(dir.join("snaps"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        snaps.sort();
        let newest = snaps.last().unwrap().clone();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let backend = Box::new(DiskBackend::new(dir.join("snaps")).unwrap());
        let (recovered, report) =
            MonitorSession::recover(cat.clone(), cs.clone(), &journal_path, backend).unwrap();
        assert_eq!(report.snapshots_rejected, 1);
        assert_eq!(report.snapshot_epoch, 1, "fell back to the older snapshot");
        assert_eq!(state_bytes(&recovered), want);

        // All snapshots gone -> full replay from the journal alone.
        std::fs::remove_dir_all(dir.join("snaps")).unwrap();
        let backend = Box::new(DiskBackend::new(dir.join("snaps")).unwrap());
        let (recovered, report) =
            MonitorSession::recover(cat, cs, &journal_path, backend).unwrap();
        assert!(report.snapshot_loaded.is_none());
        assert_eq!(report.snapshots_rejected, 2);
        assert_eq!(report.wal_tail_records, report.total_records);
        assert_eq!(state_bytes(&recovered), want);
    }

    #[test]
    fn snapshot_cadence_is_configurable() {
        use bcdb_storage::DiskBackend;
        let (cat, cs) = setup();
        let dir = crate::testutil::scratch_dir("session_cadence");
        let mut s = MonitorSession::new(cat, cs);
        s.attach_backend(Box::new(DiskBackend::new(dir.join("snaps")).unwrap()));
        s.set_config(MonitorConfig {
            snapshot_every: 2,
            ..MonitorConfig::default()
        });
        for i in 0..4 {
            s.apply(&mined(
                &format!("t{i}"),
                vec![("Pay".to_string(), tuple![i as i64, "ann"])],
            ))
            .unwrap();
        }
        assert_eq!(s.stats().snapshots_persisted, 2, "every 2nd advance");

        // snapshot_every = 0 disables persistence entirely.
        let (cat, cs) = setup();
        let mut s = MonitorSession::new(cat, cs);
        s.attach_backend(Box::new(DiskBackend::new(dir.join("snaps2")).unwrap()));
        s.set_config(MonitorConfig {
            snapshot_every: 0,
            ..MonitorConfig::default()
        });
        s.apply(&mined("t0", vec![("Pay".to_string(), tuple![1i64, "ann"])]))
            .unwrap();
        assert_eq!(s.stats().snapshots_persisted, 0);
    }

    #[test]
    fn bad_event_references_are_reported() {
        let (cat, cs) = setup();
        let mut s = MonitorSession::new(cat, cs);
        let bad_rel = ChainEvent::TxArrived {
            name: "t0".to_string(),
            tuples: vec![("NoSuch".to_string(), tuple![1i64])],
        };
        assert!(matches!(
            s.apply(&bad_rel),
            Err(MonitorError::UnknownRelation(_))
        ));
        assert!(matches!(
            s.apply(&evict("ghost")),
            Err(MonitorError::UnknownTransaction(_))
        ));
    }

    #[test]
    fn recheck_round_parallel_matches_serial() {
        fn build() -> MonitorSession {
            let (cat, cs) = setup();
            let dup =
                parse_denial_constraint("q() <- Pay(i, x), Pay(j, x), i != j", &cat).unwrap();
            let solo = parse_denial_constraint("q() <- Pay(i, 'cam')", &cat).unwrap();
            let mut s = MonitorSession::new(cat, cs);
            for i in 0..4 {
                s.register(format!("dup-{i}"), dup.clone());
            }
            s.register("no-cam", solo);
            s.apply(&arrival("t0", 1, "ann")).unwrap();
            s.apply(&arrival("t1", 2, "ann")).unwrap();
            s.apply(&arrival("t2", 3, "bob")).unwrap();
            s
        }
        let checks: Vec<RoundCheck> = (0..5)
            .map(|slot| RoundCheck {
                slot,
                budget: BudgetSpec::UNLIMITED,
                retry: RetryPolicy::NONE,
            })
            .collect();
        let mut serial = build();
        serial.attach_shared_cache(Arc::new(SharedEnumCache::new()));
        let narrow = serial.recheck_round(&checks, 1);
        let mut parallel = build();
        parallel.attach_shared_cache(Arc::new(SharedEnumCache::new()));
        let wide = parallel.recheck_round(&checks, 4);
        assert_eq!(narrow.len(), wide.len());
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(a.slot, b.slot, "results come back in input order");
            assert_eq!(a.verdict.name, b.verdict.name);
            assert_eq!(a.verdict.verdict, b.verdict.verdict);
        }
        assert_eq!(serial.stats().rechecks, 5);
        assert_eq!(parallel.stats().rechecks, 5);
        assert!(parallel.dirty_indices().is_empty());
        // Fork stats were absorbed: the parent solver saw all five checks.
        assert_eq!(parallel.solver_stats().checks, serial.solver_stats().checks);
        // Four identical shapes: the serial path answers the last three
        // from the shared cache (verdict memo or component replay).
        assert!(narrow.iter().map(|r| r.cache_hits).sum::<u64>() >= 3);
    }
}
