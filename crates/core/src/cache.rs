//! Cross-session shared enumeration cache (ROADMAP item 1).
//!
//! One standing-constraint workload — many subscriptions re-checked against
//! one evolving chain state — keeps re-deriving three artifacts whose
//! inputs repeat across constraints and across tenants:
//!
//! 1. the refined `Gq,ind` **partition** per canonical Θq list,
//! 2. the complete maximal-clique **enumeration** per component member
//!    list, and
//! 3. the definite **verdict** per constraint text, for byte-identical
//!    duplicate shapes.
//!
//! [`SharedEnumCache`] hoists all three out of the per-batch
//! `ReuseCtx` so that every [`Solver`](crate::Solver) attached to the same
//! `Arc` — e.g. one per tenant inside `bcdb-server`, or the per-worker
//! read forks of a parallel round executor — shares one copy.
//!
//! # Sharing contract
//!
//! Every solver attached to one cache must observe the **same** logical
//! database state: the cache is meant for forks/sessions serving one chain
//! snapshot that all advance through the same mutation sequence (the
//! server's monitor session and its read forks). Attaching solvers over
//! *different* databases to one cache is unsound and unsupported.
//!
//! # Invalidation
//!
//! Instead of flushing everything on every event, the cache consumes the
//! same incremental delta primitives that keep
//! [`Precomputed`](crate::precompute::Precomputed) fresh, each mapped to
//! the narrowest sound action (see the solver's mutators for the hook
//! sites):
//!
//! | mutation                  | partitions | cliques                         | verdict memo |
//! |---------------------------|------------|---------------------------------|--------------|
//! | pending append            | flush      | keep (old induced subgraphs intact) | drop     |
//! | pending removal / promote | flush      | drop touched, renumber survivors    | drop     |
//! | positional insert         | flush      | renumber keys ≥ insertion point     | drop     |
//! | base-row viability flips  | keep       | drop entries containing a flipped tx | drop    |
//! | epoch advance / rebuild   | flush      | flush                               | drop     |
//!
//! Soundness arguments:
//!
//! * **Appends** add only the new transaction's conflict edges — the
//!   induced subgraph (hence clique list) of every existing member list is
//!   unchanged. Partitions must flush because the new transaction can merge
//!   previously separate components.
//! * **Removals** renumber the survivors down; cached cliques are stored in
//!   *local* indices (positions within the member list) so a pure
//!   renumbering of the key preserves the enumeration verbatim. Entries
//!   containing a removed transaction are dropped.
//! * **Base-row deltas** never touch pending membership, but a viability
//!   flip rewires the flipped transaction's conflict edges
//!   (`fd_graph.isolate`/re-add) while member lists stay put — exactly the
//!   case where a member-list key would serve a stale enumeration, so every
//!   entry containing a flipped transaction is dropped. Partitions survive:
//!   the IND groups and Θq edges they refine are pending-only.
//! * **Verdicts** are memoized only when definite ([`Verdict::is_definite`])
//!   and only within one *generation*: any mutation bumps the generation
//!   counter, and both lookup and store are generation-checked, so a
//!   verdict computed against an older state can never be served. `Unknown`
//!   is never memoized — an exhausted check must stay re-checkable under a
//!   bigger budget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::dcsat::Verdict;
use bcdb_graph::CliqueCache;
use bcdb_query::EqualityConstraint;

/// A refined `Gq,ind` partition (component member lists) shared across
/// constraints and sessions.
pub(crate) type SharedPartition = Arc<Vec<Vec<usize>>>;

/// Cumulative counters for one [`SharedEnumCache`], all monotone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Charged component probes answered from the cache.
    pub clique_hits: u64,
    /// Charged component probes that required a fresh enumeration.
    pub clique_misses: u64,
    /// Definite verdicts served from the generation-checked memo.
    pub verdict_hits: u64,
    /// Cached entries dropped by targeted invalidation (not counting full
    /// flushes).
    pub invalidated_entries: u64,
    /// Generation bumps, i.e. observed mutations.
    pub generations: u64,
}

/// An epoch-tagged, `Arc`-shareable cache of partitions, complete clique
/// enumerations, and definite verdicts, shared by every solver attached to
/// it. See the [module docs](self) for the sharing contract and the
/// invalidation table.
#[derive(Debug, Default)]
pub struct SharedEnumCache {
    /// Monotone mutation counter gating the verdict memo. Also serves as
    /// the cache's epoch tag: two reads of [`SharedEnumCache::generation`]
    /// bracketing equal values bracket an unchanged logical state.
    generation: AtomicU64,
    /// Refined partitions keyed by the *exact* canonical Θq list — a hash
    /// signature could collide two refinements, which would be silently
    /// unsound (see `bcdb_query::canonical_equalities`).
    partitions: Mutex<HashMap<Vec<EqualityConstraint>, SharedPartition>>,
    /// Complete per-component enumerations keyed by sorted member lists.
    cliques: CliqueCache,
    /// Definite verdicts keyed by constraint display text, stamped with the
    /// generation they were proven under.
    verdicts: Mutex<HashMap<String, (u64, Verdict)>>,
    verdict_hits: AtomicU64,
    invalidated: AtomicU64,
}

impl SharedEnumCache {
    /// Creates an empty cache at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current generation (mutation counter / epoch tag).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            clique_hits: self.cliques.hits(),
            clique_misses: self.cliques.misses(),
            verdict_hits: self.verdict_hits.load(Ordering::Relaxed),
            invalidated_entries: self.invalidated.load(Ordering::Relaxed),
            generations: self.generation(),
        }
    }

    /// Number of cached clique enumerations (diagnostic).
    pub fn cached_components(&self) -> usize {
        self.cliques.len()
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    // ------------------------------------------------------------------
    // Invalidation hooks (driven by the solver's incremental mutators).
    // ------------------------------------------------------------------

    /// A transaction was appended to the pending set: flush partitions
    /// (components can merge), keep cliques (existing induced subgraphs are
    /// untouched), drop the verdict memo.
    pub fn note_pending_appended(&self) {
        self.partitions.lock().unwrap().clear();
        self.bump();
    }

    /// Pending transactions at `removed` (sorted ascending, pre-removal
    /// indices) were removed or promoted: flush partitions, drop clique
    /// entries containing a removed index, renumber survivors down, drop
    /// the verdict memo.
    pub fn note_pending_removed(&self, removed: &[usize]) {
        self.partitions.lock().unwrap().clear();
        let dropped = self.cliques.remap_removed(removed);
        self.invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
        self.bump();
    }

    /// A transaction was inserted at pending position `at`: flush
    /// partitions, renumber clique keys at or above `at` up by one, drop
    /// the verdict memo.
    pub fn note_pending_inserted_at(&self, at: usize) {
        self.partitions.lock().unwrap().clear();
        self.cliques.remap_inserted_at(at);
        self.bump();
    }

    /// Base-relation rows changed and the viability of the pending
    /// transactions in `flipped` (sorted ascending) flipped with them:
    /// their conflict edges were rewired in place, so every cached
    /// enumeration containing one of them is stale. Partitions survive —
    /// base rows never contribute `Gq,ind` edges. The verdict memo drops
    /// regardless (base rows are part of every world).
    pub fn note_base_flips(&self, flipped: &[usize]) {
        let dropped = self.cliques.invalidate_members(flipped);
        self.invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
        self.bump();
    }

    /// Full flush: epoch advance, whole-database replacement, or any
    /// mutation without a narrower hook.
    pub fn invalidate_all(&self) {
        self.partitions.lock().unwrap().clear();
        let dropped = self.cliques.len();
        self.cliques.purge();
        self.invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
        self.bump();
    }

    // ------------------------------------------------------------------
    // Lookup surfaces (used by the solver / ReuseCtx plumbing).
    // ------------------------------------------------------------------

    /// The shared clique store. Component keys are sorted member lists;
    /// values obey the completeness rule of
    /// [`bcdb_graph::CliqueCache`].
    pub(crate) fn cliques(&self) -> &CliqueCache {
        &self.cliques
    }

    /// The partition for `key`, computing (at most once per distinct
    /// canonical Θq list) via `compute` on a miss.
    pub(crate) fn partition_or_compute(
        &self,
        key: &[EqualityConstraint],
        compute: impl FnOnce() -> Vec<Vec<usize>>,
    ) -> SharedPartition {
        if let Some(p) = self.partitions.lock().unwrap().get(key) {
            return Arc::clone(p);
        }
        let p = Arc::new(compute());
        self.partitions
            .lock()
            .unwrap()
            .entry(key.to_vec())
            .or_insert_with(|| Arc::clone(&p))
            .clone()
    }

    /// A memoized definite verdict for the constraint rendered as `key`,
    /// valid only if it was stored under the caller's observed generation
    /// `gen` and no mutation has happened since.
    pub fn lookup_verdict(&self, key: &str, gen: u64) -> Option<Verdict> {
        if self.generation() != gen {
            return None;
        }
        let found = self
            .verdicts
            .lock()
            .unwrap()
            .get(key)
            .filter(|(g, _)| *g == gen)
            .map(|(_, v)| v.clone());
        if found.is_some() {
            self.verdict_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a definite verdict proven while the caller observed
    /// generation `gen`. No-op for `Unknown` verdicts or when a mutation
    /// has intervened (the proof would describe a stale state).
    pub fn store_verdict(&self, key: String, gen: u64, verdict: &Verdict) {
        if !verdict.is_definite() || self.generation() != gen {
            return;
        }
        let mut memo = self.verdicts.lock().unwrap();
        // Re-check under the lock: a bump between the gate above and the
        // insert would let a stale proof slip in.
        if self.generation() == gen {
            memo.insert(key, (gen, verdict.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcdb_governor::ExhaustionReason;

    #[test]
    fn verdict_memo_is_generation_checked() {
        let cache = SharedEnumCache::new();
        let gen = cache.generation();
        cache.store_verdict("q1".into(), gen, &Verdict::Holds);
        assert_eq!(cache.lookup_verdict("q1", gen), Some(Verdict::Holds));
        cache.note_pending_appended();
        assert_eq!(cache.lookup_verdict("q1", gen), None);
        assert_eq!(cache.lookup_verdict("q1", cache.generation()), None);
    }

    #[test]
    fn unknown_verdicts_are_never_memoized() {
        let cache = SharedEnumCache::new();
        let gen = cache.generation();
        cache.store_verdict(
            "q2".into(),
            gen,
            &Verdict::Unknown(ExhaustionReason::Cancelled),
        );
        assert_eq!(cache.lookup_verdict("q2", gen), None);
    }

    #[test]
    fn stale_generation_store_is_dropped() {
        let cache = SharedEnumCache::new();
        let gen = cache.generation();
        cache.note_pending_appended();
        cache.store_verdict("q3".into(), gen, &Verdict::Holds);
        assert_eq!(cache.lookup_verdict("q3", cache.generation()), None);
    }

    #[test]
    fn appends_keep_cliques_but_removals_renumber() {
        let cache = SharedEnumCache::new();
        cache
            .cliques()
            .publish_complete(vec![0, 2, 5], vec![vec![0, 1]]);
        cache.note_pending_appended();
        assert!(cache.cliques().peek(&[0, 2, 5]).is_some());
        cache.note_pending_removed(&[1]);
        assert!(cache.cliques().peek(&[0, 2, 5]).is_none());
        assert_eq!(*cache.cliques().peek(&[0, 1, 4]).unwrap(), vec![vec![0, 1]]);
    }

    #[test]
    fn base_flips_drop_only_touched_entries() {
        let cache = SharedEnumCache::new();
        cache.cliques().publish_complete(vec![0, 2], vec![vec![0]]);
        cache.cliques().publish_complete(vec![1, 3], vec![vec![1]]);
        cache.note_base_flips(&[2]);
        assert!(cache.cliques().peek(&[0, 2]).is_none());
        assert!(cache.cliques().peek(&[1, 3]).is_some());
        assert_eq!(cache.stats().invalidated_entries, 1);
    }

    #[test]
    fn partitions_flush_on_pending_changes_only() {
        let cache = SharedEnumCache::new();
        let key: Vec<EqualityConstraint> = Vec::new();
        let p = cache.partition_or_compute(&key, || vec![vec![0]]);
        assert_eq!(*p, vec![vec![0]]);
        // Base flips keep partitions.
        cache.note_base_flips(&[0]);
        let again = cache.partition_or_compute(&key, || panic!("must be cached"));
        assert_eq!(*again, vec![vec![0]]);
        // Pending appends flush them.
        cache.note_pending_appended();
        let recomputed = cache.partition_or_compute(&key, || vec![vec![1]]);
        assert_eq!(*recomputed, vec![vec![1]]);
    }
}
