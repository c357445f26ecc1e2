//! Steady-state precomputed structures (§6.3 of the paper).
//!
//! The paper's implementation stores, as transactions arrive:
//!
//! * per-transaction *inclusion status* — whether `R ∪ {T} |= I`;
//! * the fd-transaction graph `GfTd`;
//! * the IND-derived part of the ind-q-transaction graph (`Gind`), to be
//!   augmented with query-derived edges per denial constraint.
//!
//! [`Precomputed`] holds all three, plus the FD fingerprints that make
//! pairwise consistency checks cheap. `GfTd` is built
//! conflict-first: an FD violation needs two tuples sharing a determinant,
//! so we group tuples by determinant and only materialise the (typically
//! few) conflicting pairs, then take the complement.

use crate::db::BlockchainDb;
use bcdb_graph::{UndirectedGraph, UnionFind};
use bcdb_query::EqualityConstraint;
use bcdb_storage::{Source, SourceFingerprints, TxId, Value};
use rustc_hash::{FxHashMap, FxHashSet};
use smallvec::SmallVec;

/// Projection of a tuple onto constraint attributes.
type Projection = SmallVec<[Value; 4]>;
/// FD grouping: determinant -> (dependent -> contributing sources).
type FdGroups = FxHashMap<Projection, FxHashMap<Projection, SmallVec<[Source; 4]>>>;
/// Equality-constraint grouping: projection value -> (left txs, right txs).
type SideGroups = FxHashMap<Projection, (SmallVec<[u32; 4]>, SmallVec<[u32; 4]>)>;

/// Precomputed reasoning structures for one blockchain database snapshot.
#[derive(Clone, Debug)]
pub struct Precomputed {
    /// FD fingerprints of the current state.
    pub base_fp: SourceFingerprints,
    /// FD fingerprints of each pending transaction.
    pub tx_fp: Vec<SourceFingerprints>,
    /// `viable[t]`: transaction `t` is internally FD-consistent and
    /// FD-consistent with the current state. A non-viable transaction can
    /// never be appended.
    pub viable: Vec<bool>,
    /// The fd-transaction graph `GfTd`: nodes are pending transactions;
    /// edges join *viable*, mutually FD-consistent pairs.
    pub fd_graph: UndirectedGraph,
    /// `includable[t]`: whether `R ∪ {T} |= I` — the paper's per-transaction
    /// inclusion status (true iff `t` could be appended to `R` right now).
    pub includable: Vec<bool>,
    /// Connected components of the IND-derived equality-constraint graph
    /// (`Gind`). Cloned and refined with query-derived edges (Θq) per
    /// denial constraint.
    pub ind_uf: UnionFind,
    /// Per-IND handle of the index on the referenced-side attributes.
    pub(crate) ind_to_index: Vec<usize>,
    /// ΘI (cached from the constraint set).
    thetas_ind: Vec<EqualityConstraint>,
    /// Per-ΘI grouping of transactions by projection value, maintained
    /// incrementally so newly issued transactions join `Gind` in O(|T|).
    ind_groups: Vec<SideGroups>,
}

/// Direction of a base-state delta, used by the post-change refresh to
/// exploit monotonicity: a grow-only change can never create new IND
/// support gaps, so already-includable transactions skip the index probe.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BaseChange {
    /// Rows were only appended to `R`.
    Grew,
    /// Rows were only retracted from `R`.
    Shrank,
}

impl Precomputed {
    /// Builds all structures for `bcdb`.
    pub fn build(bcdb: &BlockchainDb) -> Self {
        let _span = bcdb_telemetry::probes::CORE_PHASE_PRECOMPUTE_NS.span();
        let db = bcdb.database();
        let cs = bcdb.constraints();
        let n = bcdb.pending_count();

        let (base_fp, tx_fp) = bcdb_storage::collect_all_fingerprints(db, cs);

        let mut viable: Vec<bool> = (0..n)
            .map(|t| tx_fp[t].self_consistent() && base_fp.consistent_with(&tx_fp[t]))
            .collect();

        // Conflict-first construction of GfTd: group every stored tuple's
        // FD determinant, then conflicting pairs are within-group pairs
        // whose dependents differ.
        let mut conflicts: FxHashSet<(u32, u32)> = FxHashSet::default();
        for fd in cs.fds() {
            let store = db.relation(fd.relation);
            // determinant -> (dependent -> contributing sources)
            let mut groups: FdGroups = FxHashMap::default();
            for (_, row) in store.scan_all() {
                groups
                    .entry(row.tuple.project(&fd.lhs))
                    .or_default()
                    .entry(row.tuple.project(&fd.rhs))
                    .or_default()
                    .push(row.source);
            }
            for by_rhs in groups.values() {
                if by_rhs.len() < 2 {
                    continue;
                }
                let classes: Vec<&SmallVec<[Source; 4]>> = by_rhs.values().collect();
                for (i, a) in classes.iter().enumerate() {
                    for b in &classes[i + 1..] {
                        for &sa in a.iter() {
                            for &sb in b.iter() {
                                match (sa, sb) {
                                    (Source::Pending(x), Source::Pending(y)) if x != y => {
                                        let (lo, hi) =
                                            if x.0 < y.0 { (x.0, y.0) } else { (y.0, x.0) };
                                        conflicts.insert((lo, hi));
                                    }
                                    (Source::Base, Source::Pending(t))
                                    | (Source::Pending(t), Source::Base) => {
                                        viable[t.index()] = false;
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                }
            }
        }

        let mut fd_graph = UndirectedGraph::new(n);
        for (a, &va) in viable.iter().enumerate() {
            if !va {
                continue;
            }
            for (b, &vb) in viable.iter().enumerate().skip(a + 1) {
                if vb && !conflicts.contains(&(a as u32, b as u32)) {
                    fd_graph.add_edge(a, b);
                }
            }
        }

        // Resolve the per-IND referenced-side index handles (built eagerly
        // by BlockchainDb::new).
        let ind_to_index: Vec<usize> = cs
            .inds()
            .iter()
            .map(|ind| {
                db.relation(ind.to_relation)
                    .find_index(&ind.to_attrs)
                    .expect("IND indexes built at construction")
            })
            .collect();

        // Inclusion status: viable (FD part) + every IND projection of the
        // transaction's own tuples resolvable within R ∪ {T}.
        let mut includable = Vec::with_capacity(n);
        for (t, &v) in viable.iter().enumerate() {
            let tx = TxId(t as u32);
            if !v {
                includable.push(false);
                continue;
            }
            let mask = db.mask_of([tx]);
            let ok = cs.inds().iter().enumerate().all(|(i, ind)| {
                bcdb.transaction(tx)
                    .tuples
                    .iter()
                    .filter(|(rel, _)| *rel == ind.from_relation)
                    .all(|(_, tuple)| {
                        db.relation(ind.to_relation).index_contains(
                            ind_to_index[i],
                            &tuple.project(&ind.from_attrs),
                            &mask,
                        )
                    })
            });
            includable.push(ok);
        }

        // ΘI components, built through the same incremental insertion the
        // steady state uses, so batch and incremental paths cannot diverge.
        let thetas_ind = theta_from_inds(cs);
        let mut ind_uf = UnionFind::new(n);
        let mut ind_groups: Vec<SideGroups> = vec![FxHashMap::default(); thetas_ind.len()];
        for tx in bcdb.tx_ids() {
            ind_join_tx(bcdb, &thetas_ind, &mut ind_groups, &mut ind_uf, tx);
        }

        Precomputed {
            base_fp,
            tx_fp,
            viable,
            fd_graph,
            includable,
            ind_uf,
            ind_to_index,
            thetas_ind,
            ind_groups,
        }
    }

    /// Incrementally extends the steady-state structures for a transaction
    /// just issued via [`BlockchainDb::add_transaction`] (§6.3's "as new
    /// transactions are issued"). Must be called with consecutive
    /// [`TxId`]s; `O(|T| + |tx|)` instead of a full rebuild.
    pub fn note_transaction_added(&mut self, bcdb: &BlockchainDb, tx: TxId) {
        assert_eq!(
            tx.index(),
            self.tx_fp.len(),
            "transactions must be noted in issue order"
        );
        let db = bcdb.database();
        let cs = bcdb.constraints();
        let tuples = &bcdb.transaction(tx).tuples;

        // Fingerprints and viability.
        let fp = bcdb_storage::SourceFingerprints::from_tuples(
            cs,
            tuples.iter().map(|(rel, t)| (*rel, t)),
        );
        let viable = fp.self_consistent() && self.base_fp.consistent_with(&fp);

        // GfTd: one new node, edges to every mutually consistent viable tx.
        let node = self.fd_graph.add_node();
        debug_assert_eq!(node, tx.index());
        if viable {
            for (other, other_viable) in self.viable.iter().enumerate() {
                if *other_viable && fp.consistent_with(&self.tx_fp[other]) {
                    self.fd_graph.add_edge(node, other);
                }
            }
        }

        // Inclusion status (R ∪ {tx} |= I).
        let includable = viable && {
            let mask = db.mask_of([tx]);
            cs.inds().iter().enumerate().all(|(i, ind)| {
                tuples
                    .iter()
                    .filter(|(rel, _)| *rel == ind.from_relation)
                    .all(|(_, tuple)| {
                        db.relation(ind.to_relation).index_contains(
                            self.ind_to_index[i],
                            &tuple.project(&ind.from_attrs),
                            &mask,
                        )
                    })
            })
        };

        // Gind components.
        let id = self.ind_uf.push();
        debug_assert_eq!(id, tx.index());
        let thetas = std::mem::take(&mut self.thetas_ind);
        ind_join_tx(bcdb, &thetas, &mut self.ind_groups, &mut self.ind_uf, tx);
        self.thetas_ind = thetas;

        self.tx_fp.push(fp);
        self.viable.push(viable);
        self.includable.push(includable);
    }

    /// Incrementally shrinks the steady-state structures after `tx` was
    /// evicted via [`BlockchainDb::remove_transaction`] — the inverse of
    /// [`note_transaction_added`](Self::note_transaction_added). All ids
    /// above `tx` shift down by one, mirroring the database's renumbering.
    ///
    /// Viability, inclusion status, and `GfTd` edges of the surviving
    /// transactions are unaffected by the eviction: each depends only on
    /// the current state `R` and the survivors' own tuples, both untouched
    /// here (a change to `R` itself — mining, reorg — is a separate batch
    /// delta, handled by [`note_base_rows_added`](Self::note_base_rows_added)
    /// / [`note_base_rows_removed`](Self::note_base_rows_removed)). The
    /// per-tx rows are therefore removed *and shifted*, never left in
    /// place, so a transaction issued later that reuses the evicted
    /// transaction's keys is fingerprinted against the correct rows. `Gind`
    /// components are rebuilt from the remapped ΘI value groups: an active
    /// group (both sides non-empty) is exactly one component, so the
    /// rebuild is `O(|groups|)` and cannot diverge from the incremental
    /// insertion path.
    pub fn note_transaction_removed(&mut self, tx: TxId) {
        self.note_transactions_removed(&[tx]);
    }

    /// The batch counterpart of
    /// [`note_transaction_removed`](Self::note_transaction_removed): shrinks
    /// the steady state after every transaction in `txs` (sorted ascending,
    /// duplicate-free, in *pre-removal* ids) was removed at once via
    /// [`BlockchainDb::remove_transactions`]. One graph rebuild, one ΘI
    /// group remap, and one `Gind` component reconstruction cover all `k`
    /// departures, instead of `k` full rebuilds — the difference between
    /// O(k·(n+m)) and O(n+m) when a mined block flushes a large conflict
    /// set out of the pool.
    pub fn note_transactions_removed(&mut self, txs: &[TxId]) {
        debug_assert!(
            txs.windows(2).all(|w| w[0] < w[1]),
            "note_transactions_removed: txs must be sorted and distinct"
        );
        if txs.is_empty() {
            return;
        }
        let n = self.tx_fp.len();
        let last = txs[txs.len() - 1];
        assert!(
            last.index() < n,
            "note_transactions_removed: {last} out of range ({n} noted)"
        );

        let removed: Vec<u32> = txs.iter().map(|t| t.0).collect();
        let keep = |id: u32| removed.binary_search(&id).is_err();
        let mut i = 0u32;
        self.tx_fp.retain(|_| {
            let k = keep(i);
            i += 1;
            k
        });
        let mut i = 0u32;
        self.viable.retain(|_| {
            let k = keep(i);
            i += 1;
            k
        });
        let mut i = 0u32;
        self.includable.retain(|_| {
            let k = keep(i);
            i += 1;
            k
        });
        let idxs: Vec<usize> = txs.iter().map(|t| t.index()).collect();
        self.fd_graph.remove_nodes(&idxs);

        // Remap the ΘI value groups: drop the departed ids, shift each
        // survivor down by the number of departures below it, and forget
        // emptied value groups entirely.
        for groups in &mut self.ind_groups {
            for entry in groups.values_mut() {
                for side in [&mut entry.0, &mut entry.1] {
                    side.retain(|t| keep(*t));
                    for t in side.iter_mut() {
                        *t -= removed.partition_point(|&r| r < *t) as u32;
                    }
                }
            }
            groups.retain(|_, (lefts, rights)| !lefts.is_empty() || !rights.is_empty());
        }

        let mut uf = UnionFind::new(n - txs.len());
        for groups in &self.ind_groups {
            for (lefts, rights) in groups.values() {
                if lefts.is_empty() || rights.is_empty() {
                    continue;
                }
                let anchor = lefts[0] as usize;
                for &x in lefts.iter().chain(rights.iter()) {
                    uf.union(anchor, x as usize);
                }
            }
        }
        self.ind_uf = uf;
    }

    /// Incrementally absorbs a batch of rows just appended to the current
    /// state `R` (a mined block's tuples, via
    /// [`BlockchainDb::append_base_rows`] or
    /// [`BlockchainDb::promote_transactions`]). Base fingerprints gain the
    /// rows' FD projections; viability, `GfTd`, and inclusion status are
    /// re-derived against the new `R` without rehashing any stored row.
    /// `Gind` is untouched: ΘI groups range over pending transactions only.
    ///
    /// Returns the pending-transaction indices whose viability flipped
    /// (ascending): their `GfTd` edges were rewired in place, which is
    /// exactly the set a member-list-keyed enumeration cache must drop
    /// (see [`bcdb_graph::CliqueCache::invalidate_members`]).
    pub fn note_base_rows_added(
        &mut self,
        bcdb: &BlockchainDb,
        rows: &[(bcdb_storage::RelationId, bcdb_storage::Tuple)],
    ) -> Vec<usize> {
        let cs = bcdb.constraints();
        for (rel, tuple) in rows {
            self.base_fp.add_tuple(cs, *rel, tuple);
        }
        self.refresh_after_base_change(bcdb, BaseChange::Grew)
    }

    /// The inverse of [`note_base_rows_added`](Self::note_base_rows_added):
    /// absorbs a batch of rows just retracted from `R` (a reorged-out
    /// block's tuples, via [`BlockchainDb::remove_base_rows`]). The rows
    /// must actually have been base rows — fingerprint counts underflow
    /// otherwise (checked in debug builds).
    ///
    /// Returns the viability-flipped pending-transaction indices, as
    /// [`note_base_rows_added`](Self::note_base_rows_added) does.
    pub fn note_base_rows_removed(
        &mut self,
        bcdb: &BlockchainDb,
        rows: &[(bcdb_storage::RelationId, bcdb_storage::Tuple)],
    ) -> Vec<usize> {
        let cs = bcdb.constraints();
        for (rel, tuple) in rows {
            self.base_fp.remove_tuple(cs, *rel, tuple);
        }
        self.refresh_after_base_change(bcdb, BaseChange::Shrank)
    }

    /// Re-derives every per-transaction judgement that depends on `R` after
    /// [`base_fp`](Self::base_fp) changed. Viability flips are repaired in
    /// the graph locally (`isolate` on an off-flip, edge scan on an
    /// on-flip); inclusion status is re-probed through the IND indexes,
    /// since a base change can create or destroy IND support.
    ///
    /// The `change` direction prunes the IND probe. When `R` only grew,
    /// both judgements are monotone: viability can only flip off (the base
    /// fingerprints gained projections, so a new FD clash can appear but an
    /// old one cannot vanish) and IND support can only grow. A transaction
    /// that was includable and is still viable therefore stays includable
    /// without a probe — only viable, not-yet-includable transactions need
    /// re-probing. When `R` shrank the direction reverses for support, so
    /// every viable transaction is re-probed.
    ///
    /// Returns the transactions whose viability flipped, ascending.
    fn refresh_after_base_change(&mut self, bcdb: &BlockchainDb, change: BaseChange) -> Vec<usize> {
        let db = bcdb.database();
        let cs = bcdb.constraints();
        let n = self.tx_fp.len();
        let mut flipped = Vec::new();

        for t in 0..n {
            let now =
                self.tx_fp[t].self_consistent() && self.base_fp.consistent_with(&self.tx_fp[t]);
            if self.viable[t] && !now {
                flipped.push(t);
                self.fd_graph.isolate(t);
                self.viable[t] = false;
            } else if !self.viable[t] && now {
                flipped.push(t);
                // Peers processed later still carry their pre-change
                // viability bit here; an edge added against a peer that
                // flips off afterwards is removed by that peer's `isolate`,
                // and a peer that flips on afterwards adds its own edges.
                self.viable[t] = true;
                for other in 0..n {
                    if other != t
                        && self.viable[other]
                        && self.tx_fp[t].consistent_with(&self.tx_fp[other])
                    {
                        self.fd_graph.add_edge(t, other);
                    }
                }
            }
        }

        for t in 0..n {
            if change == BaseChange::Grew && self.includable[t] {
                // Monotone fast path: support only grew, so includability
                // survives as long as viability did.
                self.includable[t] = self.viable[t];
                continue;
            }
            let tx = TxId(t as u32);
            self.includable[t] = self.viable[t] && {
                let mask = db.mask_of([tx]);
                cs.inds().iter().enumerate().all(|(i, ind)| {
                    bcdb.transaction(tx)
                        .tuples
                        .iter()
                        .filter(|(rel, _)| *rel == ind.from_relation)
                        .all(|(_, tuple)| {
                            db.relation(ind.to_relation).index_contains(
                                self.ind_to_index[i],
                                &tuple.project(&ind.from_attrs),
                                &mask,
                            )
                        })
                })
            };
        }
        flipped
    }

    /// Incrementally extends the structures for a transaction just placed
    /// at position `at` via [`BlockchainDb::insert_transaction_at`] — the
    /// inverse of [`note_transaction_removed`](Self::note_transaction_removed),
    /// used by reorg undo to put a de-mined transaction back at its
    /// original slot. All ids `>= at` shift up by one, mirroring the
    /// database's renumbering.
    pub fn note_transaction_inserted(&mut self, bcdb: &BlockchainDb, at: TxId) {
        let n = self.tx_fp.len();
        assert!(
            at.index() <= n,
            "note_transaction_inserted: {at} out of range ({n} noted)"
        );
        let cs = bcdb.constraints();
        let db = bcdb.database();
        let tuples = &bcdb.transaction(at).tuples;

        let fp = bcdb_storage::SourceFingerprints::from_tuples(
            cs,
            tuples.iter().map(|(rel, t)| (*rel, t)),
        );
        let viable = fp.self_consistent() && self.base_fp.consistent_with(&fp);
        let includable = viable && {
            let mask = db.mask_of([at]);
            cs.inds().iter().enumerate().all(|(i, ind)| {
                tuples
                    .iter()
                    .filter(|(rel, _)| *rel == ind.from_relation)
                    .all(|(_, tuple)| {
                        db.relation(ind.to_relation).index_contains(
                            self.ind_to_index[i],
                            &tuple.project(&ind.from_attrs),
                            &mask,
                        )
                    })
            })
        };

        self.fd_graph.insert_node_at(at.index());
        self.tx_fp.insert(at.index(), fp);
        self.viable.insert(at.index(), viable);
        self.includable.insert(at.index(), includable);
        if viable {
            for other in 0..n + 1 {
                if other != at.index()
                    && self.viable[other]
                    && self.tx_fp[at.index()].consistent_with(&self.tx_fp[other])
                {
                    self.fd_graph.add_edge(at.index(), other);
                }
            }
        }

        // Remap the ΘI value groups for the shift, join the new
        // transaction, and rebuild components from the groups (the same
        // O(|groups|) reconstruction the removal path uses).
        for groups in &mut self.ind_groups {
            for entry in groups.values_mut() {
                for side in [&mut entry.0, &mut entry.1] {
                    for t in side.iter_mut() {
                        if *t >= at.0 {
                            *t += 1;
                        }
                    }
                }
            }
        }
        let mut uf = UnionFind::new(n + 1);
        let thetas = std::mem::take(&mut self.thetas_ind);
        ind_join_tx(bcdb, &thetas, &mut self.ind_groups, &mut uf, at);
        self.thetas_ind = thetas;
        let mut uf = UnionFind::new(n + 1);
        for groups in &self.ind_groups {
            for (lefts, rights) in groups.values() {
                if lefts.is_empty() || rights.is_empty() {
                    continue;
                }
                let anchor = lefts[0] as usize;
                for &x in lefts.iter().chain(rights.iter()) {
                    uf.union(anchor, x as usize);
                }
            }
        }
        self.ind_uf = uf;
    }

    /// Whether transactions `a` and `b` are mutually FD-consistent (and
    /// each viable) — the edge relation of `GfTd`, extended so that
    /// `a == b` reduces to viability.
    pub fn fd_consistent_pair(&self, a: TxId, b: TxId) -> bool {
        if a == b {
            self.viable[a.index()]
        } else {
            self.fd_graph.has_edge(a.index(), b.index())
        }
    }

    /// Whether every pair in `txs` is mutually FD-consistent and viable.
    pub fn fd_consistent_set(&self, txs: &[TxId]) -> bool {
        txs.iter().all(|t| self.viable[t.index()])
            && txs.iter().enumerate().all(|(i, &a)| {
                txs[i + 1..]
                    .iter()
                    .all(|&b| a == b || self.fd_graph.has_edge(a.index(), b.index()))
            })
    }
}

/// Joins one transaction into the ΘI groups, unioning components per the
/// group-activation rule: a value group links every left-side transaction
/// with every right-side transaction as soon as both sides are non-empty.
fn ind_join_tx(
    bcdb: &BlockchainDb,
    thetas: &[EqualityConstraint],
    groups: &mut [SideGroups],
    uf: &mut UnionFind,
    tx: TxId,
) {
    for (ti, theta) in thetas.iter().enumerate() {
        for (rel, tuple) in &bcdb.transaction(tx).tuples {
            for (is_left, my_rel, attrs) in [
                (true, theta.left_relation, &theta.left_attrs),
                (false, theta.right_relation, &theta.right_attrs),
            ] {
                if *rel != my_rel {
                    continue;
                }
                let key = tuple.project(attrs);
                let entry = groups[ti].entry(key).or_default();
                let (mine, other) = if is_left {
                    (&mut entry.0, &entry.1)
                } else {
                    (&mut entry.1, &entry.0)
                };
                if mine.contains(&tx.0) {
                    continue; // several tuples of tx may share the key
                }
                let first_on_my_side = mine.is_empty();
                mine.push(tx.0);
                if !other.is_empty() {
                    if first_on_my_side {
                        // Group transitions inactive -> active: the other
                        // side's members were not yet mutually connected.
                        for &o in other.iter() {
                            uf.union(tx.index(), o as usize);
                        }
                    } else {
                        // Already active: everyone is transitively linked.
                        uf.union(tx.index(), other[0] as usize);
                    }
                }
            }
        }
    }
}

/// ΘI: the equality constraints implied by the inclusion dependencies
/// (`R[X̄] ⊆ S[Ȳ]` gives `R[X̄] = S[Ȳ]`, §6.2).
pub fn theta_from_inds(cs: &bcdb_storage::ConstraintSet) -> Vec<EqualityConstraint> {
    cs.inds()
        .iter()
        .map(|ind| EqualityConstraint {
            left_relation: ind.from_relation,
            left_attrs: ind.from_attrs.clone(),
            right_relation: ind.to_relation,
            right_attrs: ind.to_attrs.clone(),
        })
        .collect()
}

/// The connected components of `Gq,ind` for one conjunctive query: the ΘI
/// components of [`Precomputed::ind_uf`] refined with the query-derived
/// equality constraints Θq. Proposition 2 lets `OptDCSat` solve each
/// component independently; benchmarks use this to report the component
/// structure a workload induces.
pub fn query_components(
    bcdb: &BlockchainDb,
    pre: &Precomputed,
    q: &bcdb_query::ConjunctiveQuery,
) -> Vec<Vec<usize>> {
    refined_components(bcdb, pre, &bcdb_query::derive_query_equalities(q))
}

/// The ΘI components of [`Precomputed::ind_uf`] refined with the equality
/// constraints `thetas`, as sorted member lists ordered by first member.
/// The partition depends on `thetas` only as a set, never on the query
/// that produced it.
pub(crate) fn refined_components(
    bcdb: &BlockchainDb,
    pre: &Precomputed,
    thetas: &[EqualityConstraint],
) -> Vec<Vec<usize>> {
    let mut uf = pre.ind_uf.clone();
    union_by_equalities(bcdb, thetas, &mut uf);
    uf.into_components()
}

/// Merges, in `uf`, every pair of pending transactions joined by some
/// equality constraint in `thetas`: `T` and `T'` are joined when tuples
/// `t ∈ T`, `t' ∈ T'` match on the constraint's projections.
///
/// Implemented by grouping projections: within one value group, every
/// left-side transaction connects to every right-side transaction, which
/// collapses the whole group into one component whenever both sides are
/// non-empty.
pub fn union_by_equalities(bcdb: &BlockchainDb, thetas: &[EqualityConstraint], uf: &mut UnionFind) {
    for theta in thetas {
        let mut groups: SideGroups = FxHashMap::default();
        for tx in bcdb.tx_ids() {
            for (rel, tuple) in &bcdb.transaction(tx).tuples {
                if *rel == theta.left_relation {
                    groups
                        .entry(tuple.project(&theta.left_attrs))
                        .or_default()
                        .0
                        .push(tx.0);
                }
                if *rel == theta.right_relation {
                    groups
                        .entry(tuple.project(&theta.right_attrs))
                        .or_default()
                        .1
                        .push(tx.0);
                }
            }
        }
        for (lefts, rights) in groups.values() {
            if lefts.is_empty() || rights.is_empty() {
                continue;
            }
            let anchor = lefts[0] as usize;
            for &x in lefts.iter().chain(rights.iter()) {
                uf.union(anchor, x as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcdb_storage::{tuple, Catalog, ConstraintSet, Fd, Ind, RelationSchema, ValueType};

    /// R(a,b) key a; S(x) with S[x] ⊆ R[a].
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

    #[test]
    fn viability_and_fd_graph() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        bc.insert_current(r, tuple![1i64, 10i64]).unwrap();
        // T0 fine; T1 conflicts with T0 (key 2); T2 conflicts with base
        // (key 1); T3 internally inconsistent.
        bc.add_transaction("T0", [(r, tuple![2i64, 20i64])])
            .unwrap();
        bc.add_transaction("T1", [(r, tuple![2i64, 99i64])])
            .unwrap();
        bc.add_transaction("T2", [(r, tuple![1i64, 99i64])])
            .unwrap();
        bc.add_transaction("T3", [(r, tuple![5i64, 1i64]), (r, tuple![5i64, 2i64])])
            .unwrap();
        let pre = Precomputed::build(&bc);
        assert_eq!(pre.viable, vec![true, true, false, false]);
        assert!(!pre.fd_graph.has_edge(0, 1)); // conflict
        assert!(!pre.fd_graph.has_edge(0, 2)); // T2 not viable
        assert!(!pre.fd_graph.has_edge(1, 3));
        assert!(pre.fd_consistent_pair(TxId(0), TxId(0)));
        assert!(!pre.fd_consistent_pair(TxId(0), TxId(1)));
        assert!(pre.fd_consistent_set(&[TxId(0)]));
        assert!(!pre.fd_consistent_set(&[TxId(0), TxId(1)]));
    }

    #[test]
    fn identical_tuples_do_not_conflict() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        bc.add_transaction("T0", [(r, tuple![1i64, 10i64])])
            .unwrap();
        bc.add_transaction("T1", [(r, tuple![1i64, 10i64])])
            .unwrap();
        let pre = Precomputed::build(&bc);
        assert!(pre.fd_graph.has_edge(0, 1));
    }

    #[test]
    fn includable_requires_ind_support() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        bc.insert_current(r, tuple![1i64, 10i64]).unwrap();
        // T0: S(1) supported by base. T1: S(7) dangling. T2: R(7,_) + S(7)
        // self-supporting.
        bc.add_transaction("T0", [(s, tuple![1i64])]).unwrap();
        bc.add_transaction("T1", [(s, tuple![7i64])]).unwrap();
        bc.add_transaction("T2", [(r, tuple![7i64, 70i64]), (s, tuple![7i64])])
            .unwrap();
        let pre = Precomputed::build(&bc);
        assert_eq!(pre.includable, vec![true, false, true]);
    }

    #[test]
    fn ind_components_group_dependent_transactions() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        // T0 creates R(5,_); T1 consumes via S(5); T2 unrelated R(9,_).
        bc.add_transaction("T0", [(r, tuple![5i64, 50i64])])
            .unwrap();
        bc.add_transaction("T1", [(s, tuple![5i64])]).unwrap();
        bc.add_transaction("T2", [(r, tuple![9i64, 90i64])])
            .unwrap();
        let pre = Precomputed::build(&bc);
        let mut uf = pre.ind_uf.clone();
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
    }

    #[test]
    fn empty_database_builds() {
        let bc = setup();
        let pre = Precomputed::build(&bc);
        assert!(pre.viable.is_empty());
        assert_eq!(pre.fd_graph.node_count(), 0);
    }

    /// Structural equality of two precomputations (components compared up
    /// to renaming).
    fn assert_equivalent(a: &Precomputed, b: &Precomputed) {
        assert_eq!(a.viable, b.viable, "viable");
        assert_eq!(a.includable, b.includable, "includable");
        assert_eq!(a.fd_graph.node_count(), b.fd_graph.node_count());
        assert_eq!(a.fd_graph.edge_count(), b.fd_graph.edge_count(), "edges");
        for u in 0..a.fd_graph.node_count() {
            for v in u + 1..a.fd_graph.node_count() {
                assert_eq!(
                    a.fd_graph.has_edge(u, v),
                    b.fd_graph.has_edge(u, v),
                    "edge {u}-{v}"
                );
            }
        }
        assert_eq!(
            a.ind_uf.clone().into_components(),
            b.ind_uf.clone().into_components(),
            "Gind components"
        );
    }

    #[test]
    fn incremental_matches_rebuild_on_running_shapes() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        bc.insert_current(r, tuple![1i64, 10i64]).unwrap();
        let mut pre = Precomputed::build(&bc);
        let additions: Vec<Vec<(bcdb_storage::RelationId, bcdb_storage::Tuple)>> = vec![
            vec![(r, tuple![2i64, 20i64])],                         // fresh key
            vec![(r, tuple![2i64, 99i64])],                         // conflicts prev
            vec![(r, tuple![1i64, 99i64])],                         // conflicts base
            vec![(s, tuple![2i64])],                                // depends on T0/T1
            vec![(r, tuple![5i64, 1i64]), (r, tuple![5i64, 2i64])], // self-broken
            vec![(r, tuple![7i64, 0i64]), (s, tuple![7i64])],       // self-supporting
            vec![(s, tuple![7i64])],                                // same key as T5's S row
        ];
        for tuples in additions {
            let tx = bc.add_transaction("t", tuples).unwrap();
            pre.note_transaction_added(&bc, tx);
            let rebuilt = Precomputed::build(&bc);
            assert_equivalent(&pre, &rebuilt);
        }
    }

    #[test]
    fn removal_matches_rebuild_and_splits_components() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        // T0 creates R(5,_); T1 consumes via S(5); T2 unrelated.
        bc.add_transaction("T0", [(r, tuple![5i64, 50i64])]).unwrap();
        bc.add_transaction("T1", [(s, tuple![5i64])]).unwrap();
        bc.add_transaction("T2", [(r, tuple![9i64, 90i64])]).unwrap();
        let mut pre = Precomputed::build(&bc);
        assert!(pre.ind_uf.clone().connected(0, 1));

        // Evicting T0 severs the IND link: S(5) loses its producer.
        bc.remove_transaction(TxId(0));
        pre.note_transaction_removed(TxId(0));
        assert_equivalent(&pre, &Precomputed::build(&bc));
        assert!(!pre.ind_uf.clone().connected(0, 1));
        assert_eq!(pre.viable.len(), 2);
    }

    /// Satellite regression: a transaction issued *after* an eviction that
    /// reuses the evicted transaction's key must be checked against the
    /// shifted fingerprint rows, not the stale pre-eviction layout.
    #[test]
    fn add_after_removal_sees_fresh_fd_rows() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        // T0 and T1 fight over key 2; T2 is independent.
        bc.add_transaction("T0", [(r, tuple![2i64, 20i64])]).unwrap();
        bc.add_transaction("T1", [(r, tuple![2i64, 99i64])]).unwrap();
        bc.add_transaction("T2", [(r, tuple![3i64, 30i64])]).unwrap();
        let mut pre = Precomputed::build(&bc);

        // Evict T0; survivors renumber to T1->0, T2->1.
        bc.remove_transaction(TxId(0));
        pre.note_transaction_removed(TxId(0));

        // T3 reuses the evicted key 2: it must conflict with old-T1 (now
        // TxId(0)) and stay consistent with old-T2 (now TxId(1)).
        let t3 = bc.add_transaction("T3", [(r, tuple![2i64, 55i64])]).unwrap();
        pre.note_transaction_added(&bc, t3);
        assert_eq!(t3, TxId(2));
        assert!(!pre.fd_consistent_pair(TxId(0), TxId(2)), "key-2 conflict");
        assert!(pre.fd_consistent_pair(TxId(1), TxId(2)));
        assert!(pre.fd_consistent_set(&[TxId(1), TxId(2)]));
        assert_equivalent(&pre, &Precomputed::build(&bc));
    }

    /// Promoting a mined block = per-tx removal (descending) + base-row
    /// absorption; the result must match a cold rebuild, including the
    /// inclusion-status flip of a transaction whose IND support got mined.
    #[test]
    fn promotion_matches_rebuild_and_flips_includable() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        bc.insert_current(r, tuple![1i64, 10i64]).unwrap();
        // T0 creates R(5,_); T1 consumes via S(5) — not includable until
        // T0's row is base; T2 conflicts with T0 on key 5.
        bc.add_transaction("T0", [(r, tuple![5i64, 50i64])]).unwrap();
        bc.add_transaction("T1", [(s, tuple![5i64])]).unwrap();
        bc.add_transaction("T2", [(r, tuple![5i64, 99i64])]).unwrap();
        let mut pre = Precomputed::build(&bc);
        assert_eq!(pre.includable, vec![true, false, true]);

        let added = bc.promote_transactions(&[TxId(0)]).unwrap();
        pre.note_transaction_removed(TxId(0));
        pre.note_base_rows_added(&bc, &added);

        assert_equivalent(&pre, &Precomputed::build(&bc));
        // Old T1 (now 0) gained IND support; old T2 (now 1) now fights the
        // base over key 5.
        assert_eq!(pre.includable, vec![true, false]);
        assert_eq!(pre.viable, vec![true, false]);
    }

    /// Retracting base rows (a reorged-out block) restores viability and
    /// severs inclusion support, matching a cold rebuild.
    #[test]
    fn base_removal_matches_rebuild() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        bc.insert_current(r, tuple![1i64, 10i64]).unwrap();
        bc.insert_current(r, tuple![5i64, 50i64]).unwrap();
        // T0 conflicts with base key 5; T1 leans on base row 5 for its IND.
        bc.add_transaction("T0", [(r, tuple![5i64, 99i64])]).unwrap();
        bc.add_transaction("T1", [(s, tuple![5i64])]).unwrap();
        let mut pre = Precomputed::build(&bc);
        assert_eq!(pre.viable, vec![false, true]);
        assert_eq!(pre.includable, vec![false, true]);

        let rows = vec![(r, tuple![5i64, 50i64])];
        assert_eq!(bc.remove_base_rows(&rows), 1);
        pre.note_base_rows_removed(&bc, &rows);

        assert_equivalent(&pre, &Precomputed::build(&bc));
        assert_eq!(pre.viable, vec![true, true]);
        assert_eq!(pre.includable, vec![true, false]);
    }

    /// Inserting a transaction at its original slot (reorg undo) matches a
    /// cold rebuild of the same issue order.
    #[test]
    fn insertion_matches_rebuild() {
        let mut bc = setup();
        let r = bc.database().catalog().resolve("R").unwrap();
        let s = bc.database().catalog().resolve("S").unwrap();
        bc.insert_current(r, tuple![1i64, 10i64]).unwrap();
        bc.add_transaction("T0", [(r, tuple![5i64, 50i64])]).unwrap();
        bc.add_transaction("T2", [(r, tuple![5i64, 99i64])]).unwrap();
        let mut pre = Precomputed::build(&bc);

        // Put T1 between them: consumes T0's key via the IND and is
        // FD-consistent with both.
        bc.insert_transaction_at(TxId(1), "T1", [(s, tuple![5i64])])
            .unwrap();
        pre.note_transaction_inserted(&bc, TxId(1));

        assert_equivalent(&pre, &Precomputed::build(&bc));
        let mut uf = pre.ind_uf.clone();
        assert!(uf.connected(0, 1), "S(5) joins R(5,_) producer");
    }

    mod incremental_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Incrementally maintained structures equal a from-scratch
            /// rebuild after every single addition.
            #[test]
            fn incremental_equals_rebuild(
                base in prop::collection::vec((0..4i64, 0..4i64), 0..3),
                txs in prop::collection::vec(
                    (prop::collection::vec((0..4i64, 0..4i64), 0..3),
                     prop::collection::vec(0..4i64, 0..2)),
                    1..6),
            ) {
                let mut bc = setup();
                let r = bc.database().catalog().resolve("R").unwrap();
                let s = bc.database().catalog().resolve("S").unwrap();
                let mut keys = std::collections::HashSet::new();
                for (a, b) in base {
                    if keys.insert(a) {
                        bc.insert_current(r, tuple![a, b]).unwrap();
                    }
                }
                let mut pre = Precomputed::build(&bc);
                for (i, (rt, st)) in txs.into_iter().enumerate() {
                    if rt.is_empty() && st.is_empty() {
                        continue;
                    }
                    let tuples: Vec<_> = rt
                        .into_iter()
                        .map(|(a, b)| (r, tuple![a, b]))
                        .chain(st.into_iter().map(|x| (s, tuple![x])))
                        .collect();
                    let tx = bc.add_transaction(format!("T{i}"), tuples).unwrap();
                    pre.note_transaction_added(&bc, tx);
                }
                let rebuilt = Precomputed::build(&bc);
                assert_equivalent(&pre, &rebuilt);
            }

            /// Random interleavings of additions and removals stay equal to
            /// a from-scratch rebuild after every step.
            #[test]
            fn interleaved_adds_and_removals_equal_rebuild(
                base in prop::collection::vec((0..4i64, 0..4i64), 0..3),
                ops in prop::collection::vec(
                    (prop::bool::ANY, 0..8usize,
                     prop::collection::vec((0..4i64, 0..4i64), 0..3),
                     prop::collection::vec(0..4i64, 0..2)),
                    1..10),
            ) {
                let mut bc = setup();
                let r = bc.database().catalog().resolve("R").unwrap();
                let s = bc.database().catalog().resolve("S").unwrap();
                let mut keys = std::collections::HashSet::new();
                for (a, b) in base {
                    if keys.insert(a) {
                        bc.insert_current(r, tuple![a, b]).unwrap();
                    }
                }
                let mut pre = Precomputed::build(&bc);
                for (i, (remove, pick, rt, st)) in ops.into_iter().enumerate() {
                    if remove && bc.pending_count() > 0 {
                        let tx = TxId((pick % bc.pending_count()) as u32);
                        bc.remove_transaction(tx);
                        pre.note_transaction_removed(tx);
                    } else {
                        if rt.is_empty() && st.is_empty() {
                            continue;
                        }
                        let tuples: Vec<_> = rt
                            .into_iter()
                            .map(|(a, b)| (r, tuple![a, b]))
                            .chain(st.into_iter().map(|x| (s, tuple![x])))
                            .collect();
                        let tx = bc.add_transaction(format!("T{i}"), tuples).unwrap();
                        pre.note_transaction_added(&bc, tx);
                    }
                    assert_equivalent(&pre, &Precomputed::build(&bc));
                }
            }

            /// Mining (promotion), reorg undo (base retraction + re-insert),
            /// and arrivals interleaved: incremental maintenance equals a
            /// from-scratch rebuild after every step.
            #[test]
            fn promotions_and_insertions_equal_rebuild(
                base in prop::collection::vec((0..4i64, 0..4i64), 0..3),
                ops in prop::collection::vec(
                    (0..4u8, 0..8usize,
                     prop::collection::vec((0..4i64, 0..4i64), 0..3),
                     prop::collection::vec(0..4i64, 0..2)),
                    1..10),
            ) {
                let mut bc = setup();
                let r = bc.database().catalog().resolve("R").unwrap();
                let s = bc.database().catalog().resolve("S").unwrap();
                let mut keys = std::collections::HashSet::new();
                for (a, b) in base {
                    if keys.insert(a) {
                        bc.insert_current(r, tuple![a, b]).unwrap();
                    }
                }
                let mut pre = Precomputed::build(&bc);
                let mut mined: Vec<Vec<(bcdb_storage::RelationId, bcdb_storage::Tuple)>> =
                    Vec::new();
                for (i, (op, pick, rt, st)) in ops.into_iter().enumerate() {
                    let tuples: Vec<_> = rt
                        .into_iter()
                        .map(|(a, b)| (r, tuple![a, b]))
                        .chain(st.into_iter().map(|x| (s, tuple![x])))
                        .collect();
                    match op {
                        // Promote a pending transaction into the base.
                        0 if bc.pending_count() > 0 => {
                            let tx = TxId((pick % bc.pending_count()) as u32);
                            let added = bc.promote_transaction(tx).unwrap();
                            pre.note_transaction_removed(tx);
                            pre.note_base_rows_added(&bc, &added);
                            mined.push(added);
                        }
                        // Retract the rows of an earlier promotion.
                        1 if !mined.is_empty() => {
                            let rows = mined.remove(pick % mined.len());
                            bc.remove_base_rows(&rows);
                            pre.note_base_rows_removed(&bc, &rows);
                        }
                        // Insert at an arbitrary slot.
                        2 if !tuples.is_empty() => {
                            let at = TxId((pick % (bc.pending_count() + 1)) as u32);
                            bc.insert_transaction_at(at, format!("I{i}"), tuples)
                                .unwrap();
                            pre.note_transaction_inserted(&bc, at);
                        }
                        // Plain arrival.
                        _ => {
                            if tuples.is_empty() {
                                continue;
                            }
                            let tx = bc.add_transaction(format!("T{i}"), tuples).unwrap();
                            pre.note_transaction_added(&bc, tx);
                        }
                    }
                    assert_equivalent(&pre, &Precomputed::build(&bc));
                }
            }
        }
    }
}
