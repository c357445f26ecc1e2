//! Cross-tenant shared-cache and parallel-round equivalence.
//!
//! The serving layer's contract (see DESIGN.md "Shared enumeration
//! cache"): the `SharedEnumCache` and the multi-threaded round executor
//! are pure *performance* features. For any subscription mix — including
//! alpha-renamed duplicates of the same constraint shape spread across
//! tenants — and any event stream, every subscription's verdict sequence
//! must be identical with the cache on or off and at any worker count.
//! The cache may only change *how fast* a verdict is reached, never
//! *which* verdict; the executor schedules and merges serially, so
//! thread count must be unobservable.
//!
//! Budgets are unlimited and the round envelope generous, so verdicts
//! are decided by the data alone and cannot differ by timing.

use bcdb_monitor::ChainEvent;
use bcdb_server::{ServeConfig, ServerCore};
use bcdb_storage::{tuple, Catalog, ConstraintSet, Fd, RelationSchema, Tuple, ValueType};
use proptest::prelude::*;
use std::time::Duration;

fn schema() -> (Catalog, ConstraintSet) {
    let mut cat = Catalog::new();
    cat.add(RelationSchema::new("Pay", [("id", ValueType::Int), ("to", ValueType::Text)]).unwrap())
        .unwrap();
    let mut cs = ConstraintSet::new();
    cs.add_fd(Fd::named_key(&cat, "Pay", &["id"]).unwrap());
    (cat, cs)
}

/// One constraint *shape*, rendered with caller-chosen variable names so
/// alpha-renamed duplicates share a canonical form but not their text.
/// `salt` picks the variable alphabet.
fn render_shape(shape: usize, salt: usize) -> String {
    let v: Vec<String> = (0..3).map(|i| format!("v{salt}_{i}")).collect();
    match shape % 3 {
        // Two transactions paying the same payee.
        0 => format!(
            "q() <- Pay({a}, {c}), Pay({b}, {c}), {a} != {b}",
            a = v[0],
            b = v[1],
            c = v[2]
        ),
        // Key conflict: one id, two payees.
        1 => format!(
            "q() <- Pay({a}, {b}), Pay({a}, {c}), {b} != {c}",
            a = v[0],
            b = v[1],
            c = v[2]
        ),
        // Constant payee.
        _ => format!("q() <- Pay({a}, 'cam')", a = v[0]),
    }
}

/// One abstract mutation, materialized against a running model so every
/// generated event is valid (same scheme as monitor_recovery.rs).
#[derive(Clone, Copy, Debug)]
enum Op {
    Arrive { id: i64 },
    Evict { pick: usize },
    Mine { pick: usize },
    Reorg,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..5i64).prop_map(|id| Op::Arrive { id }),
        (0..5i64).prop_map(|id| Op::Arrive { id }),
        (0..5i64).prop_map(|id| Op::Arrive { id }),
        (0..8usize).prop_map(|pick| Op::Evict { pick }),
        (0..8usize).prop_map(|pick| Op::Mine { pick }),
        Just(Op::Reorg),
    ]
}

#[derive(Default)]
struct Model {
    base: Vec<(String, Tuple)>,
    base_ids: std::collections::HashSet<i64>,
    pending: Vec<(String, i64, Tuple)>,
    next: usize,
}

impl Model {
    fn named_pending(&self) -> Vec<(String, Vec<(String, Tuple)>)> {
        self.pending
            .iter()
            .map(|(n, _, t)| (n.clone(), vec![("Pay".to_string(), t.clone())]))
            .collect()
    }

    fn step(&mut self, op: Op) -> Option<ChainEvent> {
        match op {
            Op::Arrive { id } => {
                let name = format!("t{}", self.next);
                self.next += 1;
                // A small payee alphabet (including the constant shape's
                // 'cam') so duplicate-payee conflicts actually occur.
                let payee = ["cam", "dana", "eve"][self.next % 3].to_string();
                let row = tuple![id, payee];
                self.pending.push((name.clone(), id, row.clone()));
                Some(ChainEvent::TxArrived {
                    name,
                    tuples: vec![("Pay".to_string(), row)],
                })
            }
            Op::Evict { pick } => {
                if self.pending.is_empty() {
                    return None;
                }
                let (name, _, _) = self.pending.remove(pick % self.pending.len());
                Some(ChainEvent::TxEvicted { name })
            }
            Op::Mine { pick } => {
                if self.pending.is_empty() {
                    return None;
                }
                let n = self.pending.len();
                let idx = (0..n)
                    .map(|i| (pick + i) % n)
                    .find(|&i| !self.base_ids.contains(&self.pending[i].1))?;
                let (name, id, row) = self.pending.remove(idx);
                self.base.push(("Pay".to_string(), row));
                self.base_ids.insert(id);
                Some(ChainEvent::TxMined {
                    mined: vec![name],
                    base: self.base.clone(),
                    pending: self.named_pending(),
                })
            }
            Op::Reorg => Some(ChainEvent::Reorg {
                depth: 1,
                base: self.base.clone(),
                pending: self.named_pending(),
            }),
        }
    }
}

fn materialize(ops: &[Op]) -> Vec<ChainEvent> {
    let mut model = Model::default();
    ops.iter().filter_map(|&op| model.step(op)).collect()
}

/// Unlimited budgets and a generous envelope: verdicts depend on the
/// data alone, never on wall-clock, so every flavour must agree exactly.
fn config(shared_cache: bool, round_threads: usize) -> ServeConfig {
    ServeConfig {
        envelope: Duration::from_secs(30),
        shared_cache,
        round_threads,
        ..ServeConfig::default()
    }
}

/// Builds a core, subscribes the given (tenant, text) list, drives it
/// through `events` (a round after each), and returns every
/// subscription's verdict sequence: one vector of per-round labels per
/// subscription, in subscription order.
fn drive(
    subs: &[(String, String)],
    events: &[ChainEvent],
    shared_cache: bool,
    round_threads: usize,
) -> (Vec<Vec<&'static str>>, u64) {
    let (cat, cs) = schema();
    let mut core = ServerCore::new_in_memory(cat, cs, config(shared_cache, round_threads));
    let ids: Vec<u64> = subs
        .iter()
        .enumerate()
        .map(|(i, (tenant, text))| {
            core.subscribe(tenant, &format!("s{i}"), text, 1 + (i % 3) as u32, false)
                .expect("subscribe")
        })
        .collect();
    let mut verdicts: Vec<Vec<&'static str>> = vec![Vec::new(); ids.len()];
    for event in events {
        core.ingest(event).expect("ingest");
        let report = core.run_round();
        assert_eq!(report.refusals, 0, "generous envelope must refuse nothing");
        for (vi, id) in ids.iter().enumerate() {
            verdicts[vi].push(core.poll(*id).expect("poll").verdict);
        }
    }
    let hits = core.stats().cache_hits;
    (verdicts, hits)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Shared cache on/off and 1-vs-many workers all yield identical
    /// verdict sequences for every subscription, even when tenants hold
    /// alpha-renamed duplicates of the same shapes.
    #[test]
    fn cache_and_thread_count_never_change_verdicts(
        ops in prop::collection::vec(op_strategy(), 1..14),
        picks in prop::collection::vec((0..3usize, 0..4usize), 4..10),
    ) {
        let events = materialize(&ops);
        if events.is_empty() {
            return Ok(());
        }
        // Each pick is (shape, tenant); the variable alphabet is salted
        // by position, so equal shapes land as alpha-renamed duplicates
        // across tenants.
        let subs: Vec<(String, String)> = picks
            .iter()
            .enumerate()
            .map(|(i, &(shape, tenant))| (format!("tenant-{tenant}"), render_shape(shape, i)))
            .collect();

        let (baseline, _) = drive(&subs, &events, false, 1);
        let (cached, hits) = drive(&subs, &events, true, 1);
        let (wide, _) = drive(&subs, &events, false, 4);
        let (cached_wide, _) = drive(&subs, &events, true, 4);

        prop_assert_eq!(&cached, &baseline, "shared cache changed a verdict");
        prop_assert_eq!(&wide, &baseline, "worker count changed a verdict");
        prop_assert_eq!(&cached_wide, &baseline, "cache+workers changed a verdict");

        // With at least one duplicated shape the cached run must share
        // work (hits are attributed per subscription as rounds execute).
        let mut shapes: Vec<usize> = picks.iter().map(|&(s, _)| s).collect();
        shapes.sort_unstable();
        shapes.dedup();
        if shapes.len() < picks.len() {
            prop_assert!(hits > 0, "duplicate shapes produced no cache hits");
        }
    }
}

/// A pinned, deterministic spot-check of the same property — useful as a
/// fast signal when the proptest shrinks something large.
#[test]
fn pinned_duplicate_shapes_agree_across_flavours() {
    let events = materialize(&[
        Op::Arrive { id: 1 },
        Op::Arrive { id: 1 },
        Op::Arrive { id: 2 },
        Op::Mine { pick: 0 },
        Op::Reorg,
    ]);
    let subs: Vec<(String, String)> = (0..6)
        .map(|i| (format!("tenant-{}", i % 3), render_shape(i % 2, i)))
        .collect();
    let (baseline, _) = drive(&subs, &events, false, 1);
    let (cached, hits) = drive(&subs, &events, true, 1);
    let (wide, _) = drive(&subs, &events, true, 3);
    assert_eq!(cached, baseline);
    assert_eq!(wide, baseline);
    assert!(hits > 0, "six subs over two shapes must share enumerations");
}

/// Text constants render escaped, so the two sharing keys built from a
/// constraint's text — the verdict memo's canonical shape and the
/// solver's base-verdict cache key — cannot collide. Unescaped, the one
/// comparison `_0 != "p', _0 != 'q"` renders exactly like the two
/// comparisons `_0 != 'p', _0 != 'q'`, and whichever constraint is
/// checked first hands its verdict to the other.
#[test]
fn quoted_text_constants_keep_sharing_keys_distinct() {
    use bcdb_core::{BlockchainDb, SharedEnumCache, Solver, Verdict};
    use bcdb_query::ast::{CmpOp, QueryBuilder};
    use bcdb_query::DenialConstraint;
    use std::sync::Arc;

    let mut cat = Catalog::new();
    cat.add(RelationSchema::new("R", [("x", ValueType::Text)]).unwrap())
        .unwrap();
    // Naming the variable `_0` makes the display the canonical shape, so
    // one pair exercises both keys.
    let one = DenialConstraint::Conjunctive(
        QueryBuilder::new(&cat)
            .atom("R", |a| a.var("_0"))
            .cmp_const("_0", CmpOp::Ne, "p', _0 != 'q")
            .build_conjunctive()
            .unwrap(),
    );
    let two = DenialConstraint::Conjunctive(
        QueryBuilder::new(&cat)
            .atom("R", |a| a.var("_0"))
            .cmp_const("_0", CmpOp::Ne, "p")
            .cmp_const("_0", CmpOp::Ne, "q")
            .build_conjunctive()
            .unwrap(),
    );
    assert_ne!(one.canonical_shape(&cat), two.canonical_shape(&cat));
    assert_ne!(one.display(&cat).to_string(), two.display(&cat).to_string());

    let mut db = BlockchainDb::new(cat, ConstraintSet::new());
    let r = db.database().catalog().resolve("R").unwrap();
    db.insert_current(r, tuple!["q"]).unwrap();
    for shared in [false, true] {
        let mut builder = Solver::builder(db.clone());
        if shared {
            builder = builder.shared_cache(Arc::new(SharedEnumCache::new()));
        }
        let mut solver = builder.build();
        // Base row 'q' differs from the long constant but not from 'q'.
        let v1 = solver.check(&one).unwrap().verdict;
        let v2 = solver.check(&two).unwrap().verdict;
        assert!(
            matches!(v1, Verdict::Violated(_)),
            "shared={shared}: {v1:?}"
        );
        assert_eq!(v2, Verdict::Holds, "shared={shared}");
    }
}
