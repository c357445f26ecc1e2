//! Differential test for the monitor's arrival dirty rule.
//!
//! After a transaction arrives, `MonitorSession` keeps a watched
//! constraint clean only if its cached verdict is definite and no
//! transaction in the arrival's refined `Gq,ind` component writes a
//! relation the constraint mentions. The session looks that component up
//! once per distinct canonical Θq; the oracle here recomputes it per
//! constraint with `query_components`, straight from the rule's
//! definition, and the two dirty sets must be equal after every arrival.
//!
//! The watched set is built to stress the per-Θq sharing: constraints
//! that share Θq but differ in constants, alpha-renamed duplicates,
//! constraints that share Θq but differ in their relation sets (negated
//! atoms), an aggregate, a self-join, and the instance's random query.
//! Between events a random subset of the dirty constraints is re-checked,
//! some under a starved budget so `Unknown` verdicts are cached too. Each
//! stream runs with and without an attached `SharedEnumCache`, whose
//! partition store the session reads and seeds on arrival.
//!
//! Failing seeds persist to `proptest-regressions/` and are replayed
//! before fresh random cases.

mod common;

use bcdb_core::{query_components, BudgetSpec, RetryPolicy, SharedEnumCache, Verdict};
use bcdb_monitor::{ChainEvent, MonitorConfig, MonitorSession};
use bcdb_query::{parse_denial_constraint, DenialConstraint};
use bcdb_storage::{RelationId, TxId};
use common::instances::{generous_budget, instance_strategy, named_export, Instance};
use common::stream::{op_strategy, Model, Op};
use proptest::prelude::*;
use std::sync::Arc;

/// An `R` atom over `arity` columns: the given leading terms, padded
/// with variables private to the atom (`p{tag}_{i}`).
fn r_atom(arity: usize, tag: usize, lead: &[&str]) -> String {
    let mut terms: Vec<String> = lead.iter().map(|t| t.to_string()).collect();
    terms.extend((lead.len()..arity).map(|i| format!("p{tag}_{i}")));
    format!("R({})", terms.join(", "))
}

/// The watched constraints over `R` (of `arity` columns) and `S(x)`.
fn watched(arity: usize, random: &str) -> Vec<String> {
    let r = |tag, lead: &[&str]| r_atom(arity, tag, lead);
    vec![
        // Same Θq (R joined to S), different constants.
        format!("q() <- {}, S(x), y != 1", r(0, &["x", "y"])),
        format!("q() <- {}, S(x), y != 2", r(0, &["x", "y"])),
        // An alpha-renamed duplicate of the first.
        format!("q() <- {}, S(u), v != 1", r(0, &["u", "v"])),
        // Empty Θq with three different relation sets: {R}, {R, S}
        // through a negated atom, and {S}.
        format!("q() <- {}, y > 1", r(0, &["x", "y"])),
        format!("q() <- {}, !S(y)", r(0, &["x", "y"])),
        "q() <- S(x), x >= 2".to_string(),
        // A self-join: Θq equates R's first two columns.
        format!("q() <- {}, {}", r(0, &["x", "y"]), r(1, &["y", "z"])),
        // An aggregate sharing the first constraint's Θq.
        format!("[q(count()) <- {}, S(x)] >= 2", r(0, &["x", "y"])),
        random.to_string(),
    ]
}

/// A budget too small for most checks to finish, so re-checks under it
/// cache `Unknown` verdicts.
fn starved() -> BudgetSpec {
    BudgetSpec {
        max_tuples: Some(0),
        max_worlds: Some(0),
        ..BudgetSpec::UNLIMITED
    }
}

/// The arrival rule evaluated per constraint, straight from its
/// definition: one `query_components` call per clean definite constraint.
fn oracle_dirty(
    s: &MonitorSession,
    dcs: &[DenialConstraint],
    dirty_before: &[usize],
    last: &[Option<Verdict>],
    tx: TxId,
) -> Vec<usize> {
    let db = s.bcdb();
    let pre = s.precomputed();
    (0..dcs.len())
        .filter(|i| {
            if dirty_before.contains(i) {
                return true;
            }
            match &last[*i] {
                Some(Verdict::Holds) | Some(Verdict::Violated(_)) => {
                    let body = dcs[*i].body();
                    let relations: Vec<RelationId> = body
                        .positive
                        .iter()
                        .chain(&body.negated)
                        .map(|a| a.relation)
                        .collect();
                    query_components(db, pre, body)
                        .iter()
                        .find(|comp| comp.contains(&tx.index()))
                        .is_none_or(|comp| {
                            comp.iter().any(|&m| {
                                db.pending()[m]
                                    .tuples
                                    .iter()
                                    .any(|(rel, _)| relations.contains(rel))
                            })
                        })
                }
                _ => true,
            }
        })
        .collect()
}

/// What a stream exercised, for the pinned case's coverage checks.
#[derive(Default)]
struct Coverage {
    arrivals: usize,
    /// Constraints with a cached definite verdict that an arrival left
    /// clean.
    kept_clean: usize,
    definite: usize,
    unknown: usize,
}

/// Drives one stream through a session, asserting after every arrival
/// that the session's dirty set equals the oracle's. `plans[k]` picks,
/// two bits per constraint, which dirty constraints are re-checked after
/// event `k`: 0 leaves it dirty, 1 re-checks under the starved budget,
/// 2 and 3 re-check normally.
fn run_stream(
    inst: &Instance,
    ops: &[Op],
    plans: &[u64],
    shared: bool,
) -> Result<Coverage, TestCaseError> {
    let mut cov = Coverage::default();
    let Some((cat, cs, base, pending)) = named_export(inst) else {
        return Ok(cov);
    };
    let mut s = MonitorSession::new(cat.clone(), cs);
    s.set_config(MonitorConfig {
        budget: generous_budget(),
        ..MonitorConfig::default()
    });
    if shared {
        s.attach_shared_cache(Arc::new(SharedEnumCache::new()));
    }
    let dcs: Vec<DenialConstraint> = watched(inst.arity, &inst.query)
        .iter()
        .map(|text| parse_denial_constraint(text, &cat).unwrap())
        .collect();
    for (i, dc) in dcs.iter().enumerate() {
        prop_assert_eq!(s.register(format!("c{i}"), dc.clone()), i);
    }
    let mut last: Vec<Option<Verdict>> = vec![None; dcs.len()];

    let mut model = Model::new(inst.arity, base, pending);
    let boot = ChainEvent::Reorg {
        depth: 0,
        base: model.state.base.clone(),
        pending: model.state.pending.clone(),
    };
    s.apply(&boot).unwrap();

    for (k, op) in ops.iter().enumerate() {
        let plan = plans.get(k).copied().unwrap_or(u64::MAX);
        for i in s.dirty_indices() {
            let verdict = match plan >> (2 * i) & 3 {
                0 => continue,
                1 => s.recheck_with(i, starved(), RetryPolicy::NONE).verdict,
                _ => s.recheck(i).verdict,
            };
            if verdict.is_definite() {
                cov.definite += 1;
            } else {
                cov.unknown += 1;
            }
            last[i] = Some(verdict);
        }

        let Some(event) = model.step(op) else {
            continue;
        };
        let dirty_before = s.dirty_indices();
        s.apply(&event).unwrap();
        let ChainEvent::TxArrived { name, .. } = &event else {
            continue;
        };
        cov.arrivals += 1;
        let tx = TxId((s.bcdb().pending_count() - 1) as u32);
        prop_assert_eq!(s.pending_names().last().copied(), Some(name.as_str()));
        let expected = oracle_dirty(&s, &dcs, &dirty_before, &last, tx);
        cov.kept_clean += dcs.len() - expected.len();
        prop_assert_eq!(
            s.dirty_indices(),
            expected,
            "dirty set diverged after arrival {} (event {}, shared cache {})",
            name,
            k,
            shared
        );
    }
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    /// After every arrival of a random stream, the monitor's dirty set
    /// equals the per-constraint oracle's, with and without a shared
    /// cache.
    #[test]
    fn arrival_dirty_set_matches_per_constraint_oracle(
        (inst, ops, plans) in instance_strategy().prop_flat_map(|inst| {
            let arity = inst.arity;
            (
                Just(inst),
                prop::collection::vec(op_strategy(arity), 1..16),
                prop::collection::vec(0..u64::MAX, 16),
            )
        }),
    ) {
        for shared in [false, true] {
            run_stream(&inst, &ops, &plans, shared)?;
        }
    }
}

/// A pinned stream that reaches every case of the rule: arrivals that
/// leave definite verdicts clean, arrivals that dirty them, and cached
/// `Unknown` verdicts.
#[test]
fn pinned_stream_covers_clean_dirty_and_unknown() {
    let inst = Instance {
        arity: 2,
        key: true,
        ind: true,
        base_r: vec![vec![0, 0], vec![1, 3]],
        base_s: vec![0],
        txs: vec![(vec![vec![2, 1]], vec![2]), (vec![vec![3, 2]], vec![])],
        query: "q() <- R(x, y), R(x, z), y != z".to_string(),
    };
    let arrive = |rows: Vec<Vec<i64>>, xs: Vec<i64>| Op::Arrive { rows, xs };
    let ops = vec![
        arrive(vec![vec![0, 2]], vec![]),
        arrive(vec![], vec![3]),
        Op::Evict { pick: 0 },
        arrive(vec![vec![2, 3]], vec![1]),
        Op::Mine {
            mask: 1,
            coinbase: false,
            snapshot: false,
        },
        arrive(vec![vec![1, 1]], vec![]),
        arrive(vec![], vec![0]),
        Op::ReorgDelta { depth: 1 },
        arrive(vec![vec![3, 0]], vec![3]),
    ];
    // Alternate starved and normal re-checks across events.
    let plans: Vec<u64> = (0..ops.len())
        .map(|k| if k % 3 == 1 { 0x5555_5555 } else { u64::MAX })
        .collect();
    for shared in [false, true] {
        let cov = run_stream(&inst, &ops, &plans, shared).unwrap();
        assert_eq!(cov.arrivals, 6, "shared cache {shared}");
        assert!(cov.kept_clean > 0, "no arrival left a constraint clean");
        assert!(
            cov.definite > 0 && cov.unknown > 0,
            "definite {} unknown {}",
            cov.definite,
            cov.unknown
        );
    }
}
