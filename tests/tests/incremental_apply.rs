//! The incremental-apply differential matrix: random event streams —
//! arrivals, evictions, mined blocks in both snapshot and delta form,
//! snapshot reorgs, and depth-d delta reorgs — over the solver-matrix
//! instance generator, applied to a `MonitorSession` running the default
//! incremental epoch policy. After *every* event the session's state is
//! compared field-by-field against a cold session rebuilt from scratch by
//! the `EpochApply::Rebuild` oracle: epoch, pending order, every
//! relation's rows and sources, the steady-state structures (viability,
//! inclusion status, `GfTd`, the IND components), and the registered
//! constraint's verdict must all agree.
//!
//! A driver model mirrors the chain the events describe, so every
//! generated event is valid (evictions name live transactions, delta
//! reorgs never exceed the journaled undo depth) and the expected state
//! after each event is known exactly. Delta reorgs are only generated
//! over churn-free windows — the inverse-delta journal reverses epoch
//! events, so the model can predict the result exactly only when no
//! intra-epoch arrival/eviction happened since the undone records were
//! written (churn-tolerant undo under interleaved arrivals is pinned
//! separately by the reorg-inversion suite).
//!
//! Failing seeds persist to `proptest-regressions/` and are replayed
//! before fresh random cases.

mod common;

use bcdb_monitor::{ChainEvent, EpochApply, MonitorConfig, MonitorSession};
use bcdb_query::parse_denial_constraint;
use common::instances::{generous_budget, instance_strategy, named_export, Instance};
use common::stream::{op_strategy, Model, State};
use proptest::prelude::*;

fn config(apply: EpochApply) -> MonitorConfig {
    MonitorConfig {
        budget: generous_budget(),
        epoch_apply: apply,
        ..MonitorConfig::default()
    }
}

fn verdict_label(v: &bcdb_core::Verdict) -> &'static str {
    match v {
        bcdb_core::Verdict::Holds => "holds",
        bcdb_core::Verdict::Violated(_) => "violated",
        bcdb_core::Verdict::Unknown(_) => "unknown",
    }
}

/// Compares the incrementally maintained session against a cold session
/// rebuilt by the snapshot oracle from the model's expected state —
/// rows, pending order, steady-state structures, and the verdict.
fn assert_matches_cold(
    inst: &Instance,
    live: &mut MonitorSession,
    live_dc: usize,
    model: &Model,
    at: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        live.epoch(),
        model.epoch,
        "epoch diverged after event {}",
        at
    );

    let cat = live.bcdb().database().catalog().clone();
    let cs = live.bcdb().constraints().clone();
    let mut cold = MonitorSession::new(cat, cs);
    cold.set_config(config(EpochApply::Rebuild));
    cold.apply(&ChainEvent::Reorg {
        depth: 0,
        base: model.state.base.clone(),
        pending: model.state.pending.clone(),
    })
    .unwrap();

    let live_names: Vec<String> = live.pending_names().iter().map(|n| n.to_string()).collect();
    let cold_names: Vec<String> = cold.pending_names().iter().map(|n| n.to_string()).collect();
    prop_assert_eq!(live_names, cold_names, "pending order diverged after event {}", at);

    let rows = |s: &MonitorSession| -> Vec<String> {
        let db = s.bcdb().database();
        let mut out = Vec::new();
        for (rid, schema) in db.catalog().iter() {
            for (_, row) in db.relation(rid).scan_all() {
                out.push(format!("{} {:?} {:?}", schema.name(), row.tuple, row.source));
            }
        }
        out
    };
    prop_assert_eq!(rows(live), rows(&cold), "rows diverged after event {}", at);

    let lp = live.precomputed();
    let cp = cold.precomputed();
    prop_assert_eq!(&lp.viable, &cp.viable, "viability diverged after event {}", at);
    prop_assert_eq!(
        &lp.includable,
        &cp.includable,
        "inclusion status diverged after event {}",
        at
    );
    let n = lp.fd_graph.node_count();
    prop_assert_eq!(
        n,
        cp.fd_graph.node_count(),
        "GfTd node count diverged after event {}",
        at
    );
    let mut live_uf = lp.ind_uf.clone();
    let mut cold_uf = cp.ind_uf.clone();
    for a in 0..n {
        for b in a + 1..n {
            prop_assert_eq!(
                lp.fd_graph.has_edge(a, b),
                cp.fd_graph.has_edge(a, b),
                "GfTd edge ({}, {}) diverged after event {}",
                a,
                b,
                at
            );
            prop_assert_eq!(
                live_uf.connected(a, b),
                cold_uf.connected(a, b),
                "IND component of ({}, {}) diverged after event {}",
                a,
                b,
                at
            );
        }
    }

    let dc = parse_denial_constraint(&inst.query, cold.bcdb().database().catalog()).unwrap();
    let cold_dc = cold.register("q", dc);
    let lv = live.recheck(live_dc).verdict;
    let cv = cold.recheck(cold_dc).verdict;
    prop_assert_eq!(
        verdict_label(&lv),
        verdict_label(&cv),
        "verdict diverged after event {}: live {:?} vs cold {:?}",
        at,
        lv,
        cv
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// After every event of a random stream, the incremental session is
    /// byte-identical to a cold rebuild of the expected state.
    #[test]
    fn incremental_session_equals_cold_rebuild_after_every_event(
        (inst, ops) in instance_strategy().prop_flat_map(|inst| {
            let arity = inst.arity;
            (Just(inst), prop::collection::vec(op_strategy(arity), 1..12))
        }),
    ) {
        let Some((cat, cs, base, pending)) = named_export(&inst) else {
            return Ok(());
        };
        let mut live = MonitorSession::new(cat.clone(), cs.clone());
        live.set_config(config(EpochApply::Incremental));
        let dc = parse_denial_constraint(&inst.query, live.bcdb().database().catalog()).unwrap();
        let live_dc = live.register("q", dc);

        let mut model = Model::new(inst.arity, base, pending);

        // Bootstrap: a depth-0 resync loads the instance into the session.
        let boot = ChainEvent::Reorg {
            depth: 0,
            base: model.state.base.clone(),
            pending: model.state.pending.clone(),
        };
        model.history.push(State { base: Vec::new(), pending: Vec::new() });
        model.clean_suffix += 1;
        model.epoch += 1;
        live.apply(&boot).unwrap();
        assert_matches_cold(&inst, &mut live, live_dc, &model, 0)?;

        for (i, op) in ops.iter().enumerate() {
            let Some(event) = model.step(op) else { continue };
            live.apply(&event).unwrap();
            assert_matches_cold(&inst, &mut live, live_dc, &model, i + 1)?;
        }

        // The whole stream ran on the incremental path: the oracle never
        // fired and nothing fell back to a snapshot rebuild.
        prop_assert_eq!(live.stats().rebuilds, 0);
        prop_assert_eq!(live.stats().apply_fallbacks, 0);
    }
}
