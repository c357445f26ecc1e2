//! A driver model of a chain event stream: random abstract mutations —
//! arrivals, evictions, mined blocks in both snapshot and delta form,
//! snapshot reorgs and depth-d delta reorgs — materialized against the
//! state the events describe, so every generated event is valid and the
//! expected state after each one is known exactly.

use super::instances::{NamedRows, NamedTxs};
use bcdb_monitor::ChainEvent;
use bcdb_storage::{tuple, Tuple, Value};
use proptest::prelude::*;

/// One abstract mutation, materialized against the running model.
#[derive(Clone, Debug)]
pub enum Op {
    /// A new transaction enters the mempool.
    Arrive { rows: Vec<Vec<i64>>, xs: Vec<i64> },
    /// A pending transaction is evicted.
    Evict { pick: usize },
    /// A block is mined; `snapshot` picks the wire form (`TxMined` with a
    /// full post-state snapshot vs the thin `TxMinedDelta`).
    Mine {
        mask: u64,
        coinbase: bool,
        snapshot: bool,
    },
    /// A reorg announced as a full post-state snapshot, restoring an
    /// earlier chain state.
    ReorgSnap { back: usize },
    /// A reorg announced as a depth only, replayed from journaled
    /// inverse deltas.
    ReorgDelta { depth: usize },
}

pub fn op_strategy(arity: usize) -> impl Strategy<Value = Op> {
    let row = move || prop::collection::vec(0..4i64, arity..=arity);
    let arrive = move || {
        (
            prop::collection::vec(row(), 0..3),
            prop::collection::vec(0..4i64, 0..2),
        )
            .prop_filter("transactions must be non-empty", |(r, s)| {
                !r.is_empty() || !s.is_empty()
            })
            .prop_map(|(rows, xs)| Op::Arrive { rows, xs })
    };
    let mine = || {
        (0..u64::MAX, prop::bool::ANY, prop::bool::ANY).prop_map(|(mask, coinbase, snapshot)| {
            Op::Mine {
                mask,
                coinbase,
                snapshot,
            }
        })
    };
    // The vendored prop_oneof! has no weight syntax; repeating arms
    // biases the stream toward a populated mempool and mined blocks.
    prop_oneof![
        arrive(),
        arrive(),
        (0..8usize).prop_map(|pick| Op::Evict { pick }),
        mine(),
        mine(),
        (0..6usize).prop_map(|back| Op::ReorgSnap { back }),
        (1..4usize).prop_map(|depth| Op::ReorgDelta { depth }),
    ]
}

/// A chain state the monitor should hold: base rows in append order plus
/// the ordered pending set.
#[derive(Clone)]
pub struct State {
    pub base: NamedRows,
    pub pending: NamedTxs,
}

/// The driver's model of the session: the current state, the pre-state
/// of every undo record the session holds (bottom → top), and how many of
/// the topmost records have seen no intra-epoch churn since they were
/// written (only those are exactly invertible by the model).
pub struct Model {
    arity: usize,
    pub state: State,
    pub history: Vec<State>,
    pub clean_suffix: usize,
    pub epoch: u64,
    next: usize,
}

impl Model {
    pub fn new(arity: usize, base: NamedRows, pending: NamedTxs) -> Model {
        Model {
            arity,
            state: State { base, pending },
            history: Vec::new(),
            clean_suffix: 0,
            epoch: 0,
            next: 0,
        }
    }

    /// Materializes one op, or `None` when it does not apply in the
    /// current state.
    pub fn step(&mut self, op: &Op) -> Option<ChainEvent> {
        match op {
            Op::Arrive { rows, xs } => {
                let name = format!("a{}", self.next);
                self.next += 1;
                let tuples: Vec<(String, Tuple)> = rows
                    .iter()
                    .map(|row| {
                        (
                            "R".to_string(),
                            Tuple::new(row.iter().map(|&v| Value::Int(v))),
                        )
                    })
                    .chain(xs.iter().map(|&x| ("S".to_string(), tuple![x])))
                    .collect();
                self.state.pending.push((name.clone(), tuples.clone()));
                self.clean_suffix = 0;
                Some(ChainEvent::TxArrived { name, tuples })
            }
            Op::Evict { pick } => {
                if self.state.pending.is_empty() {
                    return None;
                }
                let idx = pick % self.state.pending.len();
                let (name, _) = self.state.pending.remove(idx);
                self.clean_suffix = 0;
                Some(ChainEvent::TxEvicted { name })
            }
            Op::Mine {
                mask,
                coinbase,
                snapshot,
            } => {
                let n = self.state.pending.len();
                if n == 0 {
                    return None;
                }
                // A non-empty subset of the pending set, in pending order.
                let sel = if n >= 63 {
                    *mask
                } else {
                    mask % ((1 << n) - 1) + 1
                };
                let mined: Vec<usize> = (0..n).filter(|i| sel >> i & 1 == 1).collect();
                if mined.is_empty() {
                    return None;
                }
                let pre = self.state.clone();
                let names: Vec<String> = mined
                    .iter()
                    .map(|&i| self.state.pending[i].0.clone())
                    .collect();
                let mut appended: NamedRows = mined
                    .iter()
                    .flat_map(|&i| self.state.pending[i].1.iter().cloned())
                    .collect();
                if *coinbase {
                    // A block-reward-style row no transaction carries; its
                    // key is outside the generator's value pool so it never
                    // breaks the base key.
                    let row: Vec<i64> = (0..self.arity).map(|_| 100 + self.next as i64).collect();
                    self.next += 1;
                    appended.push((
                        "R".to_string(),
                        Tuple::new(row.iter().map(|&v| Value::Int(v))),
                    ));
                }
                self.state.base.extend(appended.iter().cloned());
                let mut keep = 0;
                self.state.pending.retain(|_| {
                    let m = !mined.contains(&keep);
                    keep += 1;
                    m
                });
                self.history.push(pre);
                self.clean_suffix += 1;
                self.epoch += 1;
                Some(if *snapshot {
                    ChainEvent::TxMined {
                        mined: names,
                        base: self.state.base.clone(),
                        pending: self.state.pending.clone(),
                    }
                } else {
                    ChainEvent::TxMinedDelta {
                        mined: names,
                        appended,
                    }
                })
            }
            Op::ReorgSnap { back } => {
                if self.history.is_empty() {
                    return None;
                }
                let depth = back % self.history.len() + 1;
                let target = self.history[self.history.len() - depth].clone();
                let pre = std::mem::replace(&mut self.state, target);
                self.history.push(pre);
                self.clean_suffix += 1;
                self.epoch += 1;
                Some(ChainEvent::Reorg {
                    depth: depth as u64,
                    base: self.state.base.clone(),
                    pending: self.state.pending.clone(),
                })
            }
            Op::ReorgDelta { depth } => {
                let d = *depth;
                if self.history.len() < d || self.clean_suffix < d {
                    return None;
                }
                let target = self.history[self.history.len() - d].clone();
                let pre = std::mem::replace(&mut self.state, target);
                self.history.truncate(self.history.len() - d);
                self.history.push(pre);
                self.clean_suffix = self.clean_suffix - d + 1;
                self.epoch += 1;
                Some(ChainEvent::ReorgDelta { depth: d as u64 })
            }
        }
    }
}
