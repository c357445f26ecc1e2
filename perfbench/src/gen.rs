//! Workload inputs, generated from the seed alone.
//!
//! Every workload is a relational state in the paper's Bitcoin schema
//! (`TxOut`, `TxIn`), a subscription fleet, and an ordered chain-event
//! feed. The generator keeps its own model of the chain (base rows,
//! pending transactions, unspent outputs, the blocks it mined) so that
//! every event it emits is valid against the state the server holds at
//! that point, and so the final state is known exactly for the oracle.

use bcdb_chain::{export, generate, ScenarioConfig};
use bcdb_monitor::event::NamedTuples;
use bcdb_monitor::ChainEvent;
use bcdb_storage::{Catalog, ConstraintSet, Tuple, Value};
use std::collections::{BTreeMap, HashSet};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ~Bitcoin-scale feed, a large duplicate-shape fleet.
    Fanout,
    /// A 2^k-clique double-spend ladder, a handful of heavy subscriptions.
    Ladder,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "fanout" => Some(Workload::Fanout),
            "ladder" => Some(Workload::Ladder),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fanout => "fanout",
            Workload::Ladder => "ladder",
        }
    }
}

/// Offered load and sizes of one workload. The event rates keep the
/// server busy about a fifth of the time on a 2-core host, so a round
/// rarely waits for the one before it and most polls find the core
/// idle. The sizes give the percentiles their samples within a
/// 40-second run (p90 wants 100, p99 wants 1000).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Open-loop `event` rate on the feeder connection (1/s).
    pub event_rate: f64,
    /// Open-loop `poll` rate on the tenant connection (1/s).
    pub poll_rate: f64,
    /// Events in each back-to-back burst (warm-up and the printed
    /// capacity); there are [`BURSTS`] on each side of the open loop.
    pub burst: usize,
    /// Subscriptions in the fleet.
    pub subscriptions: usize,
    /// Tenants the fleet is spread across.
    pub tenants: usize,
    /// Conflict pairs in the ladder (ladder only).
    pub rungs: usize,
}

impl Workload {
    pub fn shape(self) -> Shape {
        match self {
            Workload::Fanout => Shape {
                event_rate: 2.6,
                poll_rate: 60.0,
                burst: 30,
                subscriptions: 500,
                tenants: 40,
                rungs: 0,
            },
            Workload::Ladder => Shape {
                event_rate: 2.6,
                poll_rate: 60.0,
                burst: 30,
                subscriptions: 12,
                tenants: 12,
                rungs: 10,
            },
        }
    }
}

/// Capacity bursts before the open loop, and again after it.
pub const BURSTS: usize = 2;

/// One subscription of the fleet.
#[derive(Clone, Debug)]
pub struct Sub {
    pub tenant: String,
    pub name: String,
    pub text: String,
}

/// A pending transaction in the generator's model.
#[derive(Clone, Debug)]
pub struct Tx {
    pub name: String,
    pub rows: NamedTuples,
}

/// The chain state after some prefix of the feed.
#[derive(Clone, Debug, Default)]
pub struct State {
    pub base: NamedTuples,
    pub pending: Vec<Tx>,
}

impl Inputs {
    /// Where the open-loop events sit in `events`.
    pub fn open_range(&self) -> std::ops::Range<usize> {
        self.burst..self.burst + self.open_events
    }
}

impl State {
    /// The depth-0 reorg (resync) event carrying this state.
    pub fn resync_event(&self) -> ChainEvent {
        ChainEvent::Reorg {
            depth: 0,
            base: self.base.clone(),
            pending: self.named_pending(),
        }
    }

    fn named_pending(&self) -> Vec<(String, NamedTuples)> {
        self.pending
            .iter()
            .map(|t| (t.name.clone(), t.rows.clone()))
            .collect()
    }
}

/// Everything a run sends, plus what the oracle needs.
pub struct Inputs {
    pub catalog: Catalog,
    pub constraints: ConstraintSet,
    /// The state the server is bootstrapped with.
    pub initial: State,
    pub subs: Vec<Sub>,
    /// The feed: capacity bursts, the open loop, more capacity bursts.
    pub events: Vec<ChainEvent>,
    /// Events before the open loop (and after it): [`BURSTS`] bursts.
    pub burst: usize,
    /// Events in the open loop.
    pub open_events: usize,
    /// Where the first payment to a watched wallet sits in `events`
    /// (`fanout` only: before it, no round flips a verdict).
    pub first_watched: Option<usize>,
    /// The state after every event has been applied.
    pub final_state: State,
}

/// SplitMix64: a small, seedable, dependency-free generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// An unspent output.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Utxo {
    txid: String,
    ser: i64,
    pk: String,
    amount: i64,
}

fn text(v: Option<&Value>) -> String {
    match v {
        Some(Value::Text(s)) => s.to_string(),
        _ => String::new(),
    }
}

fn int(v: Option<&Value>) -> i64 {
    match v {
        Some(Value::Int(n)) => *n,
        _ => 0,
    }
}

fn txout(txid: &str, ser: i64, pk: &str, amount: i64) -> (String, Tuple) {
    (
        "TxOut".to_string(),
        Tuple::new([
            Value::text(txid),
            Value::Int(ser),
            Value::text(pk),
            Value::Int(amount),
        ]),
    )
}

fn txin(u: &Utxo, new_txid: &str) -> (String, Tuple) {
    (
        "TxIn".to_string(),
        Tuple::new([
            Value::text(&u.txid),
            Value::Int(u.ser),
            Value::text(&u.pk),
            Value::Int(u.amount),
            Value::text(new_txid),
            Value::text(format!("sig-{new_txid}")),
        ]),
    )
}

fn outputs_of(rows: &NamedTuples) -> Vec<Utxo> {
    rows.iter()
        .filter(|(rel, _)| rel == "TxOut")
        .map(|(_, t)| Utxo {
            txid: text(t.get(0)),
            ser: int(t.get(1)),
            pk: text(t.get(2)),
            amount: int(t.get(3)),
        })
        .collect()
}

fn spent_of(rows: &NamedTuples) -> Vec<(String, i64)> {
    rows.iter()
        .filter(|(rel, _)| rel == "TxIn")
        .map(|(_, t)| (text(t.get(0)), int(t.get(1))))
        .collect()
}

/// Base-state TxOut sums per key, in key order.
fn wallet_sums(base: &NamedTuples) -> BTreeMap<String, i64> {
    let mut sums = BTreeMap::new();
    for u in outputs_of(base) {
        *sums.entry(u.pk).or_insert(0) += u.amount;
    }
    sums
}

/// The generator's chain model.
struct Model {
    state: State,
    /// Confirmed outputs nothing (base or pending) spends, free to pay from.
    free: Vec<Utxo>,
    /// Every confirmed output, spent or not (a pending spend of one of
    /// these may be mined; a spend of anything else may not).
    confirmed: HashSet<(String, i64)>,
    /// Blocks the feed mined, oldest first, for reorgs.
    blocks: Vec<Vec<Tx>>,
    /// Pending payments the feed issued, oldest first.
    feed: Vec<FeedTx>,
    /// Every payment to a watched wallet, pending or mined.
    watched_txs: HashSet<String>,
    rng: Rng,
    salt: u64,
    counter: u64,
}

#[derive(Clone, Debug)]
struct FeedTx {
    name: String,
    input: Utxo,
    /// Pays a watched wallet: never evicted (mining or a reorg keeps the
    /// payment), so the alarm it raised stays raised.
    watched: bool,
}

impl Model {
    fn new(state: State, seed: u64) -> Model {
        let mut spent: HashSet<(String, i64)> = spent_of(&state.base).into_iter().collect();
        for tx in &state.pending {
            spent.extend(spent_of(&tx.rows));
        }
        let outs = outputs_of(&state.base);
        let confirmed = outs.iter().map(|u| (u.txid.clone(), u.ser)).collect();
        let free = outs
            .into_iter()
            .filter(|u| !spent.contains(&(u.txid.clone(), u.ser)))
            .collect();
        Model {
            state,
            free,
            confirmed,
            blocks: Vec::new(),
            feed: Vec::new(),
            watched_txs: HashSet::new(),
            rng: Rng::new(seed),
            salt: Rng::new(seed ^ 0xB1_0C).next_u64(),
            counter: 0,
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.counter += 1;
        let mut r = Rng::new(self.salt ^ self.counter);
        format!("{prefix}{:016x}", r.next_u64())
    }

    /// Takes a free output of at least `min` whose owner is not in `avoid`.
    fn take_free(&mut self, avoid: &HashSet<String>, min: i64) -> Option<Utxo> {
        let candidates: Vec<usize> = (0..self.free.len())
            .filter(|&i| !avoid.contains(&self.free[i].pk) && self.free[i].amount >= min)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let i = candidates[self.rng.below(candidates.len())];
        Some(self.free.swap_remove(i))
    }

    /// A fresh payment from a free output to `payee`, with change back to
    /// the payer.
    fn payment(
        &mut self,
        payee: &str,
        avoid: &HashSet<String>,
        watched: bool,
    ) -> Option<ChainEvent> {
        // A watched payment must clear every alarm threshold.
        let input = self.take_free(avoid, if watched { 3 * WHALE_MAX } else { 100 })?;
        let name = self.fresh_name("p");
        let pay = (input.amount / 3).max(1);
        let change = input.amount - pay - 10;
        let mut rows = vec![txin(&input, &name), txout(&name, 1, payee, pay)];
        if change > 0 {
            rows.push(txout(&name, 2, &input.pk, change));
        }
        self.state.pending.push(Tx {
            name: name.clone(),
            rows: rows.clone(),
        });
        if watched {
            self.watched_txs.insert(name.clone());
        }
        self.feed.push(FeedTx {
            name: name.clone(),
            input,
            watched,
        });
        Some(ChainEvent::TxArrived { name, tuples: rows })
    }

    /// Evicts the oldest unwatched feed payment.
    fn evict_feed(&mut self) -> Option<ChainEvent> {
        let pos = self.feed.iter().position(|f| !f.watched)?;
        let f = self.feed.remove(pos);
        self.state.pending.retain(|t| t.name != f.name);
        if self
            .confirmed
            .contains(&(f.input.txid.clone(), f.input.ser))
        {
            self.free.push(f.input);
        }
        Some(ChainEvent::TxEvicted { name: f.name })
    }

    /// Removes a named pending transaction without emitting anything.
    fn remove_pending(&mut self, name: &str) -> Option<Tx> {
        let pos = self.state.pending.iter().position(|t| t.name == name)?;
        Some(self.state.pending.remove(pos))
    }

    /// Appends a block of the given pending transactions to the base.
    fn mine(&mut self, names: &[String]) -> Vec<Tx> {
        let mut block = Vec::new();
        for name in names {
            if let Some(tx) = self.remove_pending(name) {
                self.feed.retain(|f| &f.name != name);
                for u in outputs_of(&tx.rows) {
                    self.confirmed.insert((u.txid.clone(), u.ser));
                    self.free.push(u);
                }
                self.state.base.extend(tx.rows.iter().cloned());
                block.push(tx);
            }
        }
        self.blocks.push(block.clone());
        block
    }

    /// Feed payments whose input is confirmed, oldest first.
    fn minable(&self, max: usize, newest_first: bool) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut order: Vec<&FeedTx> = self.feed.iter().collect();
        if newest_first {
            order.reverse();
        }
        for f in order {
            if out.len() >= max {
                break;
            }
            if self
                .confirmed
                .contains(&(f.input.txid.clone(), f.input.ser))
            {
                out.push(f.name.clone());
            }
        }
        out
    }

    fn mined_delta(&mut self, max: usize) -> Option<ChainEvent> {
        let names = self.minable(max, false);
        if names.is_empty() {
            return None;
        }
        let block = self.mine(&names);
        Some(ChainEvent::TxMinedDelta {
            mined: block.iter().map(|t| t.name.clone()).collect(),
            appended: block.iter().flat_map(|t| t.rows.iter().cloned()).collect(),
        })
    }

    /// Disconnects the newest `depth` feed blocks (their transactions go
    /// back to the pool) and mines `depth` divergent replacements; the
    /// event carries the whole post-reorg state.
    fn reorg(&mut self, depth: usize, per_block: usize) -> Option<ChainEvent> {
        if depth == 0 || self.blocks.len() < depth {
            return None;
        }
        for _ in 0..depth {
            let block = self.blocks.pop().expect("checked depth");
            let rows: usize = block.iter().map(|t| t.rows.len()).sum();
            let keep = self.state.base.len() - rows;
            self.state.base.truncate(keep);
            for tx in block {
                for u in outputs_of(&tx.rows) {
                    self.confirmed.remove(&(u.txid.clone(), u.ser));
                    self.free.retain(|f| !(f.txid == u.txid && f.ser == u.ser));
                }
                let input = spent_of(&tx.rows).first().cloned().unwrap_or_default();
                let in_row = tx.rows.iter().find(|(rel, _)| rel == "TxIn");
                let (pk, amount) = in_row
                    .map(|(_, t)| (text(t.get(2)), int(t.get(3))))
                    .unwrap_or_default();
                self.feed.push(FeedTx {
                    name: tx.name.clone(),
                    input: Utxo {
                        txid: input.0,
                        ser: input.1,
                        pk,
                        amount,
                    },
                    watched: self.watched_txs.contains(&tx.name),
                });
                self.state.pending.push(tx);
            }
        }
        for _ in 0..depth {
            let names = self.minable(per_block, true);
            self.mine(&names);
        }
        Some(ChainEvent::Reorg {
            depth: depth as u64,
            base: self.state.base.clone(),
            pending: self.state.named_pending(),
        })
    }
}

/// Builds a workload's inputs for a run of `seconds`.
pub fn build(workload: Workload, seed: u64, seconds: f64) -> Inputs {
    let shape = workload.shape();
    let open_events = (shape.event_rate * seconds).ceil() as usize;
    let bursts = BURSTS * shape.burst;
    let segments = [bursts, open_events, bursts];
    let mut inputs = match workload {
        Workload::Fanout => fanout(seed, shape, &segments),
        Workload::Ladder => ladder(seed, shape, segments.iter().sum()),
    };
    inputs.burst = bursts;
    inputs.open_events = open_events;
    inputs
}

fn named_state(ex: &bcdb_chain::RelationalExport) -> State {
    let name = |rel| ex.catalog.schema(rel).name().to_string();
    State {
        base: ex.base.iter().map(|(r, t)| (name(*r), t.clone())).collect(),
        pending: ex
            .pending
            .iter()
            .map(|(n, rows)| Tx {
                name: n.clone(),
                rows: rows.iter().map(|(r, t)| (name(*r), t.clone())).collect(),
            })
            .collect(),
    }
}

/// Fresh wallets the whale alarms watch: more than the open loop of a
/// 40-second run has payment slots for them (26), so every slot flips.
const WATCHED: usize = 32;

/// The whale alarms' thresholds, per template instance.
const WHALE: [i64; 3] = [1, 200, WHALE_MAX];
const WHALE_MAX: i64 = 5_000;

/// Serve-storm's three honest templates. The pk-pinned double spend
/// watches a base wallet; the whale alarm watches a fresh wallet that
/// only the feed pays. An alarm holds (the union pre-check decides it)
/// until the one payment its wallet ever gets arrives, and stays raised
/// (the payment is mined, never evicted): every alarm flips at most
/// once, in the round of a fresh payment.
fn fanout_constraint(i: usize, base: &[String], watched: &[String]) -> String {
    match i % 3 {
        0 => "q() <- TxIn(p, s, k1, a1, n1, g1), TxIn(p, s, k2, a2, n2, g2), n1 != n2".to_string(),
        1 => {
            let pk = &base[i % base.len()];
            format!("q() <- TxIn(p, s, '{pk}', a1, n1, g1), TxIn(p, s, k2, a2, n2, g2), n1 != n2")
        }
        _ => {
            let pk = &watched[i % watched.len()];
            let threshold = WHALE[(i / 3) % 3];
            format!("[q(sum(a)) <- TxOut(ntx, s, '{pk}', a)] >= {threshold}")
        }
    }
}

fn fanout(seed: u64, shape: Shape, segments: &[usize]) -> Inputs {
    let scenario = generate(&ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    });
    let ex = export(&scenario).expect("generated scenarios export");
    let initial = named_state(&ex);

    let wallets: Vec<String> = wallet_sums(&initial.base).into_keys().collect();
    let base: Vec<String> = wallets.iter().take(16).cloned().collect();
    let mut model = Model::new(initial.clone(), seed);
    let watched: Vec<String> = (0..WATCHED)
        .map(|i| format!("pkwatch{:08x}{i:02}", model.salt as u32))
        .collect();
    let watched_set: HashSet<String> = watched.iter().cloned().collect();
    // The order in which the watched wallets get their payment.
    let mut order: Vec<usize> = (0..watched.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, model.rng.below(i + 1));
    }

    let subs = (0..shape.subscriptions)
        .map(|i| Sub {
            tenant: format!("t{:03}", i % shape.tenants),
            name: format!("w{i}"),
            text: fanout_constraint(i, &base, &watched),
        })
        .collect();

    // A fixed block of event kinds, restarted in every segment, so every
    // seed and every burst offers the same mix: 14 fresh payments, 3
    // evictions, 2 mined blocks and 1 reorg per 20 events. In the open
    // loop (the middle segment) five of the payments go to watched
    // wallets until each has had one, so a quarter of its rounds flip
    // alarms, and every notification lands inside the measured window.
    // The seed picks the outputs spent, the payees, the watched order
    // and the reorg depth.
    const BLOCK: &[u8; 20] = b"AWAAEWAMWAAEAWAMWAER";
    let mut events = Vec::new();
    let mut next_watched = 0usize;
    let mut first_watched = None;
    for (segment, &n) in segments.iter().enumerate() {
        for step in 0..n {
            let event = match BLOCK[step % BLOCK.len()] {
                b'W' if segment == 1 && next_watched < watched.len() => {
                    let payee = watched[order[next_watched]].clone();
                    next_watched += 1;
                    first_watched.get_or_insert(events.len());
                    model.payment(&payee, &watched_set, true)
                }
                b'E' => model.evict_feed(),
                b'M' => model.mined_delta(6),
                b'R' => {
                    let depth = 1 + model.rng.below(2);
                    model.reorg(depth, 6)
                }
                _ => None,
            };
            // An arrival slot, or a slot whose event the state cannot take.
            let event = event.or_else(|| {
                let payee = wallets[model.rng.below(wallets.len())].clone();
                model.payment(&payee, &watched_set, false)
            });
            events.extend(event);
        }
    }
    Inputs {
        catalog: ex.catalog.clone(),
        constraints: ex.constraints.clone(),
        initial,
        subs,
        events,
        burst: 0,
        open_events: 0,
        first_watched,
        final_state: model.state,
    }
}

/// The ladder: a pending root transaction with one output per rung, and
/// per rung two transactions spending that output (a double spend). Every
/// rung depends on the root, so the whole ladder is one IND component
/// with 2^rungs maximal cliques.
///
/// Beside the ladder, fillers arrive and are mined; each filler has a
/// decoy double spend paying the beacon key. The beacon subscriptions are
/// violated while a decoy is pending and hold once its filler is mined,
/// so their flips land in rounds that also re-check the whole ladder.
fn ladder(seed: u64, shape: Shape, total: usize) -> Inputs {
    let scenario = generate(&ScenarioConfig {
        seed,
        wallets: 8,
        blocks: 8,
        txs_per_block: 6,
        pending_txs: 0,
        contradictions: 0,
        ..ScenarioConfig::default()
    });
    let ex = export(&scenario).expect("generated scenarios export");
    let mut initial = named_state(&ex);
    initial.pending.clear();
    let mut model = Model::new(initial, seed);

    let none = HashSet::new();
    let root_in = model
        .take_free(&none, 100)
        .expect("a base output funds the ladder");
    let root = model.fresh_name("root");
    let beacon = format!("pkbeacon{:08x}", model.rng.next_u64() as u32);
    let k = shape.rungs;
    let mut root_rows = vec![txin(&root_in, &root)];
    for i in 0..k {
        root_rows.push(txout(&root, i as i64 + 1, &root_in.pk, 1_000 + i as i64));
    }
    model.state.pending.push(Tx {
        name: root.clone(),
        rows: root_rows,
    });
    let mut sides_b: Vec<Tx> = Vec::new();
    for i in 0..k {
        let out = Utxo {
            txid: root.clone(),
            ser: i as i64 + 1,
            pk: root_in.pk.clone(),
            amount: 1_000 + i as i64,
        };
        for side in ["a", "b"] {
            let name = format!("{root}{side}{i}");
            let tx = Tx {
                rows: vec![
                    txin(&out, &name),
                    txout(&name, 1, &root_in.pk, out.amount - 1),
                ],
                name,
            };
            model.state.pending.push(tx.clone());
            if side == "b" {
                sides_b.push(tx);
            }
        }
    }
    let initial = model.state.clone();

    let mut subs: Vec<Sub> = (0..8)
        .map(|j| Sub {
            tenant: format!("l{j}"),
            name: format!("no-double-spend-{j}"),
            text: format!(
                "q() <- TxIn(p, s, k1, a1, n1, g1), TxIn(p, s, k2, a2, n2, g2), n1 != n2, a1 >= {j}"
            ),
        })
        .collect();
    for j in 0..shape.subscriptions.saturating_sub(8) {
        subs.push(Sub {
            tenant: format!("beacon{j}"),
            name: format!("beacon-{j}"),
            text: format!("q() <- TxOut(t, s, '{beacon}', a)"),
        });
    }

    // Per rung: a filler and its decoy arrive, side b leaves and
    // re-enters, the filler is mined (flushing the decoy).
    let mut events = Vec::with_capacity(total);
    let mut rung = 0usize;
    while events.len() < total {
        let b = sides_b[rung % k].clone();
        rung += 1;
        let Some(arrive) = model.payment(&root_in.pk, &none, false) else {
            break;
        };
        let filler = model.feed.last().expect("just issued").clone();
        events.push(arrive);
        let decoy = model.fresh_name("d");
        let decoy_rows = vec![
            txin(&filler.input, &decoy),
            txout(&decoy, 1, &beacon, filler.input.amount - 1),
        ];
        model.state.pending.push(Tx {
            name: decoy.clone(),
            rows: decoy_rows.clone(),
        });
        events.push(ChainEvent::TxArrived {
            name: decoy.clone(),
            tuples: decoy_rows,
        });
        events.push(ChainEvent::TxEvicted {
            name: b.name.clone(),
        });
        model.remove_pending(&b.name);
        events.push(ChainEvent::TxArrived {
            name: b.name.clone(),
            tuples: b.rows.clone(),
        });
        model.state.pending.push(b);
        let block = model.mine(std::slice::from_ref(&filler.name));
        model.remove_pending(&decoy);
        events.push(ChainEvent::TxMinedDelta {
            mined: vec![filler.name.clone(), decoy],
            appended: block.iter().flat_map(|t| t.rows.iter().cloned()).collect(),
        });
    }
    events.truncate(total);
    // The final state must match the truncated feed: replay it.
    let final_state = replay_state(&initial, &events);
    Inputs {
        catalog: ex.catalog.clone(),
        constraints: ex.constraints.clone(),
        initial,
        subs,
        events,
        burst: 0,
        open_events: 0,
        first_watched: None,
        final_state,
    }
}

/// Applies `events` to `state` the way the monitor does.
pub fn replay_state(state: &State, events: &[ChainEvent]) -> State {
    let mut s = state.clone();
    for e in events {
        match e {
            ChainEvent::TxArrived { name, tuples } => s.pending.push(Tx {
                name: name.clone(),
                rows: tuples.clone(),
            }),
            ChainEvent::TxEvicted { name } => s.pending.retain(|t| &t.name != name),
            ChainEvent::TxMinedDelta { mined, appended } => {
                s.pending.retain(|t| !mined.contains(&t.name));
                s.base.extend(appended.iter().cloned());
            }
            ChainEvent::TxMined { base, pending, .. } | ChainEvent::Reorg { base, pending, .. } => {
                s.base = base.clone();
                s.pending = pending
                    .iter()
                    .map(|(n, rows)| Tx {
                        name: n.clone(),
                        rows: rows.clone(),
                    })
                    .collect();
            }
            ChainEvent::ReorgDelta { .. } => unreachable!("the generator emits snapshot reorgs"),
        }
    }
    s
}

/// The kind label of an event, as the per-layer metrics name it.
pub fn kind(e: &ChainEvent) -> &'static str {
    match e {
        ChainEvent::TxArrived { .. } => "arrival",
        ChainEvent::TxEvicted { .. } => "evict",
        ChainEvent::TxMined { .. } | ChainEvent::TxMinedDelta { .. } => "mined",
        ChainEvent::Reorg { .. } | ChainEvent::ReorgDelta { .. } => "reorg",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = build(Workload::Fanout, 3, 2.0);
        let b = build(Workload::Fanout, 3, 2.0);
        let enc = |i: &Inputs| i.events.iter().map(|e| e.encode()).collect::<Vec<_>>();
        assert_eq!(enc(&a), enc(&b));
        let c = build(Workload::Fanout, 4, 2.0);
        assert_ne!(enc(&a), enc(&c));
    }

    #[test]
    fn final_state_matches_replay() {
        for w in [Workload::Fanout, Workload::Ladder] {
            let inputs = build(w, 9, 3.0);
            let replayed = replay_state(&inputs.initial, &inputs.events);
            let names = |s: &State| {
                let mut v: Vec<String> = s.pending.iter().map(|t| t.name.clone()).collect();
                v.sort();
                v
            };
            assert_eq!(names(&replayed), names(&inputs.final_state), "{w:?}");
            assert_eq!(replayed.base.len(), inputs.final_state.base.len(), "{w:?}");
        }
    }
}
