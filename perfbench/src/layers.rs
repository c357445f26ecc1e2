//! The traced in-process replay: the same generated inputs, re-executed
//! through each layer's public functions with a span around every call.
//!
//! * server — `wire::parse_request` + `ChainEvent::decode`,
//!   `ServerCore::{ingest, run_round, poll}`, `wire::{poll_line, notify_line}`;
//! * monitor — `MonitorSession::{apply, recheck_round}` with the fleet's
//!   registrations, at the served thread count and at one thread;
//! * storage — `Journal::append`, a disk snapshot of the replayed state,
//!   and `ServerCore::recover` on a copy of the killed server's store;
//! * core — cold `Solver::check` per distinct constraint, the same check
//!   with a warm `SharedEnumCache`, `Precomputed::build`;
//! * graph — `maximal_cliques` over each component of the fd graph;
//! * query — `parse_denial_constraint` and prepared `holds` per world.

use crate::gen::{kind, Inputs};
use crate::stats::{mean, median, quantile};
use crate::tcp::TcpReport;
use crate::trace::{Tracer, NO_EVENT};
use bcdb_core::{
    get_maximal, query_components, BlockchainDb, BudgetSpec, Precomputed, PreparedConstraint,
    RetryPolicy, SharedEnumCache, Solver, Verdict,
};
use bcdb_graph::{maximal_cliques, CliqueStrategy, Visit};
use bcdb_monitor::{ChainEvent, Journal, MonitorConfig, MonitorSession, RoundCheck};
use bcdb_query::{parse_denial_constraint, DenialConstraint};
use bcdb_server::wire::{self, Line, Request};
use bcdb_server::{ServeConfig, ServerCore};
use bcdb_storage::{encode_snapshot, DiskBackend, StorageBackend, TxId};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One reported metric: name, value, unit, and the samples behind it.
pub type Metric = (&'static str, f64, &'static str, usize);

/// Replayed events: enough to meet every event kind the feed has early
/// on and, on `fanout`, the first 20 events from its first watched
/// payment (its only verdict flips), capped so the traced run stays
/// short.
fn replay_len(inputs: &Inputs) -> usize {
    let events = &inputs.events;
    let mut need = 32usize;
    for k in ["arrival", "evict", "mined", "reorg"] {
        if let Some(i) = events.iter().position(|e| kind(e) == k) {
            need = need.max(i + 1);
        }
    }
    if let Some(i) = inputs.first_watched {
        need = need.max(i + 20);
    }
    need.min(96).min(events.len())
}

fn ms(ns: &[f64]) -> f64 {
    median(ns).unwrap_or(0.0) / 1e6
}

fn us(ns: &[f64]) -> f64 {
    median(ns).unwrap_or(0.0) / 1e3
}

fn label(v: &Verdict) -> &'static str {
    match v {
        Verdict::Holds => "holds",
        Verdict::Violated(_) => "violated",
        Verdict::Unknown(_) => "unknown",
    }
}

fn cold_db(inputs: &Inputs, state: &crate::gen::State) -> Result<BlockchainDb, String> {
    let rel = |name: &str| {
        inputs
            .catalog
            .resolve(name)
            .ok_or_else(|| format!("unknown relation {name}"))
    };
    let mut db = BlockchainDb::new(inputs.catalog.clone(), inputs.constraints.clone());
    for (name, t) in &state.base {
        db.insert_current(rel(name)?, t.clone())
            .map_err(|e| e.to_string())?;
    }
    for tx in &state.pending {
        let rows: Result<Vec<_>, String> = tx
            .rows
            .iter()
            .map(|(n, t)| Ok((rel(n)?, t.clone())))
            .collect();
        db.add_transaction(tx.name.clone(), rows?)
            .map_err(|e| e.to_string())?;
    }
    Ok(db)
}

/// The single-tenant oracle: a cold solver over `state` per distinct
/// constraint text, with a generous budget. Returns text → verdict label.
pub fn oracle(inputs: &Inputs) -> Result<BTreeMap<String, &'static str>, String> {
    let db = cold_db(inputs, &inputs.final_state)?;
    let mut solver = Solver::builder(db)
        .budget(BudgetSpec {
            timeout: Some(Duration::from_secs(60)),
            ..BudgetSpec::UNLIMITED
        })
        .build();
    let mut out = BTreeMap::new();
    for s in &inputs.subs {
        if out.contains_key(&s.text) {
            continue;
        }
        let dc = parse_denial_constraint(&s.text, &inputs.catalog).map_err(|e| e.to_string())?;
        let outcome = solver.check(&dc).map_err(|e| e.to_string())?;
        out.insert(s.text.clone(), label(&outcome.verdict));
    }
    Ok(out)
}

fn served_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Replays the feed through a `ServerCore` (the served stack without
/// TCP). With a tracer, spans wrap each layer call; without, only the
/// total wall time is kept.
struct CoreReplay {
    wall: Duration,
    checks: Vec<f64>,
    flips: Vec<f64>,
    refusals: u64,
}

fn replay_core(
    inputs: &Inputs,
    events: &[ChainEvent],
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<CoreReplay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut core = ServerCore::open(
        inputs.catalog.clone(),
        inputs.constraints.clone(),
        dir,
        ServeConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    for s in &inputs.subs {
        ids.push(
            core.subscribe(&s.tenant, &s.name, &s.text, 1, true)
                .map_err(|e| e.to_string())?,
        );
    }
    core.ingest(&inputs.initial.resync_event())
        .map_err(|e| e.to_string())?;
    core.run_round();
    core.take_notifications(&ids, usize::MAX);
    let lines: Vec<String> = events
        .iter()
        .map(|e| {
            Line::new()
                .str("op", "event")
                .str("payload", &e.encode())
                .finish()
        })
        .collect();

    let mut out = CoreReplay {
        wall: Duration::ZERO,
        checks: Vec::new(),
        flips: Vec::new(),
        refusals: 0,
    };
    let start = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let outer = tracer.as_deref_mut().map(|t| t.enter("event", i));
        let span = |t: &mut Option<&mut Tracer>, name| t.as_deref_mut().map(|t| t.enter(name, i));
        let done = |t: &mut Option<&mut Tracer>, id: Option<usize>| {
            if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
                t.exit(id);
            }
        };
        let s = span(&mut tracer, "decode");
        let event = match wire::parse_request(line) {
            Ok(Request::Event { payload }) => ChainEvent::decode(&payload).map_err(|e| e.0)?,
            other => {
                return Err(format!(
                    "replayed line did not parse as an event: {other:?}"
                ))
            }
        };
        done(&mut tracer, s);
        let s = span(&mut tracer, "ingest");
        core.ingest(&event).map_err(|e| e.to_string())?;
        done(&mut tracer, s);
        let s = span(&mut tracer, "round");
        let round = core.run_round();
        done(&mut tracer, s);
        for n in core.take_notifications(&ids, usize::MAX) {
            let s = span(&mut tracer, "notify_encode");
            std::hint::black_box(wire::notify_line(&n));
            done(&mut tracer, s);
        }
        done(&mut tracer, outer);
        out.checks.push(round.checks as f64);
        out.flips.push(round.flips as f64);
        out.refusals += round.refusals as u64;
    }
    out.wall = start.elapsed();
    if let Some(t) = tracer {
        for _ in 0..3 {
            for &id in &ids {
                t.span("poll", NO_EVENT, || {
                    let snap = core.poll(id).expect("subscribed");
                    std::hint::black_box(wire::poll_line(&snap));
                });
            }
        }
    }
    Ok(out)
}

/// What one monitor replay measured.
#[derive(Default)]
struct MonitorReplay {
    dirty: Vec<f64>,
    rechecks: u64,
    flips: u64,
    worlds: u64,
    snapshot_kb: Vec<f64>,
}

fn monitor_session(inputs: &Inputs, dir: &Path) -> Result<MonitorSession, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut session = MonitorSession::new(inputs.catalog.clone(), inputs.constraints.clone());
    session.set_config(MonitorConfig::default());
    session.attach_shared_cache(Arc::new(SharedEnumCache::new()));
    session.attach_journal(Journal::create(dir.join("journal.log")).map_err(|e| e.to_string())?);
    session.attach_backend(Box::new(DiskBackend::new(dir).map_err(|e| e.to_string())?));
    for s in &inputs.subs {
        let dc = parse_denial_constraint(&s.text, &inputs.catalog).map_err(|e| e.to_string())?;
        session.register(s.name.clone(), dc);
    }
    Ok(session)
}

fn round_checks(session: &MonitorSession) -> Vec<RoundCheck> {
    // The server clamps every check to its tenant's round envelope.
    let budget = BudgetSpec {
        timeout: Some(ServeConfig::default().envelope),
        ..BudgetSpec::UNLIMITED
    };
    session
        .dirty_indices()
        .into_iter()
        .map(|slot| RoundCheck {
            slot,
            budget,
            retry: RetryPolicy::NONE,
        })
        .collect()
}

/// Replays the feed through a `MonitorSession`. The `served` replay runs
/// rounds at the served thread count and also times the storage calls;
/// the other runs them on one thread with the telemetry counters on, for
/// the world count.
fn replay_monitor(
    inputs: &Inputs,
    events: &[ChainEvent],
    dir: &Path,
    served: bool,
    t: &mut Tracer,
) -> Result<MonitorReplay, String> {
    let (threads, round_name) = if served {
        (served_threads(), "recheck_round")
    } else {
        (1, "recheck_round_1")
    };
    let mut session = monitor_session(inputs, dir)?;
    session
        .apply(&inputs.initial.resync_event())
        .map_err(|e| e.to_string())?;
    let checks = round_checks(&session);
    let mut last: BTreeMap<usize, &'static str> = BTreeMap::new();
    for r in session.recheck_round(&checks, threads) {
        last.insert(r.slot, label(&r.verdict.verdict));
    }
    let snap_dir = dir.join("snapshots-standalone");
    let mut snapshots = DiskBackend::new(&snap_dir).map_err(|e| e.to_string())?;
    let mut journal =
        Journal::create(dir.join("journal-standalone.log")).map_err(|e| e.to_string())?;
    let mut out = MonitorReplay::default();
    for (i, event) in events.iter().enumerate() {
        let name = match kind(event) {
            "arrival" => "apply_arrival",
            "evict" => "apply_evict",
            "mined" => "apply_mined",
            _ => "apply_reorg",
        };
        t.span(name, i, || session.apply(event))
            .map_err(|e| format!("event {i} ({}): {e}", kind(event)))?;
        let checks = round_checks(&session);
        out.dirty.push(checks.len() as f64);
        let before = bcdb_telemetry::probes::QUERY_WORLDS_EVALUATED.get();
        bcdb_telemetry::set_enabled(!served);
        let results = t.span(round_name, i, || session.recheck_round(&checks, threads));
        bcdb_telemetry::set_enabled(false);
        out.worlds += bcdb_telemetry::probes::QUERY_WORLDS_EVALUATED.get() - before;
        out.rechecks += results.len() as u64;
        for r in results {
            let now = label(&r.verdict.verdict);
            if last.insert(r.slot, now) != Some(now) {
                out.flips += 1;
            }
        }
        if served {
            let epoch = session.epoch();
            t.span("journal_append", i, || journal.append(epoch, event))
                .map_err(|e| e.to_string())?;
            if event.advances_epoch() {
                let snap = session.bcdb().to_db_snapshot(epoch);
                out.snapshot_kb
                    .push(encode_snapshot(&snap).len() as f64 / 1024.0);
                t.span("snapshot", i, || snapshots.persist_snapshot(&snap))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&snap_dir);
    Ok(out)
}

/// Core, graph and query work for every distinct constraint over `db`.
#[derive(Default)]
struct CheckSample {
    cliques: Vec<f64>,
    worlds: Vec<f64>,
    components: Vec<f64>,
    bk_ms: Vec<f64>,
    ticks: u64,
    checks: u64,
}

fn sample_checks(
    db: &BlockchainDb,
    dcs: &[DenialConstraint],
    t: &mut Tracer,
    at: usize,
    out: &mut CheckSample,
) -> Result<(), String> {
    let pre = t.span("precompute", at, || Precomputed::build(db));
    for dc in dcs {
        // Cold: a fresh single-tenant solver.
        let mut cold = Solver::builder(db.clone()).build();
        let outcome = t
            .span("check_cold", at, || cold.check(dc))
            .map_err(|e| e.to_string())?;
        out.cliques.push(outcome.stats.cliques_enumerated as f64);
        out.worlds.push(outcome.stats.worlds_evaluated as f64);
        // Governor ticks, counted on a second cold check with the
        // counters on (the timed one above runs with them off).
        let mut counted = Solver::builder(db.clone()).build();
        let before = bcdb_telemetry::probes::GOVERNOR_TICKS.get();
        bcdb_telemetry::set_enabled(true);
        let _ = counted.check(dc);
        bcdb_telemetry::set_enabled(false);
        out.ticks += bcdb_telemetry::probes::GOVERNOR_TICKS.get() - before;
        out.checks += 1;
        // Hit: the same check again with a warm shared cache.
        let mut warm = Solver::builder(db.clone())
            .shared_cache(Arc::new(SharedEnumCache::new()))
            .build();
        let _ = warm.check(dc);
        t.span("check_hit", at, || warm.check(dc))
            .map_err(|e| e.to_string())?;

        // Graph: Bron–Kerbosch over each component; query: holds on
        // each maximal world (capped, so one check cannot dominate).
        let comps = query_components(db, &pre, dc.body());
        out.components.push(comps.len() as f64);
        let mut dbm = db.database().clone();
        let pc = PreparedConstraint::prepare(&mut dbm, dc);
        let mut bk = Duration::ZERO;
        let mut evaluated = 0usize;
        for comp in &comps {
            let (sub, map) = pre.fd_graph.induced_subgraph(comp);
            let mut cliques: Vec<Vec<usize>> = Vec::new();
            let t0 = Instant::now();
            t.span("bk", at, || {
                maximal_cliques(&sub, CliqueStrategy::default(), |c| {
                    cliques.push(c.to_vec());
                    Visit::Continue
                })
            });
            bk += t0.elapsed();
            for clique in cliques {
                if evaluated >= 256 {
                    break;
                }
                evaluated += 1;
                let txs: Vec<TxId> = clique.iter().map(|&i| TxId(map[i] as u32)).collect();
                let world = get_maximal(db, &pre, &txs);
                t.span("world_check", at, || {
                    std::hint::black_box(pc.holds(&dbm, &world))
                });
            }
        }
        out.bk_ms.push(bk.as_secs_f64() * 1e3);
    }
    Ok(())
}

/// Runs the traced replay and returns every per-layer metric.
pub fn run(
    inputs: &Inputs,
    tcp: &TcpReport,
    e2e: &BTreeMap<&'static str, f64>,
    work: &Path,
    trace_out: &Path,
) -> Result<Vec<Metric>, String> {
    let events = &inputs.events[..replay_len(inputs)];
    let n = events.len();

    // Server layer: untraced, then traced, over the same inputs.
    let plain = replay_core(inputs, events, &work.join("replay-plain"), None)?;
    let mut t = Tracer::new();
    let traced = replay_core(inputs, events, &work.join("replay-traced"), Some(&mut t))?;
    let overhead = traced.wall.as_secs_f64() / plain.wall.as_secs_f64().max(1e-9) - 1.0;

    // Monitor layer at the served thread count and at one thread.
    let mon = replay_monitor(inputs, events, &work.join("replay-monitor"), true, &mut t)?;
    let mon1 = replay_monitor(
        inputs,
        events,
        &work.join("replay-monitor-1"),
        false,
        &mut t,
    )?;

    // Core, graph and query over the start and end states.
    let mut dcs: Vec<DenialConstraint> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for s in &inputs.subs {
        let dc = t
            .span("parse", NO_EVENT, || {
                parse_denial_constraint(&s.text, &inputs.catalog)
            })
            .map_err(|e| e.to_string())?;
        if seen.insert(s.text.clone()) {
            dcs.push(dc);
        }
    }
    let mut sample = CheckSample::default();
    let start_db = cold_db(inputs, &inputs.initial)?;
    sample_checks(&start_db, &dcs, &mut t, NO_EVENT, &mut sample)?;
    let end_state = crate::gen::replay_state(&inputs.initial, events);
    let end_db = cold_db(inputs, &end_state)?;
    sample_checks(&end_db, &dcs, &mut t, n.saturating_sub(1), &mut sample)?;

    // Storage: recovery of the killed server's store.
    let mut recover_ms = Vec::new();
    let mut wal_tail = 0.0;
    if let Some(store) = &tcp.killed_store {
        let (core, rec) = t
            .span("recover", NO_EVENT, || {
                ServerCore::recover(
                    inputs.catalog.clone(),
                    inputs.constraints.clone(),
                    store,
                    ServeConfig::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        drop(core);
        recover_ms = t.self_times("recover");
        wal_tail = rec.monitor.wal_tail_records as f64;
    }
    t.write(trace_out)
        .map_err(|e| format!("write trace: {e}"))?;
    for d in [
        "replay-plain",
        "replay-traced",
        "replay-monitor",
        "replay-monitor-1",
    ] {
        let _ = std::fs::remove_dir_all(work.join(d));
    }

    // Derived figures.
    let decode_us = us(&t.self_times("decode"));
    let ingest_ms = ms(&t.self_times("ingest"));
    let round_ms = ms(&t.self_times("round"));
    // The in-process per-event total: decode + ingest + round (the
    // `event` span less the notification encoding nested in it), as a
    // mean to match `event_mean_ms`.
    let event_ms = mean(&t.totals_less("event", "notify_encode")) / 1e6;
    let recheck_ms = ms(&t.self_times("recheck_round"));
    let recheck1_ms = ms(&t.self_times("recheck_round_1"));
    let poll_us = us(&t.self_times("poll"));
    let kb = &mon.snapshot_kb;
    let stat = |k: &str| tcp.stats.get(k).copied().unwrap_or(0) as f64;
    let lookups = stat("cache_hits") + stat("cache_misses");
    let e2e_get = |k: &str| e2e.get(k).copied().unwrap_or(0.0);
    let late_p99 = quantile(&tcp.late_ms, 0.99)
        .map(|q| q.value)
        .unwrap_or(f64::NAN);

    Ok(vec![
        ("server.event_decode_us", decode_us, "us", n),
        ("server.ingest_ms", ingest_ms, "ms", n),
        ("server.round_ms", round_ms, "ms", n),
        ("server.round_overhead_ms", round_ms - recheck_ms, "ms", n),
        ("server.checks_per_event", mean(&traced.checks), "count", n),
        ("server.flips_per_event", mean(&traced.flips), "count", n),
        ("server.refusals", traced.refusals as f64, "count", n),
        ("server.poll_us", poll_us, "us", t.self_times("poll").len()),
        (
            "server.notify_encode_us",
            us(&t.self_times("notify_encode")),
            "us",
            t.self_times("notify_encode").len(),
        ),
        (
            "server.poll_wait_ms",
            e2e_get("poll_p50_ms") - poll_us / 1e3,
            "ms",
            tcp.poll_ms.len(),
        ),
        (
            "server.net_ms",
            e2e_get("event_mean_ms") - event_ms,
            "ms",
            tcp.event_ms.len(),
        ),
        (
            "monitor.apply_arrival_ms",
            ms(&t.self_times("apply_arrival")),
            "ms",
            t.self_times("apply_arrival").len(),
        ),
        (
            "monitor.apply_evict_ms",
            ms(&t.self_times("apply_evict")),
            "ms",
            t.self_times("apply_evict").len(),
        ),
        (
            "monitor.apply_mined_ms",
            ms(&t.self_times("apply_mined")),
            "ms",
            t.self_times("apply_mined").len(),
        ),
        (
            "monitor.apply_reorg_ms",
            ms(&t.self_times("apply_reorg")),
            "ms",
            t.self_times("apply_reorg").len(),
        ),
        ("monitor.dirty_per_event", mean(&mon.dirty), "count", n),
        (
            "monitor.recheck_useful_ratio",
            mon.flips as f64 / mon.rechecks.max(1) as f64,
            "ratio",
            mon.rechecks as usize,
        ),
        ("monitor.recheck_round_ms", recheck_ms, "ms", n),
        (
            "monitor.recheck_parallel_speedup",
            recheck1_ms / recheck_ms.max(1e-9),
            "ratio",
            n,
        ),
        (
            "storage.journal_append_us",
            us(&t.self_times("journal_append")),
            "us",
            t.self_times("journal_append").len(),
        ),
        (
            "storage.snapshot_ms",
            ms(&t.self_times("snapshot")),
            "ms",
            t.self_times("snapshot").len(),
        ),
        (
            "storage.snapshot_kb",
            median(kb).unwrap_or(0.0),
            "KiB",
            kb.len(),
        ),
        ("storage.bytes_per_event", tcp.bytes_per_event, "B", 1),
        (
            "storage.recover_ms",
            ms(&recover_ms),
            "ms",
            recover_ms.len(),
        ),
        ("storage.wal_tail_records", wal_tail, "count", 1),
        (
            "core.check_cold_ms",
            ms(&t.self_times("check_cold")),
            "ms",
            t.self_times("check_cold").len(),
        ),
        (
            "core.check_hit_us",
            us(&t.self_times("check_hit")),
            "us",
            t.self_times("check_hit").len(),
        ),
        (
            "core.worlds_per_check",
            mean(&sample.worlds),
            "count",
            sample.worlds.len(),
        ),
        (
            "core.cliques_per_check",
            mean(&sample.cliques),
            "count",
            sample.cliques.len(),
        ),
        (
            "core.cache_hit_ratio",
            stat("cache_hits") / lookups.max(1.0),
            "ratio",
            lookups as usize,
        ),
        (
            "core.invalidations_per_event",
            stat("cache_invalidations") / stat("events").max(1.0),
            "count",
            stat("events") as usize,
        ),
        (
            "core.precompute_ms",
            ms(&t.self_times("precompute")),
            "ms",
            t.self_times("precompute").len(),
        ),
        (
            "graph.bk_ms",
            median(&sample.bk_ms).unwrap_or(0.0),
            "ms",
            sample.bk_ms.len(),
        ),
        (
            "graph.components_per_check",
            mean(&sample.components),
            "count",
            sample.components.len(),
        ),
        (
            "query.world_check_us",
            us(&t.self_times("world_check")),
            "us",
            t.self_times("world_check").len(),
        ),
        (
            "query.worlds_per_event",
            mon1.worlds as f64 / n.max(1) as f64,
            "count",
            n,
        ),
        (
            "query.parse_us",
            us(&t.self_times("parse")),
            "us",
            t.self_times("parse").len(),
        ),
        (
            "governor.ticks_per_check",
            sample.ticks as f64 / sample.checks.max(1) as f64,
            "count",
            sample.checks as usize,
        ),
        ("loadgen.late_p99_ms", late_p99, "ms", tcp.late_ms.len()),
        ("loadgen.backlog_max", tcp.backlog_max as f64, "count", 1),
        ("trace.overhead_frac", overhead, "ratio", n),
    ])
}
