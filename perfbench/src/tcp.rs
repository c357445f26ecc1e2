//! The end-to-end run: `bcdb serve` as a child process, driven over
//! loopback TCP by one open-loop thread on two connections.
//!
//! Connection [`FEED`] sends `event` ops on a fixed schedule; connection
//! [`TENANT`] admits every subscription with `notify:true`, receives the
//! pushed flips, and polls on its own schedule. Every latency is taken
//! from when the request was *due*, so a stall also charges the requests
//! queued behind it.

use crate::gen::{Inputs, Shape};
use crate::net::{Received, Wire};
use crate::server::{copy_dir, dir_bytes, CpuSet, Server};
use crate::stats::Round;
use bcdb_server::wire::{parse_flat, Line, Scalar};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The chain feeder's connection.
pub const FEED: usize = 0;
/// The tenant client's connection.
pub const TENANT: usize = 1;

/// How late the generator may send (p99, ms) before the run is invalid.
pub const LATE_BOUND_MS: f64 = 20.0;

/// Server start-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Kill-and-recover drills per run; `recover_s` is their median.
pub const RECOVERIES: usize = 3;

type Fields = BTreeMap<String, Scalar>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Req {
    Subscribe,
    Event { measured: bool },
    Poll { measured: bool },
    Stats,
}

struct Pending {
    req: Req,
    due: Instant,
}

struct Done {
    req: Req,
    due: Instant,
    at: Instant,
    fields: Fields,
}

fn num(f: &Fields, key: &str) -> u64 {
    match f.get(key) {
        Some(Scalar::Num(n)) if *n >= 0 => *n as u64,
        _ => 0,
    }
}

fn string<'a>(f: &'a Fields, key: &str) -> &'a str {
    match f.get(key) {
        Some(Scalar::Str(s)) => s,
        _ => "",
    }
}

fn ok(f: &Fields) -> bool {
    matches!(f.get("ok"), Some(Scalar::Bool(true)))
}

/// Requests attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(why());
        }
    }
}

struct Client {
    wire: Wire,
    origin: Instant,
    queues: [VecDeque<Pending>; 2],
    done: Vec<Done>,
    inbox: Vec<Received>,
    /// Arrival time (s since `origin`) of every pushed notification.
    notes: Vec<f64>,
    /// Every event response in order: due time and flips.
    rounds: Vec<Round>,
    late_ms: Vec<f64>,
    backlog_max: usize,
    ledger: Ledger,
}

impl Client {
    fn new(wire: Wire, origin: Instant) -> Client {
        Client {
            wire,
            origin,
            queues: [VecDeque::new(), VecDeque::new()],
            done: Vec::new(),
            inbox: Vec::new(),
            notes: Vec::new(),
            rounds: Vec::new(),
            late_ms: Vec::new(),
            backlog_max: 0,
            ledger: Ledger::default(),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn send(&mut self, conn: usize, req: Req, due: Instant, line: &str) {
        let now = Instant::now();
        self.ledger.attempted += 1;
        self.queues[conn].push_back(Pending { req, due });
        self.wire.send(conn, line);
        // Lateness and backlog describe the open loop only.
        if matches!(
            req,
            Req::Event { measured: true } | Req::Poll { measured: true }
        ) {
            self.late_ms
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            self.backlog_max = self.backlog_max.max(self.outstanding());
        }
    }

    fn outstanding(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    /// Reads until `until` (or the first arrival) and files every line.
    fn pump(&mut self, until: Instant) -> Result<(), String> {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.wire.pump(until, &mut inbox);
        for r in inbox.drain(..) {
            self.file(r)?;
        }
        self.inbox = inbox;
        for conn in [FEED, TENANT] {
            if self.wire.closed(conn) {
                let lost = self.queues[conn].len() as u64 + 1;
                self.ledger
                    .fail(lost, || format!("connection {conn} dropped"));
                return Err(format!("the server dropped connection {conn}"));
            }
        }
        Ok(())
    }

    fn file(&mut self, r: Received) -> Result<(), String> {
        let fields =
            parse_flat(&r.line).map_err(|e| format!("unparsable server line ({e}): {}", r.line))?;
        if string(&fields, "op") == "notify" {
            self.notes.push(self.secs(r.at));
            return Ok(());
        }
        let p = self.queues[r.conn]
            .pop_front()
            .ok_or_else(|| format!("unsolicited line on connection {}: {}", r.conn, r.line))?;
        if !ok(&fields) {
            let line = r.line.clone();
            self.ledger
                .fail(1, || format!("{:?} refused: {line}", p.req));
        } else {
            match p.req {
                Req::Event { .. } => {
                    let refused = num(&fields, "refused");
                    self.ledger.attempted += num(&fields, "checked") + refused;
                    self.ledger.fail(refused, || {
                        format!("{refused} check(s) refused by the envelope")
                    });
                    self.rounds.push(Round {
                        due: self.secs(p.due),
                        flips: num(&fields, "flips"),
                    });
                }
                Req::Poll { .. } if string(&fields, "verdict") == "unknown" => {
                    let line = r.line.clone();
                    self.ledger.fail(1, || format!("unknown verdict: {line}"));
                }
                _ => {}
            }
        }
        self.done.push(Done {
            req: p.req,
            due: p.due,
            at: r.at,
            fields,
        });
        Ok(())
    }

    /// Pumps until `cond` holds; errors at `deadline`.
    fn wait(
        &mut self,
        what: &str,
        deadline: Instant,
        cond: impl Fn(&Client) -> bool,
    ) -> Result<(), String> {
        while !cond(self) {
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting for {what}"));
            }
            self.pump(deadline)?;
        }
        Ok(())
    }
}

fn subscribe_line(tenant: &str, name: &str, text: &str) -> String {
    Line::new()
        .str("op", "subscribe")
        .str("tenant", tenant)
        .str("name", name)
        .str("constraint", text)
        .num("weight", 1)
        .bool("notify", true)
        .finish()
}

fn event_line(payload: &str) -> String {
    Line::new()
        .str("op", "event")
        .str("payload", payload)
        .finish()
}

fn poll_line(sub: u64) -> String {
    Line::new().str("op", "poll").num("sub", sub).finish()
}

/// What the end-to-end run measured.
#[derive(Debug, Default)]
pub struct TcpReport {
    pub setup_s: Vec<f64>,
    pub event_ms: Vec<f64>,
    pub notify_ms: Vec<f64>,
    pub notify_unmatched: usize,
    pub poll_ms: Vec<f64>,
    /// Seconds each capacity burst took, in order.
    pub burst_s: Vec<f64>,
    pub recover_s: f64,
    pub rss_mb: f64,
    pub late_ms: Vec<f64>,
    pub backlog_max: usize,
    pub ledger: Ledger,
    /// Final verdict label per subscription, in fleet order.
    pub verdicts: Vec<String>,
    /// The wire `stats` response at the end of the run.
    pub stats: BTreeMap<String, u64>,
    /// Store bytes per applied event.
    pub bytes_per_event: f64,
    /// A copy of the store taken right after the SIGKILL, when asked for.
    pub killed_store: Option<PathBuf>,
    /// Share of CPU time the hypervisor stole during the run.
    pub steal_frac: f64,
}

const START: Duration = Duration::from_secs(120);
const DRAIN: Duration = Duration::from_secs(90);

/// Launches a fresh server, admits the fleet, bootstraps the chain and
/// waits until every first verdict is settled and pushed.
fn setup(
    bin: &Path,
    store: &Path,
    log: &Path,
    inputs: &Inputs,
    bootstrap: &str,
    cpus: Option<CpuSet>,
) -> Result<(Server, Client, Vec<u64>, f64), String> {
    let _ = std::fs::remove_dir_all(store);
    let server = Server::launch(bin, store, log, cpus).map_err(|e| format!("launch: {e}"))?;
    let deadline = server.launched + START;
    let wire = Wire::connect(&server.addr, deadline).map_err(|e| format!("connect: {e}"))?;
    let mut c = Client::new(wire, server.launched);
    let now = Instant::now();
    for s in &inputs.subs {
        c.send(
            TENANT,
            Req::Subscribe,
            now,
            &subscribe_line(&s.tenant, &s.name, &s.text),
        );
    }
    // Connections are served concurrently: the bootstrap round must not
    // start before the last admission, or it would miss subscriptions.
    c.wait("subscriptions", deadline, |c| c.outstanding() == 0)?;
    c.send(
        FEED,
        Req::Event { measured: false },
        Instant::now(),
        bootstrap,
    );
    c.wait("bootstrap", deadline, |c| c.outstanding() == 0)?;
    let n = inputs.subs.len();
    let ids: Vec<u64> = c
        .done
        .iter()
        .filter(|d| d.req == Req::Subscribe && ok(&d.fields))
        .map(|d| num(&d.fields, "sub"))
        .collect();
    if ids.len() != n {
        return Err(format!("only {} of {n} subscriptions admitted", ids.len()));
    }
    // The bootstrap round settles every first verdict; polling all of
    // them confirms it and pushes the first flips out.
    let now = Instant::now();
    for &id in &ids {
        c.send(TENANT, Req::Poll { measured: false }, now, &poll_line(id));
    }
    let flips: u64 = c.rounds.iter().map(|r| r.flips).sum();
    c.wait("first verdicts", deadline, |c| {
        c.outstanding() == 0 && c.notes.len() as u64 >= flips
    })?;
    let pending = c
        .done
        .iter()
        .filter(|d| d.req == (Req::Poll { measured: false }))
        .filter(|d| string(&d.fields, "verdict") == "pending")
        .count();
    if pending > 0 {
        return Err(format!("{pending} verdicts still pending after bootstrap"));
    }
    let setup_s = server.launched.elapsed().as_secs_f64();
    c.done.clear();
    Ok((server, c, ids, setup_s))
}

/// Writes `events` back-to-back and returns the seconds until the last
/// response.
fn burst(c: &mut Client, events: &[String]) -> Result<f64, String> {
    let t0 = Instant::now();
    for p in events {
        c.send(FEED, Req::Event { measured: false }, t0, p);
    }
    c.wait("burst responses", t0 + DRAIN, |c| c.outstanding() == 0)?;
    let last_at = c.done.iter().map(|d| d.at).max().unwrap_or(t0);
    c.done.clear();
    Ok(last_at.saturating_duration_since(t0).as_secs_f64())
}

/// Runs the whole end-to-end measurement in `work`, with every server
/// on the CPUs `cpus` when given.
pub fn run(
    bin: &Path,
    work: &Path,
    inputs: &Inputs,
    shape: &Shape,
    seconds: f64,
    keep_store: bool,
    cpus: Option<CpuSet>,
) -> Result<TcpReport, String> {
    let store = work.join("store");
    let log = work.join("server.log");
    let bootstrap = event_line(&inputs.initial.resync_event().encode());
    let payloads: Vec<String> = inputs
        .events
        .iter()
        .map(|e| event_line(&e.encode()))
        .collect();
    let mut report = TcpReport::default();
    let steal_before = crate::server::cpu_steal();

    // Set-up, several times; the last server stays up for the run.
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (server, c, ids, s) = setup(bin, &store, &log, inputs, &bootstrap, cpus)?;
        report.setup_s.push(s);
        last = Some((server, c, ids));
    }
    let (mut server, mut c, ids) = last.expect("SETUPS > 0");

    // Capacity, before the open loop.
    for chunk in payloads[..inputs.burst].chunks(shape.burst) {
        report.burst_s.push(burst(&mut c, chunk)?);
    }

    // Open loop.
    let open = &payloads[inputs.open_range()];
    let start = Instant::now() + Duration::from_millis(50);
    let polls = (shape.poll_rate * seconds).ceil() as usize;
    let event_due = |i: usize| start + Duration::from_secs_f64(i as f64 / shape.event_rate);
    let poll_due = |j: usize| start + Duration::from_secs_f64(j as f64 / shape.poll_rate);
    let measured_from = c.rounds.len();
    let (mut i, mut j) = (0usize, 0usize);
    while i < open.len() || j < polls {
        let next_e = (i < open.len()).then(|| event_due(i));
        let next_p = (j < polls).then(|| poll_due(j));
        let next = match (next_e, next_p) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!("loop condition"),
        };
        if Instant::now() < next {
            c.pump(next)?;
            continue;
        }
        if next_e == Some(next) {
            c.send(FEED, Req::Event { measured: true }, next, &open[i]);
            i += 1;
        } else {
            c.send(
                TENANT,
                Req::Poll { measured: true },
                next,
                &poll_line(ids[j % ids.len()]),
            );
            j += 1;
        }
    }
    c.wait("open-loop responses", Instant::now() + DRAIN, |c| {
        c.outstanding() == 0
    })?;
    for d in c.done.drain(..) {
        let ms = d.at.saturating_duration_since(d.due).as_secs_f64() * 1e3;
        match d.req {
            Req::Event { measured: true } => report.event_ms.push(ms),
            Req::Poll { measured: true } => report.poll_ms.push(ms),
            _ => {}
        }
    }
    let measured_to = c.rounds.len();

    // Capacity again, after it: the host's speed drifts over a run.
    for chunk in payloads[inputs.open_range().end..].chunks(shape.burst) {
        report.burst_s.push(burst(&mut c, chunk)?);
    }

    // Every flip must have been pushed before notifications are judged.
    let flips: u64 = c.rounds.iter().map(|r| r.flips).sum();
    let settle = Instant::now() + Duration::from_secs(10);
    c.wait("notifications", settle, |c| c.notes.len() as u64 >= flips)?;
    let attribution = crate::stats::attribute(&c.rounds, &c.notes);
    report.notify_unmatched = attribution.unmatched;
    report.notify_ms = attribution
        .latencies
        .iter()
        .filter(|(r, _)| (measured_from..measured_to).contains(r))
        .map(|(_, s)| s * 1e3)
        .collect();

    // Final verdicts for the gate, then the service counters.
    let now = Instant::now();
    for &id in &ids {
        c.send(TENANT, Req::Poll { measured: false }, now, &poll_line(id));
    }
    c.send(
        TENANT,
        Req::Stats,
        now,
        &Line::new().str("op", "stats").finish(),
    );
    c.wait("final polls", now + DRAIN, |c| c.outstanding() == 0)?;
    for d in c.done.drain(..) {
        match d.req {
            Req::Poll { .. } => report
                .verdicts
                .push(string(&d.fields, "verdict").to_string()),
            Req::Stats => {
                for (k, v) in &d.fields {
                    if let Scalar::Num(n) = v {
                        report.stats.insert(k.clone(), (*n).max(0) as u64);
                    }
                }
            }
            _ => {}
        }
    }
    report.rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    let events = report.stats.get("events").copied().unwrap_or(0).max(1);
    report.bytes_per_event = dir_bytes(&store) as f64 / events as f64;

    // Crash and recover on the same store, several times.
    let mut recover_s = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for round in 0..RECOVERIES {
        let killed = Instant::now();
        server.kill();
        // The copy for the traced replay is not part of recovery.
        let mut copy_time = Duration::ZERO;
        if keep_store && round == 0 {
            let t0 = Instant::now();
            let copy = work.join("store-killed");
            let _ = std::fs::remove_dir_all(&copy);
            copy_dir(&store, &copy).map_err(|e| format!("copy store: {e}"))?;
            report.killed_store = Some(copy);
            copy_time = t0.elapsed();
        }
        server = Server::launch(bin, &store, &log, cpus).map_err(|e| format!("relaunch: {e}"))?;
        let wire = Wire::connect(&server.addr, server.launched + START)
            .map_err(|e| format!("reconnect: {e}"))?;
        let mut r = Client::new(wire, server.launched);
        r.send(
            TENANT,
            Req::Poll { measured: false },
            Instant::now(),
            &poll_line(ids[0]),
        );
        r.wait("first poll after recovery", server.launched + START, |r| {
            r.outstanding() == 0
        })?;
        recover_s.push((killed.elapsed() - copy_time).as_secs_f64());
        attempted += r.ledger.attempted;
        failed += r.ledger.failed;
    }
    drop(server);
    report.recover_s = crate::stats::median(&recover_s).unwrap_or(0.0);
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, crate::server::cpu_steal()) {
        report.steal_frac = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
    }

    report.late_ms = std::mem::take(&mut c.late_ms);
    report.backlog_max = c.backlog_max;
    report.ledger = std::mem::take(&mut c.ledger);
    report.ledger.attempted += attempted;
    report.ledger.failed += failed;
    Ok(report)
}
