//! `perfbench`: chain-event → verdict latency of `bcdb serve`.
//!
//! ```text
//! perfbench --workload fanout|ladder --seed N --seconds S --trace 0|1
//!           --server <path to bcdb> --work <work dir> [--rev <source revision>]
//! ```
//!
//! One run generates the workload from the seed, starts the server
//! several times to time set-up, drives it open-loop over loopback TCP
//! for `--seconds`, measures back-to-back bursts, checks every final
//! verdict against a cold single-tenant solver, kills the server and
//! times its recovery. `--trace 1` adds the traced in-process layer
//! replay and reports the per-layer metrics instead of the end-to-end
//! ones. Every metric is printed with its unit and sample count; the
//! last line is the JSON result.

mod gen;
mod layers;
mod net;
mod server;
mod stats;
mod tcp;
mod trace;

use gen::Workload;
use server::CpuSet;
use stats::quantile;
use std::collections::BTreeMap;
use std::path::PathBuf;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        map.insert(key.to_string(), v);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        server: get("server")?.into(),
        work: get("work")?.into(),
        rev: map
            .get("rev")
            .cloned()
            .unwrap_or_else(|| "unknown".to_string()),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal (metric names and units are plain ASCII).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run(args: &Args) -> Result<(), String> {
    let shape = args.workload.shape();
    let inputs = gen::build(args.workload, args.seed, args.seconds);
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    // The load generator keeps one CPU to itself and the server gets the
    // rest, so neither waits for the other's threads to be scheduled
    // (both run unpinned on one CPU, or where the kernel refuses).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let split = CpuSet::current()
        .and_then(|c| c.split_first())
        .filter(|(client, _)| client.pin().is_ok());
    let served = split.map(|(_, s)| s);
    let round_threads = served.map_or(nproc, |s| s.count());
    let tcp = tcp::run(
        &args.server,
        &args.work,
        &inputs,
        &shape,
        args.seconds,
        args.trace,
        served,
    )?;
    // The oracle and the in-process replay run where the server ran, so
    // the replay's rounds use the served thread count.
    if let Some(cpus) = &served {
        cpus.pin().map_err(|e| format!("pin the replay: {e}"))?;
    }

    // The open loop is only honest if the generator kept its schedule.
    let late = quantile(&tcp.late_ms, 0.99)?;
    if late.value > tcp::LATE_BOUND_MS {
        return Err(format!(
            "the load generator ran late (p99 {:.2} ms > {} ms): run invalid",
            late.value,
            tcp::LATE_BOUND_MS
        ));
    }

    // Correctness gate: every definite final verdict against the oracle.
    let oracle = layers::oracle(&inputs)?;
    let mut mismatches = Vec::new();
    let mut definite = 0usize;
    for (sub, live) in inputs.subs.iter().zip(&tcp.verdicts) {
        let cold = oracle[&sub.text];
        let both = ["holds", "violated"];
        if both.contains(&live.as_str()) && both.contains(&cold) {
            definite += 1;
            if live != cold {
                mismatches.push(format!(
                    "{} ({}): live {live} vs oracle {cold}",
                    sub.name, sub.text
                ));
            }
        }
    }
    if tcp.verdicts.len() != inputs.subs.len() {
        mismatches.push(format!(
            "{} final verdicts for {} subscriptions",
            tcp.verdicts.len(),
            inputs.subs.len()
        ));
    }

    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut lines: Vec<(&'static str, f64, &'static str, usize)> = Vec::new();
    let mut refused = Vec::new();
    // Event and notification latencies are reported by their mean, not
    // their median: on a shared host a round's time is bimodal (the
    // host's fast and slow phases last seconds), and the median jumps
    // between the modes as their shares shift from run to run, while
    // the mean moves only in proportion.
    let mut put = |name: &'static str, samples: &[f64], p: Option<f64>| match p {
        None if samples.is_empty() => refused.push(format!("{name}: no samples")),
        None => lines.push((name, stats::mean(samples), "ms", samples.len())),
        Some(p) => match quantile(samples, p) {
            Ok(q) => lines.push((name, q.value, "ms", q.n)),
            Err(e) => refused.push(format!("{name}: {e}")),
        },
    };
    put("event_mean_ms", &tcp.event_ms, None);
    put("event_p90_ms", &tcp.event_ms, Some(0.9));
    put("notify_mean_ms", &tcp.notify_ms, None);
    put("notify_p90_ms", &tcp.notify_ms, Some(0.9));
    put("poll_p99_ms", &tcp.poll_ms, Some(0.99));
    let setup = stats::median(&tcp.setup_s).ok_or("no set-up samples")?;
    lines.push(("recover_s", tcp.recover_s, "s", tcp::RECOVERIES));
    lines.push(("setup_s", setup, "s", tcp.setup_s.len()));
    lines.push(("rss_mb", tcp.rss_mb, "MB", 1));
    for (name, v, _, _) in &lines {
        e2e.insert(name, *v);
    }
    // The median poll finds the server idle: it times the wake-up of two
    // virtual CPUs far more than the program, and swings with the host's
    // load, so it feeds `server.poll_wait_ms` only and is not reported.
    if let Ok(q) = quantile(&tcp.poll_ms, 0.5) {
        e2e.insert("poll_p50_ms", q.value);
    }
    let fail_frac = tcp.ledger.failed as f64 / tcp.ledger.attempted.max(1) as f64;

    let per_layer = if args.trace {
        let trace_out = args.work.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let mut m = layers::run(&inputs, &tcp, &e2e, &args.work, &trace_out)?;
        m.push((
            "fail_frac",
            fail_frac,
            "ratio",
            tcp.ledger.attempted as usize,
        ));
        Some(m)
    } else {
        None
    };
    if let Some(store) = &tcp.killed_store {
        let _ = std::fs::remove_dir_all(store);
    }
    let _ = std::fs::remove_dir_all(args.work.join("store"));

    // Provenance and every metric, by name, with unit and sample count.
    let provenance = [
        ("rev", args.rev.clone()),
        ("host", format!("nproc={nproc};cpu={}", cpu_model())),
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        (
            "served",
            format!(
                "sync=always;snapshot_every=1;round_threads={round_threads};\
                 shared_cache=on;loadgen_on_own_cpu={}",
                split.is_some()
            ),
        ),
    ];
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("provenance: {{{}}}", fields.join(","));
    println!(
        "host: {:.2}% of CPU time stolen by the hypervisor during the run",
        tcp.steal_frac * 100.0
    );
    println!(
        "load: events {:.1}/s, polls {:.1}/s, {} subscriptions in {} tenants, {} bursts of {}",
        shape.event_rate,
        shape.poll_rate,
        inputs.subs.len(),
        inputs
            .subs
            .iter()
            .map(|s| &s.tenant)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        2 * gen::BURSTS,
        shape.burst
    );
    // Event latency by kind (responses come back in event order).
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (e, ms) in inputs.events[inputs.open_range()].iter().zip(&tcp.event_ms) {
        by_kind.entry(gen::kind(e)).or_default().push(*ms);
    }
    for (k, v) in &by_kind {
        println!(
            "events {k:<8} n={:<4} median {:>10.3} ms  max {:>10.3} ms",
            v.len(),
            stats::median(v).unwrap_or(0.0),
            v.iter().cloned().fold(0.0, f64::max)
        );
    }
    // Capacity is printed, not reported: a saturated server's throughput
    // swings with the host far more than latency at a fifth of that load
    // (its 10-run spread passed 0.25 on `ladder`). It is events over the
    // time all bursts took; a median of per-burst rates would sit between
    // `fanout`'s fast bursts before the open loop and its slow ones after.
    let burst_s: f64 = tcp.burst_s.iter().sum();
    let bursts: Vec<String> = tcp
        .burst_s
        .iter()
        .map(|s| format!("{:.2}", shape.burst as f64 / s.max(1e-9)))
        .collect();
    println!(
        "capacity: {:.4} events/s over {} burst events (bursts: {})",
        (2 * inputs.burst) as f64 / burst_s.max(1e-9),
        2 * inputs.burst,
        bursts.join(", ")
    );
    let table: Vec<_> = lines.iter().chain(per_layer.iter().flatten()).collect();
    for (name, v, unit, n) in table.iter().filter(|m| m.0 != "fail_frac") {
        println!("{name:<34} {v:>14.4} {unit:<6} n={n}");
    }
    println!(
        "{:<34} {fail_frac:>14.6} ratio  n={} (failed {})",
        "fail_frac", tcp.ledger.attempted, tcp.ledger.failed
    );
    for why in &tcp.ledger.reasons {
        println!("failure: {why}");
    }
    println!(
        "gate: {} subscriptions, {definite} definite verdicts compared with the oracle, {} mismatches; \
         {} notifications unattributed",
        inputs.subs.len(),
        mismatches.len(),
        tcp.notify_unmatched
    );
    for m in mismatches.iter().take(8) {
        println!("mismatch: {m}");
    }

    if !refused.is_empty() {
        for r in &refused {
            println!("refused: {r}");
        }
        return Err("some percentiles lack the samples to be reported".to_string());
    }
    let reported: Vec<_> = match &per_layer {
        Some(m) => m.iter().collect(),
        None => lines.iter().collect(),
    };
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, v, unit, _)| {
            format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        mismatches.is_empty(),
        tcp.ledger.attempted,
        tcp.ledger.failed,
        metrics.join(",")
    );
    Ok(())
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
