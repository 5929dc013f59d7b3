//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one workload against an in-process carbon-serve and prints a
//! human-readable table, then, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, and the replay's spans are written to
//! `<out>/trace-<workload>-<seed>.jsonl`.
//!
//! Exit status: 0 when every check passed, 1 when the result was
//! printed but a check failed, 2 when no result could be produced.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use carbon_json::Json;
use perfbench::load::{self, Histogram, Session, Stats, Window};
use perfbench::replay;
use perfbench::schedule::{Schedule, Workload};
use perfbench::{median, COVERAGE_MIN, END_TO_END, PER_LAYER};

/// Server sessions per run: each is set up, then measured for
/// `--seconds / SESSIONS`; `setup_s` is the median set-up.
const SESSIONS: usize = 5;

/// Pings timed for `protocol.ping_rtt_us`.
const PINGS: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::from_name(workload).ok_or(format!(
            "unknown workload '{workload}': valid are {}",
            Workload::ALL.map(Workload::name).join(", ")
        ))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        out: map.get("--out").map_or_else(|| ".".into(), Into::into),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(correct)` once the result line is printed.
fn run(args: &Args) -> Result<bool, String> {
    let schedule = Schedule::new(args.workload, args.seed);
    let mut problems: Vec<String> = Vec::new();

    // Each session is a fresh server, set up and warmed, then measured
    // for its share of the window. Pooling sessions samples several
    // thread placements and quiet or noisy seconds in every run.
    let mut setup_s = Vec::with_capacity(SESSIONS);
    let mut windows = Vec::with_capacity(SESSIONS);
    let mut delta = Stats::default();
    let mut cpu_us = 0;
    let mut ping_rtt_ns = 0;
    for i in 0..SESSIONS {
        let t0 = Instant::now();
        let mut session = Session::start(&schedule)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let before = session.stats()?;
        let cpu_before = load::process_cpu_us().ok_or("cannot read /proc/self/stat")?;
        let window = load::run_window(&mut session, &schedule, args.seconds / SESSIONS as f64);
        cpu_us += load::process_cpu_us().ok_or("cannot read /proc/self/stat")? - cpu_before;
        let d = session.stats()?.since(&before);
        if args.trace && i + 1 == SESSIONS {
            ping_rtt_ns = session.ping_rtt_ns(PINGS)?;
        }
        session.shutdown();
        // Accounting: one response per request, every admission
        // classified, over this session's window.
        let (accepted, busy) = (
            d.counter("serve.accepted"),
            d.counter("serve.rejected_busy"),
        );
        let (hits, misses) = (d.counter("serve.cache.hit"), d.counter("serve.cache.miss"));
        if accepted + busy != window.sent {
            problems.push(format!(
                "session {i}: accepted {accepted} + rejected_busy {busy} != sent {}",
                window.sent
            ));
        }
        if hits + misses != accepted {
            problems.push(format!(
                "session {i}: cache hits {hits} + misses {misses} != accepted {accepted}"
            ));
        }
        if window.missing > 0 {
            problems.push(format!(
                "session {i}: {} requests got no response",
                window.missing
            ));
        }
        problems.extend(window.failures.iter().cloned());
        let mut session_latency = Histogram::default();
        for c in &window.conns {
            session_latency.merge(&c.latency);
        }
        println!(
            "session {i}: setup {:.4} s, {:.1} ok/s, p50 {:.3} us over {:.3} s",
            setup_s[i],
            window.ok() as f64 / (window.wall_ns as f64 / 1e9),
            session_latency.percentile(50.0) as f64 / 1e3,
            window.wall_ns as f64 / 1e9
        );
        delta.add(&d);
        windows.push(window);
    }
    let peak_rss_mib = load::peak_rss_mib().ok_or("cannot read /proc/self/status")?;
    // Byte identity, outside the timed windows.
    problems.extend(load::verify(&schedule, &windows));

    let sent: u64 = windows.iter().map(|w| w.sent).sum();
    let ok: u64 = windows.iter().map(Window::ok).sum();
    let failed = sent - ok;
    if ok == 0 {
        problems.push("no request was answered ok".into());
    }
    let wall_ns: u64 = windows.iter().map(|w| w.wall_ns).sum();
    let conns = || windows.iter().flat_map(|w| &w.conns);
    let mut latency = Histogram::default();
    for c in conns() {
        latency.merge(&c.latency);
    }
    let p50_us = latency.percentile(50.0) as f64 / 1e3;
    let okf = ok.max(1) as f64;
    let wall_s = wall_ns as f64 / 1e9;
    println!(
        "workload {} seed {} connections {} workers {} executor_threads {} sessions {SESSIONS} \
         measured {wall_s:.3} s",
        args.workload.name(),
        args.seed,
        args.workload.connections(),
        load::WORKERS,
        carbon_runtime::Executor::new().threads(),
    );
    // Shown for every run, but not bounded: error_rate is 0 on a healthy
    // run (the result line carries it as failed / attempted), and p99
    // has too few samples beyond it on econ_sweep.
    for (name, value, unit) in [
        ("requests_sent", sent as f64, "count"),
        ("latency_samples", latency.count() as f64, "count"),
        ("error_rate", failed as f64 / sent.max(1) as f64, "ratio"),
        (
            "latency_p99_us",
            latency.percentile(99.0) as f64 / 1e3,
            "us",
        ),
    ] {
        println!("{name:<30} {value:>16.4} {unit}");
    }

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        let per_job = |n: u64| n as f64 / okf;
        let counter = |name: &str| delta.counter(name);
        let sum2 = |a: &str, b: &str| counter(a) + counter(b);
        let (hits, misses) = (counter("serve.cache.hit"), counter("serve.cache.miss"));
        let (wait_count, wait_sum) = delta.histogram("serve.queue_wait_ns.");
        metrics.insert(
            "protocol.request_bytes",
            conns().map(|c| c.request_bytes).sum::<u64>() as f64 / sent.max(1) as f64,
        );
        metrics.insert(
            "protocol.response_bytes",
            conns().map(|c| c.response_bytes).sum::<u64>() as f64 / okf,
        );
        metrics.insert("protocol.ping_rtt_us", ping_rtt_ns as f64 / 1e3);
        metrics.insert("cache.hits", per_job(hits));
        metrics.insert("cache.misses", per_job(misses));
        metrics.insert("cache.coalesced", per_job(counter("serve.cache.coalesced")));
        metrics.insert(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        metrics.insert("cache.inserts", per_job(counter("serve.cache.insert")));
        metrics.insert(
            "cache.evicted_bytes",
            per_job(counter("serve.cache.evict_bytes")),
        );
        metrics.insert("server.accepted", per_job(counter("serve.accepted")));
        metrics.insert(
            "server.rejected_busy",
            per_job(counter("serve.rejected_busy")),
        );
        metrics.insert(
            "server.queue_wait_ns",
            wait_sum as f64 / wait_count.max(1) as f64,
        );
        metrics.insert(
            "server.worker_busy_frac",
            counter("serve.worker_busy_ns") as f64 / (wall_ns as f64 * load::WORKERS as f64),
        );
        metrics.insert(
            "spice.newton_solves",
            per_job(sum2("spice.newton.solves.dc", "spice.newton.solves.tran")),
        );
        metrics.insert(
            "spice.newton_iterations",
            per_job(sum2(
                "spice.newton.iterations.dc",
                "spice.newton.iterations.tran",
            )),
        );
        metrics.insert(
            "spice.sparse_factor",
            per_job(sum2("spice.sparse.factor", "spice.sparse.ac_factor")),
        );
        metrics.insert(
            "spice.sparse_replay",
            per_job(sum2("spice.sparse.replay", "spice.sparse.ac_replay")),
        );
        metrics.insert(
            "spice.sparse_repivot",
            per_job(sum2("spice.sparse.repivot", "spice.sparse.ac_repivot")),
        );
        metrics.insert("spice.tran_steps", per_job(counter("spice.tran.steps")));
        metrics.insert("spice.tran_rejects", per_job(counter("spice.tran.rejects")));
        metrics.insert(
            "runtime.chunks",
            per_job(delta.histogram("runtime.chunk_ns").0),
        );

        let replay = replay::run(&schedule)?;
        metrics.extend(replay.metrics);
        metrics.insert(
            "server.unattributed_us",
            p50_us - metrics["replay.request_ns"] / 1e3,
        );
        if metrics["trace.coverage"] < COVERAGE_MIN {
            problems.push(format!(
                "layer spans cover a median {:.4} of a replayed request, below {COVERAGE_MIN}",
                metrics["trace.coverage"]
            ));
        }
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args.out.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        replay::write_spans(&path, &replay.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    } else {
        metrics.insert("throughput_jobs_s", ok as f64 / wall_s);
        metrics.insert("latency_p50_us", p50_us);
        metrics.insert("latency_p90_us", latency.percentile(90.0) as f64 / 1e3);
        metrics.insert("cpu_us_per_job", cpu_us as f64 / okf);
        metrics.insert("peak_rss_mib", peak_rss_mib);
        metrics.insert("setup_s", median(setup_s));
    }

    let mut out = Json::obj();
    for (name, unit) in units {
        let value = metrics.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
        println!("{name:<30} {value:>16.4} {unit}");
        out = out.push(
            name,
            Json::obj()
                .push("value", if value.is_finite() { value } else { 0.0 })
                .push("unit", *unit),
        );
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        Json::obj()
            .push("correct", correct)
            .push("attempted", sent)
            .push("failed", failed)
            .push("metrics", out)
            .render()
    );
    Ok(correct)
}
