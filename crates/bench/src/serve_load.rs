//! `carbon-bench serve-load`: a load generator for the carbon-serve
//! job service.
//!
//! Starts an in-process server on loopback, drives it from N
//! concurrent connections with a deterministic mixed job distribution
//! — circuit analyses, figure campaigns, and the wafer-economics kinds
//! (`econ_point` with a deterministically varied purity, plus a small
//! `econ_campaign` grid every 89th job) — and reports throughput and
//! per-kind latency percentiles. Latency
//! rows go to stdout in the compare-JSONL schema (so the existing
//! `carbon-bench compare` tooling can consume them); the human summary
//! goes to stderr.
//!
//! With `digest: true`, the report carries an FNV-1a 64 digest of the
//! (id-sorted) successful response bodies. Responses are deterministic
//! at the service boundary, so `ci.sh` diffs this digest across
//! `CARBON_THREADS` values to catch any scheduling leak into the wire
//! format.
//!
//! Two knobs exercise the server's response cache:
//!
//! - `repeat_frac` switches to a parameter-varied workload in which
//!   each job is, with that probability, a deterministic xoshiro re-pick
//!   of an earlier job's body (same `job` field, fresh `id`) — a repeat
//!   hits the cache while every non-repeat deck is genuinely cold.
//!   At `0.0` (the default) the classic mixed distribution is used
//!   unchanged.
//! - `passes` replays the identical job schedule that many times over
//!   one server; pass 2 onward is an all-warm sweep of pass 1's keys.
//!   Ids repeat across passes, so per-pass digests must be
//!   byte-identical — the report carries one digest per pass.
//!
//! Cache observability rows: `serve/cache_hits` and
//! `serve/cache_misses` (lifetime server totals) and
//! `serve/cache_hit_rate` (final pass only, in **per-mille** — the
//! compare-JSONL schema is integer-valued). The run fails if the
//! server's `hits + misses != accepted`, so the counters can never
//! silently drift from admissions.
//!
//! Client-observed latency rows (`serve/<kind>/latency_ns`) mix hits
//! and misses; the *server-side* histograms keep them apart —
//! `serve.latency_ns.<kind>` records only solved (miss) requests and
//! `serve.cache.hit_latency_ns` only hits — so cached repeats never
//! skew solve-latency baselines. Fast-path `ping`/`stats` calls have
//! no latency histogram at all. Both facts are asserted in this
//! module's tests.
//!
//! Each connection sends one `ping` warmup per pass before its timed
//! jobs (never sampled or digested), and after the load drains a fresh
//! client pulls the server's `stats` snapshot; its counters, gauges,
//! and histogram percentiles land in the JSONL as `serve/stats/*` rows
//! so CI can gate on server-side health.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use carbon_json::Json;
use carbon_runtime::rng::{RngCore, Xoshiro256pp};
use carbon_serve::{Client, Server, ServerConfig, DEFAULT_CACHE_BYTES};

use crate::Fnv;

const RC_DECK: &str = "* rc low-pass\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n.end\n";
const DIVIDER_DECK: &str =
    "* loaded divider\nV1 top 0 2\nR1 top mid 2k\nR2 mid 0 2k\nC1 mid 0 10n\n.end\n";

/// Seed of the repeat-schedule RNG: fixed, so the same
/// `(jobs, repeat_frac)` pair always produces the same schedule.
const SCHEDULE_SEED: u64 = 0x5eed_cafe_0b5e_55ed;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Total jobs across all connections (per pass).
    pub jobs: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Server queue depth (admission bound).
    pub queue_depth: usize,
    /// Server response-cache byte budget (`0` disables caching).
    pub cache_bytes: u64,
    /// Times the identical job schedule is replayed over one server.
    pub passes: usize,
    /// Probability that a job re-issues an earlier job's body
    /// (deterministic xoshiro pick). `0.0` keeps the classic mixed
    /// distribution.
    pub repeat_frac: f64,
    /// Compute the response-body digest (one per pass).
    pub digest: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            connections: 8,
            jobs: 1000,
            workers: carbon_runtime::Executor::new().threads(),
            queue_depth: 64,
            cache_bytes: DEFAULT_CACHE_BYTES,
            passes: 1,
            repeat_frac: 0.0,
            digest: false,
        }
    }
}

/// One job's outcome as seen by its client.
struct Sample {
    id: usize,
    kind: &'static str,
    latency_ns: u64,
    status: String,
    body: Vec<u8>,
}

/// Aggregated results of a load run.
pub struct LoadReport {
    /// compare-JSONL rows (one per job kind plus `serve/all`).
    pub jsonl: String,
    /// Human-readable summary.
    pub summary: String,
    /// FNV-1a 64 digest over the *final* pass's id-sorted `ok`
    /// response bodies (when requested).
    pub digest: Option<u64>,
    /// One digest per pass, in pass order (when requested). Ids repeat
    /// across passes, so these must all be equal on a healthy server.
    pub pass_digests: Vec<u64>,
    /// Count of `busy` rejections observed by clients (all passes).
    pub busy: u64,
    /// Count of responses that were neither `ok` nor `busy`.
    pub failed: u64,
    /// Jobs the server timed out (from the server's own counters).
    pub timed_out: u64,
    /// Lifetime cache hits from the server's counters.
    pub cache_hits: u64,
    /// Lifetime cache misses from the server's counters.
    pub cache_misses: u64,
    /// Final-pass hit rate in per-mille (hits ÷ admitted, × 1000).
    pub hit_rate_permille: u64,
}

/// The deterministic mixed distribution: job `i`'s request body.
/// Every 97th job is a full `fig7` campaign, every 89th a small
/// wafer-economics campaign; the rest cycle through the four circuit
/// analyses plus an `econ_point` whose purity walks a four-value set.
fn request_body(i: usize) -> (&'static str, String) {
    let (kind, job) = if i % 97 == 96 {
        ("fig7", Json::obj().push("kind", "fig7"))
    } else if i % 89 == 88 {
        ("econ_campaign", econ_campaign_body())
    } else {
        match i % 6 {
            0 => (
                "op",
                Json::obj()
                    .push("kind", "op")
                    .push("deck", RC_DECK)
                    .push("nodes", nodes(&["in", "out"])),
            ),
            1 => (
                "dc_sweep",
                Json::obj()
                    .push("kind", "dc_sweep")
                    .push("deck", DIVIDER_DECK)
                    .push("source", "V1")
                    .push("from", 0.0)
                    .push("to", 2.0)
                    .push("step", 0.25)
                    .push("nodes", nodes(&["mid"])),
            ),
            2 => (
                "ac_sweep",
                Json::obj()
                    .push("kind", "ac_sweep")
                    .push("deck", RC_DECK)
                    .push("source", "V1")
                    .push("fstart", 1.0)
                    .push("fstop", 1e5)
                    .push("points_per_decade", 5)
                    .push("nodes", nodes(&["out"])),
            ),
            3 => (
                "transient",
                Json::obj()
                    .push("kind", "transient")
                    .push("deck", RC_DECK)
                    .push("tstep", 1e-5)
                    .push("tstop", 1e-3)
                    .push("nodes", nodes(&["out"])),
            ),
            4 => ("econ_point", econ_point_body(ECON_PURITIES[(i / 6) % 4])),
            _ => (
                "op",
                Json::obj()
                    .push("kind", "op")
                    .push("deck", DIVIDER_DECK)
                    .push("nodes", nodes(&["mid", "top"])),
            ),
        }
    };
    (kind, Json::obj().push("id", i).push("job", job).render())
}

/// Purity axis walked by the mixed distribution's `econ_point` slot:
/// spans the metallic-removal cliff so responses differ materially,
/// while keeping the set small enough that repeats land on warm keys.
const ECON_PURITIES: [f64; 4] = [0.95, 0.99, 0.999, 0.9999];

/// A single wafer-economics point on the `cnt28` preset.
fn econ_point_body(purity: f64) -> Json {
    Json::obj()
        .push("kind", "econ_point")
        .push("node", "cnt28")
        .push("area_cm2", 1.0)
        .push("d0", 0.2)
        .push("purity", purity)
}

/// The schedule's small wafer-economics campaign: 2 nodes × 2 areas ×
/// 2 defect densities × 3 purities = 24 cells, negative-binomial
/// clustering.
fn econ_campaign_body() -> Json {
    Json::obj()
        .push("kind", "econ_campaign")
        .push("nodes", nodes(&["cnt90", "cnt28"]))
        .push("areas_cm2", floats(&[0.5, 1.0]))
        .push("d0", floats(&[0.1, 0.3]))
        .push("purities", floats(&[0.95, 0.99, 0.999]))
        .push("yield_model", "negative_binomial")
        .push("alpha", 2.0)
}

/// A parameter-varied job for the `repeat_frac` workload: every slot
/// gets a distinct deck (the divider's upper resistor encodes the slot
/// index) or, for the economics slot, a distinct purity — so a
/// non-repeat job can never accidentally share a cache key with
/// another slot.
fn unique_body(i: usize) -> (&'static str, Json) {
    let deck = format!(
        "* unique divider {i}\nV1 top 0 2\nR1 top mid {}\nR2 mid 0 2k\nC1 mid 0 10n\n.end\n",
        1000 + i
    );
    match i % 5 {
        0 => (
            "op",
            Json::obj()
                .push("kind", "op")
                .push("deck", deck)
                .push("nodes", nodes(&["mid"])),
        ),
        1 => (
            "dc_sweep",
            Json::obj()
                .push("kind", "dc_sweep")
                .push("deck", deck)
                .push("source", "V1")
                .push("from", 0.0)
                .push("to", 2.0)
                .push("step", 0.25)
                .push("nodes", nodes(&["mid"])),
        ),
        2 => (
            "ac_sweep",
            Json::obj()
                .push("kind", "ac_sweep")
                .push("deck", deck)
                .push("source", "V1")
                .push("fstart", 1.0)
                .push("fstop", 1e5)
                .push("points_per_decade", 5)
                .push("nodes", nodes(&["mid"])),
        ),
        3 => (
            "transient",
            Json::obj()
                .push("kind", "transient")
                .push("deck", deck)
                .push("tstep", 1e-5)
                .push("tstop", 1e-3)
                .push("nodes", nodes(&["mid"])),
        ),
        _ => ("econ_point", econ_point_body(0.9 + i as f64 * 1e-9)),
    }
}

/// A uniform draw in `[0, 1)` from the top 53 bits of the generator.
fn u01(rng: &mut Xoshiro256pp) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Builds one pass's rendered request bodies. With `repeat_frac == 0`
/// this is exactly the classic [`request_body`] distribution; above
/// zero, each slot is (with that probability) a re-issue of an earlier
/// slot's `job` field under a fresh id, the pick made by a
/// fixed-seeded xoshiro so the schedule is a pure function of
/// `(jobs, repeat_frac)`.
fn build_schedule(jobs: usize, repeat_frac: f64) -> Vec<(&'static str, String)> {
    if repeat_frac <= 0.0 {
        return (0..jobs).map(request_body).collect();
    }
    let mut rng = Xoshiro256pp::seed_from_u64(SCHEDULE_SEED);
    let mut slots: Vec<(&'static str, Json)> = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let repeat = i > 0 && u01(&mut rng) < repeat_frac;
        let slot = if repeat {
            let j = usize::try_from(rng.next_u64() % i as u64).expect("index fits");
            slots[j].clone()
        } else {
            unique_body(i)
        };
        slots.push(slot);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, (kind, job))| (kind, Json::obj().push("id", i).push("job", job).render()))
        .collect()
}

fn nodes(names: &[&str]) -> Json {
    Json::Arr(names.iter().map(|n| Json::Str((*n).to_owned())).collect())
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// Runs the load and aggregates the report.
///
/// # Errors
///
/// Returns a rendered error for bind failures, for any protocol error
/// (a client that fails to get a response, a non-JSON body, a missing
/// id), and for a cache accounting violation
/// (`hits + misses != accepted`).
pub fn run(config: &LoadConfig) -> Result<LoadReport, String> {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth,
            default_timeout_ms: None,
            cache_bytes: config.cache_bytes,
        },
    )
    .map_err(|e| format!("cannot bind loopback server: {e}"))?;
    let addr = server.local_addr();
    let connections = config.connections.max(1);
    let passes = config.passes.max(1);
    let schedule = build_schedule(config.jobs, config.repeat_frac);

    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::with_capacity(config.jobs * passes);
    let mut pass_digests: Vec<u64> = Vec::new();
    let mut hit_rate_permille = 0u64;
    let mut before = server.stats();
    for _pass in 0..passes {
        let schedule = &schedule;
        let pass_samples: Vec<Sample> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|c| {
                    scope.spawn(move || -> Result<Vec<Sample>, String> {
                        let mut client = Client::connect(addr)
                            .map_err(|e| format!("connection {c}: connect failed: {e}"))?;
                        warmup(&mut client, c)?;
                        (c..schedule.len())
                            .step_by(connections)
                            .map(|i| one_call(&mut client, i, schedule))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect::<Result<Vec<_>, _>>()
                .map(|per_conn| per_conn.into_iter().flatten().collect())
        })?;
        if config.digest {
            pass_digests.push(digest_of(&pass_samples));
        }
        let after = server.stats();
        let admitted = after.accepted - before.accepted;
        let hits = after.cache_hits - before.cache_hits;
        hit_rate_permille = (hits * 1000).checked_div(admitted).unwrap_or(0);
        before = after;
        samples.extend(pass_samples);
    }
    let elapsed = started.elapsed();
    let stats_snapshot = fetch_stats(addr)?;
    let stats = server.shutdown();

    // The classification invariant: every accepted request was counted
    // as exactly one of hit/miss. A drift here means classification
    // lost track of a request.
    if stats.cache_hits + stats.cache_misses != stats.accepted {
        return Err(format!(
            "cache accounting violated: hits {} + misses {} != accepted {}",
            stats.cache_hits, stats.cache_misses, stats.accepted
        ));
    }

    let mut by_kind: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut all = Vec::with_capacity(samples.len());
    let mut busy = 0u64;
    let mut failed = 0u64;
    for s in &samples {
        match s.status.as_str() {
            "ok" => {
                by_kind.entry(s.kind).or_default().push(s.latency_ns);
                all.push(s.latency_ns);
            }
            "busy" => busy += 1,
            _ => failed += 1,
        }
    }

    let mut jsonl = String::new();
    for (kind, mut lat) in by_kind {
        lat.sort_unstable();
        jsonl_row(&mut jsonl, &format!("serve/{kind}/latency_ns"), &lat);
    }
    all.sort_unstable();
    if !all.is_empty() {
        jsonl_row(&mut jsonl, "serve/all/latency_ns", &all);
    }
    // Rejection and deadline counts go out even when zero: CI gates on
    // `timed_out == 0`, and a row that vanishes on success would read
    // as missing data rather than a clean run.
    value_row(&mut jsonl, "serve/rejected_busy", stats.rejected_busy);
    value_row(&mut jsonl, "serve/timed_out", stats.timed_out);
    // Cache health: lifetime hit/miss totals, and the final pass's hit
    // rate in per-mille (the row schema is integer-valued).
    value_row(&mut jsonl, "serve/cache_hits", stats.cache_hits);
    value_row(&mut jsonl, "serve/cache_misses", stats.cache_misses);
    value_row(&mut jsonl, "serve/cache_hit_rate", hit_rate_permille);
    stats_rows(&mut jsonl, &stats_snapshot);

    let throughput = samples.len() as f64 / elapsed.as_secs_f64();
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "serve-load: {} jobs over {} connection(s), {} worker(s), queue depth {}, {} pass(es)",
        samples.len(),
        connections,
        config.workers.max(1),
        config.queue_depth,
        passes,
    );
    let _ = writeln!(
        summary,
        "  wall {:.3} s, throughput {throughput:.0} jobs/s",
        elapsed.as_secs_f64()
    );
    let _ = writeln!(
        summary,
        "  ok {} busy {busy} failed {failed} | server: accepted {} rejected {} timed-out {} \
         protocol-errors {} validation-errors {}",
        all.len(),
        stats.accepted,
        stats.rejected_busy,
        stats.timed_out,
        stats.protocol_errors,
        stats.validation_errors,
    );
    let _ = writeln!(
        summary,
        "  cache: hits {} misses {} coalesced {} (final-pass hit rate {}.{:01}%)",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_coalesced,
        hit_rate_permille / 10,
        hit_rate_permille % 10,
    );
    if !all.is_empty() {
        let _ = writeln!(
            summary,
            "  latency p50 {} µs  p90 {} µs  p99 {} µs  max {} µs",
            percentile(&all, 50.0) / 1_000,
            percentile(&all, 90.0) / 1_000,
            percentile(&all, 99.0) / 1_000,
            all.last().copied().unwrap_or(0) / 1_000,
        );
    }

    if stats.protocol_errors + stats.validation_errors > 0 {
        return Err(format!(
            "server counted {} protocol error(s) and {} validation error(s)",
            stats.protocol_errors, stats.validation_errors
        ));
    }
    if failed > 0 {
        return Err(format!("{failed} job(s) answered neither ok nor busy"));
    }

    Ok(LoadReport {
        jsonl,
        summary,
        digest: pass_digests.last().copied(),
        pass_digests,
        busy,
        failed,
        timed_out: stats.timed_out,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        hit_rate_permille,
    })
}

/// FNV-1a 64 over one pass's id-sorted `ok` response bodies.
fn digest_of(samples: &[Sample]) -> u64 {
    let mut ok: Vec<(usize, &[u8])> = samples
        .iter()
        .filter(|s| s.status == "ok")
        .map(|s| (s.id, s.body.as_slice()))
        .collect();
    ok.sort_unstable_by_key(|(id, _)| *id);
    let mut h = Fnv::new();
    for (id, body) in ok {
        h.write(&(id as u64).to_be_bytes());
        h.write(body);
        h.write(b"\n");
    }
    h.finish()
}

/// One `ping` on a fresh connection before its timed jobs: absorbs
/// connection setup and lazy-init costs outside the measurement
/// window. Never sampled, never digested.
fn warmup(client: &mut Client, connection: usize) -> Result<(), String> {
    let request = Json::obj()
        .push("id", format!("warmup-{connection}"))
        .push("job", Json::obj().push("kind", "ping"));
    let response = client
        .call(&request)
        .map_err(|e| format!("connection {connection}: warmup ping failed: {e}"))?;
    match response.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(()),
        _ => Err(format!(
            "connection {connection}: warmup ping answered {}",
            response.render()
        )),
    }
}

/// Pulls the server's `stats` snapshot over a fresh connection and
/// returns the `result` object.
fn fetch_stats(addr: std::net::SocketAddr) -> Result<Json, String> {
    let mut client =
        Client::connect(addr).map_err(|e| format!("stats fetch: connect failed: {e}"))?;
    let request = Json::obj()
        .push("id", "stats")
        .push("job", Json::obj().push("kind", "stats"));
    let response = client
        .call(&request)
        .map_err(|e| format!("stats fetch: {e}"))?;
    if response.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("stats fetch answered {}", response.render()));
    }
    response
        .get("result")
        .cloned()
        .ok_or_else(|| "stats response without result".to_owned())
}

/// Flattens the server's stats snapshot into compare-JSONL rows:
/// `serve/stats/<name>` for every counter and gauge, and
/// `serve/stats/<name>/p50|p90|p99|count` for every histogram.
fn stats_rows(out: &mut String, snapshot: &Json) {
    for section in ["counters", "gauges"] {
        if let Some(Json::Obj(fields)) = snapshot.get(section) {
            for (name, value) in fields {
                value_row(
                    out,
                    &format!("serve/stats/{name}"),
                    value.as_u64().unwrap_or(0),
                );
            }
        }
    }
    if let Some(Json::Obj(fields)) = snapshot.get("histograms") {
        for (name, hist) in fields {
            for stat in ["p50", "p90", "p99", "count"] {
                value_row(
                    out,
                    &format!("serve/stats/{name}/{stat}"),
                    hist.get(stat).and_then(Json::as_u64).unwrap_or(0),
                );
            }
        }
    }
}

fn one_call(
    client: &mut Client,
    i: usize,
    schedule: &[(&'static str, String)],
) -> Result<Sample, String> {
    let (kind, body) = &schedule[i];
    let t0 = Instant::now();
    let raw = client
        .call_raw(body.as_bytes())
        .map_err(|e| format!("job {i}: {e}"))?;
    let latency_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let text = std::str::from_utf8(&raw).map_err(|_| format!("job {i}: non-UTF-8 response"))?;
    let status = carbon_json::string_field(text, "status")
        .ok_or_else(|| format!("job {i}: response without status: {text}"))?;
    Ok(Sample {
        id: i,
        kind,
        latency_ns,
        status,
        body: raw,
    })
}

/// A single-value row in the compare-JSONL schema: median = min = max
/// = the value, one iteration. Used for counts and snapshot scalars.
fn value_row(out: &mut String, id: &str, value: u64) {
    let _ = writeln!(
        out,
        "{{\"id\":\"{}\",\"median_ns\":{value},\"min_ns\":{value},\"max_ns\":{value},\"iters\":1}}",
        carbon_json::escape(id),
    );
}

fn jsonl_row(out: &mut String, id: &str, sorted: &[u64]) {
    let _ = writeln!(
        out,
        "{{\"id\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"iters\":{}}}",
        carbon_json::escape(id),
        percentile(sorted, 50.0),
        sorted.first().copied().unwrap_or(0),
        sorted.last().copied().unwrap_or(0),
        sorted.len(),
    );
}

/// Nearest-rank percentile on a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_is_deterministic_and_mixed() {
        let kinds: Vec<&str> = (0..200).map(|i| request_body(i).0).collect();
        assert_eq!(
            kinds,
            (0..200).map(|i| request_body(i).0).collect::<Vec<_>>()
        );
        for kind in [
            "op",
            "dc_sweep",
            "ac_sweep",
            "transient",
            "fig7",
            "econ_point",
            "econ_campaign",
        ] {
            assert!(kinds.contains(&kind), "missing {kind}");
        }
        let (_, body) = request_body(3);
        assert!(body.contains("\"id\":3"));
    }

    #[test]
    fn repeat_schedule_is_deterministic_and_actually_repeats() {
        let a = build_schedule(100, 0.5);
        let b = build_schedule(100, 0.5);
        assert_eq!(
            a.iter().map(|(_, body)| body).collect::<Vec<_>>(),
            b.iter().map(|(_, body)| body).collect::<Vec<_>>(),
            "same (jobs, repeat_frac) => same schedule"
        );
        // Strip the per-slot id: what remains is the job body a cache
        // key is built from. With repeat_frac 0.5 there must be far
        // fewer distinct bodies than slots, but more than one.
        let distinct: std::collections::BTreeSet<String> = a
            .iter()
            .map(|(_, body)| {
                let json = Json::parse(body).unwrap();
                json.get("job").unwrap().render()
            })
            .collect();
        assert!(distinct.len() < 85, "repeats occurred: {}", distinct.len());
        assert!(
            distinct.len() > 20,
            "cold jobs occurred: {}",
            distinct.len()
        );
        // Zero repeat_frac is byte-for-byte the classic distribution.
        let classic = build_schedule(10, 0.0);
        for (i, (kind, body)) in classic.iter().enumerate() {
            let (k, b) = request_body(i);
            assert_eq!((*kind, body.as_str()), (k, b.as_str()));
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 50.0), 20);
        assert_eq!(percentile(&v, 99.0), 40);
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn small_load_runs_clean() {
        let report = run(&LoadConfig {
            connections: 2,
            jobs: 20,
            workers: 2,
            queue_depth: 32,
            digest: true,
            ..LoadConfig::default()
        })
        .expect("load run succeeds");
        assert_eq!(report.failed, 0);
        assert_eq!(report.timed_out, 0);
        assert!(report.jsonl.contains("serve/all/latency_ns"));
        assert!(report.digest.is_some());
        assert_eq!(report.pass_digests.len(), 1);
        // Count rows are present even at zero, and the server-side
        // snapshot is flattened into serve/stats/* rows.
        assert!(report.jsonl.contains("\"id\":\"serve/rejected_busy\""));
        assert!(report.jsonl.contains("\"id\":\"serve/timed_out\""));
        assert!(report.jsonl.contains("\"id\":\"serve/cache_hits\""));
        assert!(report.jsonl.contains("\"id\":\"serve/cache_misses\""));
        assert!(report.jsonl.contains("\"id\":\"serve/cache_hit_rate\""));
        assert!(report
            .jsonl
            .contains("\"id\":\"serve/stats/serve.accepted\""));
        assert!(report
            .jsonl
            .contains("\"id\":\"serve/stats/serve.latency_ns.op/p50\""));
        assert!(report
            .jsonl
            .contains("\"id\":\"serve/stats/serve.latency_ns.op/count\""));
        // The warmup pings were answered but never sampled: 20 jobs
        // from 2 connections means exactly 20 samples, and the server
        // counted one ping per connection plus the stats fetch.
        assert!(report.jsonl.contains("\"id\":\"serve/stats/serve.ping\""));
        let accepted = row_value(&report.jsonl, "serve/stats/serve.accepted");
        let ping = row_value(&report.jsonl, "serve/stats/serve.ping");
        let stats_calls = row_value(&report.jsonl, "serve/stats/serve.stats");
        assert_eq!(accepted + report.busy, 20);
        assert_eq!(ping, 2);
        assert_eq!(stats_calls, 1);
    }

    #[test]
    fn second_pass_is_all_hits_and_histograms_stay_separate() {
        let report = run(&LoadConfig {
            connections: 2,
            jobs: 24,
            workers: 2,
            queue_depth: 64,
            passes: 2,
            repeat_frac: 0.5,
            digest: true,
            ..LoadConfig::default()
        })
        .expect("load run succeeds");
        // Replayed schedule, same ids: per-pass digests byte-identical.
        assert_eq!(report.pass_digests.len(), 2);
        assert_eq!(
            report.pass_digests[0], report.pass_digests[1],
            "cold and warm passes must produce byte-identical responses"
        );
        // Every key in pass 2 was inserted during pass 1 (queue depth
        // covers the whole set, so nothing was rejected): all 24 warm
        // jobs hit, which the per-mille rate reports exactly.
        assert_eq!(report.hit_rate_permille, 1000);
        assert!(report.cache_hits >= 24);
        assert_eq!(
            report.cache_hits + report.cache_misses,
            48,
            "every admitted job classified exactly once"
        );
        // Satellite invariant: hits land only in the dedicated
        // histogram, misses only in the per-kind solve histograms —
        // so cached repeats cannot skew solve-latency baselines.
        let hit_count = row_value(
            &report.jsonl,
            "serve/stats/serve.cache.hit_latency_ns/count",
        );
        assert_eq!(hit_count, report.cache_hits);
        let solve_count: u64 = [
            "op",
            "dc_sweep",
            "ac_sweep",
            "transient",
            "fig2",
            "fig5",
            "fig7",
            "econ_point",
            "econ_campaign",
        ]
        .iter()
        .map(|kind| {
            row_value(
                &report.jsonl,
                &format!("serve/stats/serve.latency_ns.{kind}/count"),
            )
        })
        .sum();
        assert_eq!(solve_count, report.cache_misses);
        // And the fast-path kinds have no latency histogram at all.
        assert!(!report.jsonl.contains("serve.latency_ns.ping"));
        assert!(!report.jsonl.contains("serve.latency_ns.stats"));
    }

    #[test]
    fn disabled_cache_still_runs_clean_with_zero_hits() {
        let report = run(&LoadConfig {
            connections: 2,
            jobs: 12,
            workers: 2,
            queue_depth: 32,
            cache_bytes: 0,
            passes: 2,
            repeat_frac: 0.9,
            digest: true,
        })
        .expect("load run succeeds");
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cache_misses, 24, "all jobs solved");
        assert_eq!(report.hit_rate_permille, 0);
        assert_eq!(report.pass_digests[0], report.pass_digests[1]);
    }

    /// Extracts `median_ns` from the row with the given id.
    fn row_value(jsonl: &str, id: &str) -> u64 {
        let needle = format!("\"id\":\"{id}\"");
        let line = jsonl
            .lines()
            .find(|l| l.contains(&needle))
            .unwrap_or_else(|| panic!("no row {id}"));
        carbon_json::u64_field(line, "median_ns").unwrap_or_else(|| panic!("bad row: {line}"))
    }
}
