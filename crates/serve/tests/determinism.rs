//! Determinism at the service boundary (the PR 5 acceptance bar,
//! re-proven every PR since): the same job set produces byte-identical
//! response bodies per job id regardless of `CARBON_THREADS`, server
//! worker count, connection count, arrival order — and, since the
//! response cache landed, regardless of whether a response was solved
//! fresh, served from the cache, or coalesced onto an identical
//! in-flight solve.
//!
//! For every `CARBON_THREADS` in 1/2/4/8, workers in 1/4, and the
//! cache enabled (default budget) and disabled (`cache_bytes: 0`):
//!
//! - a **cold** pass over a fresh server (every key misses),
//! - a **warm** pass over the *same* server (with the cache on, every
//!   key hits),
//! - a **mixed interleaved** pass over another fresh server, where
//!   every job is submitted twice with adjacent ids — cold and warm
//!   requests racing through the queue together, exercising
//!   single-flight coalescing under multiple connections,
//!
//! must all produce responses byte-identical (modulo the echoed id) to
//! one shared reference across the whole matrix.
//!
//! Kept as its own integration-test binary with a single `#[test]` so
//! the `CARBON_THREADS` environment variable is never mutated
//! concurrently with another test.

use std::collections::BTreeMap;

use carbon_json::Json;
use carbon_serve::{Client, Server, ServerConfig, DEFAULT_CACHE_BYTES};

const RC_DECK: &str = "* rc low-pass\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n.end\n";
const DIVIDER_DECK: &str =
    "* loaded divider\nV1 top 0 2\nR1 top mid 2k\nR2 mid 0 2k\nC1 mid 0 10n\n.end\n";

fn nodes(names: &[&str]) -> Json {
    Json::Arr(names.iter().map(|n| Json::Str((*n).to_owned())).collect())
}

/// The mixed job bodies (no ids). Every kind that can complete quickly
/// is represented, over two different decks.
fn jobs() -> Vec<Json> {
    vec![
        Json::obj()
            .push("kind", "op")
            .push("deck", RC_DECK)
            .push("nodes", nodes(&["in", "out"])),
        Json::obj()
            .push("kind", "op")
            .push("deck", DIVIDER_DECK)
            .push("nodes", nodes(&["mid"])),
        Json::obj()
            .push("kind", "dc_sweep")
            .push("deck", DIVIDER_DECK)
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 2.0)
            .push("step", 0.1)
            .push("nodes", nodes(&["mid", "top"])),
        Json::obj()
            .push("kind", "ac_sweep")
            .push("deck", RC_DECK)
            .push("source", "V1")
            .push("fstart", 1.0)
            .push("fstop", 1e6)
            .push("points_per_decade", 7)
            .push("nodes", nodes(&["out"])),
        Json::obj()
            .push("kind", "transient")
            .push("deck", RC_DECK)
            .push("tstep", 2e-5)
            .push("tstop", 4e-3)
            .push("nodes", nodes(&["out"])),
        // The adaptive method's accept/reject sequence is a pure
        // function of the deck, so its variable grid must render
        // byte-identically too.
        Json::obj()
            .push("kind", "transient")
            .push("deck", DIVIDER_DECK)
            .push("tstep", 2e-5)
            .push("tstop", 4e-3)
            .push("method", "adaptive")
            .push("options", Json::obj().push("lte_reltol", 1e-4))
            .push("nodes", nodes(&["mid"])),
        Json::obj().push("kind", "fig7"),
        Json::obj()
            .push("kind", "econ_point")
            .push("node", "cnt28")
            .push("area_cm2", 1.0)
            .push("d0", 0.2)
            .push("purity", 0.999),
        // A 128-cell campaign (2 nodes × 2 areas × 2 d0 × 16 purities)
        // across the purity cliff. Its ≈54 KB response stays under the
        // cache's 64 KiB entry cap, so the warm pass still hits it.
        Json::obj()
            .push("kind", "econ_campaign")
            .push("nodes", nodes(&["cnt90", "cnt28"]))
            .push("areas_cm2", floats(&[0.5, 2.0]))
            .push("d0", floats(&[0.1, 0.5]))
            .push(
                "purities",
                Json::Arr(
                    (0..16)
                        .map(|i| Json::Num(0.9 + 0.0999 * f64::from(i) / 15.0))
                        .collect(),
                ),
            ),
    ]
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// One pass over the job set: ids `0..n`, one request per job.
fn single_set() -> Vec<String> {
    jobs()
        .into_iter()
        .enumerate()
        .map(|(id, job)| Json::obj().push("id", id).push("job", job).render())
        .collect()
}

/// The mixed cold/warm set: every job twice with adjacent ids
/// (`2k` and `2k + 1`), so duplicates race through the queue together
/// and exercise single-flight coalescing. Response for id `i`
/// describes job `i / 2`.
fn interleaved_set() -> Vec<String> {
    jobs()
        .into_iter()
        .enumerate()
        .flat_map(|(k, job)| {
            [
                Json::obj()
                    .push("id", 2 * k)
                    .push("job", job.clone())
                    .render(),
                Json::obj().push("id", 2 * k + 1).push("job", job).render(),
            ]
        })
        .collect()
}

/// The response bytes from the first comma on — everything except the
/// echoed `{"id":<id>` prefix, which is the only part of an `ok`
/// response allowed to differ between requests for the same job.
fn suffix(body: &[u8]) -> &[u8] {
    let comma = body
        .iter()
        .position(|&b| b == b',')
        .expect("response has fields beyond id");
    &body[comma..]
}

/// Runs `requests` against one server over `connections` parallel
/// connections (round-robin assignment) and returns the raw response
/// bytes keyed by job id.
///
/// Each connection also exercises the metrics fast path — a `ping`
/// before its jobs and a `stats` snapshot after — interleaved with the
/// queued work. Those responses carry uptime and latency aggregates
/// (the documented determinism exception), so they are checked for
/// `ok` but excluded from the byte comparison.
fn run_set(
    addr: std::net::SocketAddr,
    requests: &[String],
    connections: usize,
) -> BTreeMap<u64, Vec<u8>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mine: Vec<&String> = requests.iter().skip(c).step_by(connections).collect();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    fast_path_call(&mut client, "ping");
                    let responses: Vec<(u64, Vec<u8>)> = mine
                        .into_iter()
                        .map(|body| {
                            let raw = client.call_raw(body.as_bytes()).expect("response");
                            let id = carbon_json::u64_field(
                                std::str::from_utf8(&raw).expect("utf-8 response"),
                                "id",
                            )
                            .expect("response carries the job id");
                            (id, raw)
                        })
                        .collect();
                    fast_path_call(&mut client, "stats");
                    responses
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// Sends one fast-path request (`ping` or `stats`) and asserts it is
/// answered `ok` on the connection thread. The body is intentionally
/// not returned: fast-path responses are operational state, not
/// simulation output, and never enter the determinism comparison.
fn fast_path_call(client: &mut Client, kind: &str) {
    let response = client
        .call(
            &Json::obj()
                .push("id", format!("fast-{kind}"))
                .push("job", Json::obj().push("kind", kind)),
        )
        .expect("fast-path response");
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("ok"),
        "{kind} answered {}",
        response.render()
    );
}

/// Asserts one pass's responses are all `ok` and byte-identical
/// (modulo the echoed id) to the reference suffixes, `job_of` mapping
/// a response id to its job index.
fn check_against_reference(
    got: &BTreeMap<u64, Vec<u8>>,
    reference: &mut Option<BTreeMap<u64, Vec<u8>>>,
    job_of: impl Fn(u64) -> u64,
    context: &str,
) {
    for (id, body) in got {
        let text = std::str::from_utf8(body).unwrap();
        assert!(
            text.contains("\"status\":\"ok\""),
            "job {id} not ok under {context}: {text}"
        );
    }
    match reference {
        None => {
            *reference = Some(
                got.iter()
                    .map(|(id, body)| (job_of(*id), suffix(body).to_vec()))
                    .collect(),
            );
        }
        Some(reference) => {
            for (id, body) in got {
                assert_eq!(
                    suffix(body),
                    &reference[&job_of(*id)],
                    "job {id} response drifted under {context}"
                );
            }
        }
    }
}

#[test]
fn responses_are_byte_identical_cold_warm_and_interleaved() {
    let n = jobs().len() as u64;
    let mut reference: Option<BTreeMap<u64, Vec<u8>>> = None;
    for threads in ["1", "2", "4", "8"] {
        std::env::set_var("CARBON_THREADS", threads);
        for workers in [1usize, 4] {
            let connections = workers.clamp(1, 4);
            for cache_bytes in [DEFAULT_CACHE_BYTES, 0] {
                let config = ServerConfig {
                    workers,
                    queue_depth: 64,
                    default_timeout_ms: None,
                    cache_bytes,
                };
                let context =
                    format!("CARBON_THREADS={threads} workers={workers} cache_bytes={cache_bytes}");

                // Cold then warm over one server.
                let server = Server::start("127.0.0.1:0", config.clone()).expect("bind loopback");
                let cold = run_set(server.local_addr(), &single_set(), connections);
                assert_eq!(
                    cold.len(),
                    n as usize,
                    "every job answered once ({context})"
                );
                check_against_reference(&cold, &mut reference, |id| id, &format!("{context} cold"));
                let warm = run_set(server.local_addr(), &single_set(), connections);
                check_against_reference(&warm, &mut reference, |id| id, &format!("{context} warm"));
                let stats = server.shutdown();
                assert_eq!(stats.protocol_errors, 0);
                assert_eq!(stats.validation_errors, 0);
                assert_eq!(stats.accepted, 2 * n, "{context}");
                assert_eq!(stats.completed, 2 * n, "{context}");
                assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    stats.accepted,
                    "every admitted job classified exactly once ({context})"
                );
                if cache_bytes > 0 {
                    // All jobs are distinct, so the cold pass misses n
                    // times and the warm pass hits n times — exactly.
                    assert_eq!(stats.cache_hits, n, "warm pass all-hit ({context})");
                    assert_eq!(stats.cache_misses, n, "cold pass all-miss ({context})");
                } else {
                    assert_eq!(stats.cache_hits, 0, "disabled cache never hits ({context})");
                }

                // Mixed cold/warm interleaved over a fresh server:
                // each job twice with adjacent ids, racing together.
                let server = Server::start("127.0.0.1:0", config).expect("bind loopback");
                let mixed = run_set(server.local_addr(), &interleaved_set(), connections);
                assert_eq!(mixed.len(), 2 * n as usize, "{context}");
                check_against_reference(
                    &mixed,
                    &mut reference,
                    |id| id / 2,
                    &format!("{context} interleaved"),
                );
                let stats = server.shutdown();
                assert_eq!(stats.protocol_errors, 0);
                assert_eq!(stats.validation_errors, 0);
                assert_eq!(stats.accepted, 2 * n, "{context}");
                assert_eq!(stats.completed, 2 * n, "{context}");
                assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    stats.accepted,
                    "{context}"
                );
                if cache_bytes > 0 {
                    // Whichever twin resolves first leads the solve;
                    // the other is served from the cache or coalesces
                    // onto the flight — either way it counts as a hit,
                    // so the split is exact even under races.
                    assert_eq!(
                        stats.cache_hits, n,
                        "one hit per duplicated job ({context})"
                    );
                    assert_eq!(
                        stats.cache_misses, n,
                        "one solve per distinct job ({context})"
                    );
                } else {
                    assert_eq!(stats.cache_hits, 0, "{context}");
                    assert_eq!(stats.cache_misses, 2 * n, "{context}");
                }
            }
        }
    }
    std::env::remove_var("CARBON_THREADS");
}
