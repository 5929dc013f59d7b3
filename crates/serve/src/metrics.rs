//! The server's always-on metrics: a per-instance `carbon-metrics`
//! registry with every instrument pre-registered at startup.
//!
//! Pre-registration is what makes `stats` snapshots *structurally*
//! deterministic: the set of counter/gauge/histogram names a server
//! reports is fixed the moment it starts, never a function of which
//! job kinds happened to arrive first. Each server owns its registry
//! (tests run many servers in one process); the `stats` fast path
//! merges the process-global registry (runtime executor, solver
//! counters) in at read time.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use carbon_metrics::{Counter, Gauge, Histogram, Registry, Snapshot};

use crate::job::QUEUED_JOB_KINDS;
use crate::server::ServerStats;

/// Cached handles into one server's metrics registry. Recording is
/// lock-free (the handles are `Arc`s into sharded atomics); only
/// snapshots touch the registry lock.
pub(crate) struct ServeMetrics {
    registry: Registry,
    started: Instant,
    /// Connections accepted.
    pub connections: Arc<Counter>,
    /// Well-formed queued-kind requests not answered `busy`: cache hits
    /// and coalesced waiters (answered on the connection thread) plus
    /// jobs admitted to the queue.
    pub accepted: Arc<Counter>,
    /// Requests bounced with a `busy` response.
    pub rejected_busy: Arc<Counter>,
    /// Jobs that hit their deadline.
    pub timed_out: Arc<Counter>,
    /// Jobs that ran to an `ok` response.
    pub completed: Arc<Counter>,
    /// Admitted jobs that failed in execution, panics included.
    pub errored: Arc<Counter>,
    /// Jobs whose execution panicked; each is also counted in
    /// `errored`, and its worker lives on.
    pub panics: Arc<Counter>,
    /// Frames that were not request envelopes.
    pub protocol_errors: Arc<Counter>,
    /// Envelopes whose request failed validation.
    pub validation_errors: Arc<Counter>,
    /// `ping` fast-path requests answered.
    pub ping: Arc<Counter>,
    /// `stats` fast-path requests answered.
    pub stats: Arc<Counter>,
    /// Total nanoseconds workers spent executing jobs.
    pub worker_busy_ns: Arc<Counter>,
    /// Accepted requests answered from the response cache on their
    /// connection thread (stored bytes, or a coalesced flight).
    pub cache_hit: Arc<Counter>,
    /// Accepted requests queued for a worker to solve (cache disabled,
    /// or the key was cold), plus waiters whose deadline expired.
    /// `hit + miss == accepted` over a server's lifetime.
    pub cache_miss: Arc<Counter>,
    /// `ok` responses stored into the cache.
    pub cache_insert: Arc<Counter>,
    /// Bytes evicted from the cache to respect the byte budget.
    pub cache_evict_bytes: Arc<Counter>,
    /// Requests whose connection thread waited on another request's
    /// identical in-flight solve instead of queueing their own.
    pub cache_coalesced: Arc<Counter>,
    /// Bytes currently resident in the response cache.
    pub cache_bytes: Arc<Gauge>,
    /// Server-side latency of cache hits, ns: from classification on
    /// the connection thread to the built response (a coalesced hit
    /// includes its wait on the leader). Deliberately separate from the
    /// per-kind `serve.latency_ns.*` histograms, which record only
    /// misses — hits would otherwise collapse solve latency baselines.
    pub cache_hit_latency: Arc<Histogram>,
    /// Jobs currently admitted but not yet completed.
    pub queue_depth: Arc<Gauge>,
    uptime_ms: Arc<Gauge>,
    /// Per-kind latency of misses (admission to response), ns.
    latency: BTreeMap<&'static str, Arc<Histogram>>,
    /// Per-kind time spent waiting in the queue, ns. Recorded only for
    /// dequeued (solved) jobs: hits and waiters never take a queue slot.
    queue_wait: BTreeMap<&'static str, Arc<Histogram>>,
}

impl ServeMetrics {
    /// Builds the registry and pre-registers every instrument the
    /// server will ever record, so snapshot structure is fixed from
    /// the first request.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let registry = Registry::new();
        let m = Self {
            connections: registry.counter("serve.connections"),
            accepted: registry.counter("serve.accepted"),
            rejected_busy: registry.counter("serve.rejected_busy"),
            timed_out: registry.counter("serve.timed_out"),
            completed: registry.counter("serve.completed"),
            errored: registry.counter("serve.errored"),
            panics: registry.counter("serve.panics"),
            protocol_errors: registry.counter("serve.protocol_errors"),
            validation_errors: registry.counter("serve.validation_errors"),
            ping: registry.counter("serve.ping"),
            stats: registry.counter("serve.stats"),
            worker_busy_ns: registry.counter("serve.worker_busy_ns"),
            cache_hit: registry.counter("serve.cache.hit"),
            cache_miss: registry.counter("serve.cache.miss"),
            cache_insert: registry.counter("serve.cache.insert"),
            cache_evict_bytes: registry.counter("serve.cache.evict_bytes"),
            cache_coalesced: registry.counter("serve.cache.coalesced"),
            cache_bytes: registry.gauge("serve.cache.bytes"),
            cache_hit_latency: registry.histogram("serve.cache.hit_latency_ns"),
            queue_depth: registry.gauge("serve.queue_depth"),
            uptime_ms: registry.gauge("serve.uptime_ms"),
            latency: QUEUED_JOB_KINDS
                .iter()
                .map(|&kind| {
                    (
                        kind,
                        registry.histogram(&format!("serve.latency_ns.{kind}")),
                    )
                })
                .collect(),
            queue_wait: QUEUED_JOB_KINDS
                .iter()
                .map(|&kind| {
                    (
                        kind,
                        registry.histogram(&format!("serve.queue_wait_ns.{kind}")),
                    )
                })
                .collect(),
            started: Instant::now(),
            registry,
        };
        m.registry
            .gauge("serve.workers")
            .set(i64::try_from(workers).unwrap_or(i64::MAX));
        m.registry
            .gauge("serve.queue_capacity")
            .set(i64::try_from(queue_capacity).unwrap_or(i64::MAX));
        m
    }

    /// End-to-end latency histogram for a queued job kind.
    pub fn latency(&self, kind: &str) -> Option<&Arc<Histogram>> {
        self.latency.get(kind)
    }

    /// Queue-wait histogram for a queued job kind.
    pub fn queue_wait(&self, kind: &str) -> Option<&Arc<Histogram>> {
        self.queue_wait.get(kind)
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The server's registry snapshot merged with the process-global
    /// registry, with the live `queue_depth` and `uptime_ms` gauges
    /// refreshed first. Returns `(uptime_ms, snapshot)`.
    pub fn merged_snapshot(&self, live_queue_depth: usize) -> (u64, Snapshot) {
        let uptime = self.uptime_ms();
        self.uptime_ms
            .set(i64::try_from(uptime).unwrap_or(i64::MAX));
        self.queue_depth
            .set(i64::try_from(live_queue_depth).unwrap_or(i64::MAX));
        let mut snap = self.registry.snapshot();
        snap.merge(&carbon_metrics::global().snapshot());
        (uptime, snap)
    }

    /// The public lifetime-counter view (the pre-metrics `stats()`
    /// API, now read out of the registry).
    pub fn server_stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.total(),
            accepted: self.accepted.total(),
            rejected_busy: self.rejected_busy.total(),
            timed_out: self.timed_out.total(),
            completed: self.completed.total(),
            errored: self.errored.total(),
            panics: self.panics.total(),
            protocol_errors: self.protocol_errors.total(),
            validation_errors: self.validation_errors.total(),
            cache_hits: self.cache_hit.total(),
            cache_misses: self.cache_miss.total(),
            cache_coalesced: self.cache_coalesced.total(),
            cache_insertions: self.cache_insert.total(),
            cache_evicted_bytes: self.cache_evict_bytes.total(),
        }
    }
}
