//! The job server: acceptor, connection threads, and a deterministic
//! worker pool over the bounded queue.
//!
//! # Threading model
//!
//! One acceptor thread owns the listener; each accepted connection gets
//! a thread that reads frames *sequentially* — a connection has at most
//! one request in flight, so per-connection response order is trivially
//! the request order, and concurrency comes from the number of
//! connections. The connection thread parses and validates a request,
//! then classifies it against the response cache: a *hit* is answered
//! right there, and a *waiter* (an identical job is already being
//! solved) blocks its own connection thread on the leader's flight.
//! Only a *leader* — or every job when the cache is disabled — is
//! handed to the fixed pool of worker threads through the bounded
//! queue, so workers only pop, solve, and publish. The pool is sized
//! like the carbon-runtime executor (`CARBON_THREADS` or the machine's
//! parallelism) so service workers and the executor's own fan-out
//! (inside `fig7`-style jobs) follow one configuration.
//!
//! # Determinism
//!
//! Workers never contribute timing or identity to a response body:
//! results come from deterministic analyses, floats render via the
//! shortest-round-trip formatter, and object fields keep a fixed
//! insertion order. The same request body therefore yields the same
//! response bytes at any worker count, connection count, or arrival
//! order. (`busy` responses are the one exception — admission is
//! inherently load-dependent — and carry that dependence only in the
//! reported queue depth.)
//!
//! # Backpressure and deadlines
//!
//! Admission control is [`crate::queue::Bounded::try_push`]: a full
//! queue answers `busy` immediately instead of stalling the connection.
//! Only jobs that must be solved need a queue slot, so a cached deck is
//! answered `ok` even while the queue is full. A leader bounced with
//! `busy` drops its flight guard, which publishes failure: its waiters
//! retry the lookup and one of them leads. Each solved job runs under a
//! [`CancelToken`] scope whose deadline is the request's `timeout_ms`
//! (or the server default); solver checkpoints inside carbon-spice turn
//! an expired deadline into a `timeout` response between Newton
//! iterations or sweep points. A waiter's deadline applies to its wait
//! in the same way.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] is a graceful drain: stop accepting, let
//! connection threads finish their in-flight request, close the queue,
//! and join the workers — every admitted job is answered before the
//! pool exits.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use carbon_json::Json;
use carbon_runtime::CancelToken;

use crate::cache::{FlightGuard, Lookup, ResponseCache, WaitOutcome};
use crate::job::{Job, JobError};
use crate::metrics::ServeMetrics;
use crate::protocol::{write_frame, FrameError, MAX_FRAME_LEN};
use crate::queue::Bounded;

/// How long a blocked socket read waits before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Default response-cache byte budget: 64 MiB. Typical figure-job
/// responses are a few kilobytes, so the default holds on the order of
/// ten thousand distinct decks before evicting.
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Smallest enabled cache the server accepts. Below this the 16-way
/// sharding leaves shards too small to hold even one typical response,
/// which silently degrades to a cache that never stores anything.
pub const MIN_CACHE_BYTES: u64 = 4096;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs. Defaults to the carbon-runtime
    /// executor's thread count (`CARBON_THREADS` or machine
    /// parallelism).
    pub workers: usize,
    /// Bounded-queue depth: jobs admitted but not yet running. Requests
    /// arriving beyond this get `busy` responses.
    pub queue_depth: usize,
    /// Deadline applied to jobs whose request carries no `timeout_ms`.
    /// `None` means no default deadline.
    pub default_timeout_ms: Option<u64>,
    /// Byte budget of the content-addressed response cache.
    /// `0` disables caching (and single-flight deduplication) entirely;
    /// any other value must be at least [`MIN_CACHE_BYTES`]. Defaults
    /// to [`DEFAULT_CACHE_BYTES`].
    pub cache_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: carbon_runtime::Executor::new().threads(),
            queue_depth: 64,
            default_timeout_ms: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

/// Monotonic counters describing a server's lifetime so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed queued-kind requests not answered `busy`: cache hits
    /// answered on the connection thread, coalesced waiters, and jobs
    /// admitted to the queue. `accepted + rejected_busy` counts every
    /// such request.
    pub accepted: u64,
    /// Requests bounced with a `busy` response.
    pub rejected_busy: u64,
    /// Jobs that hit their deadline and answered `timeout`.
    pub timed_out: u64,
    /// Jobs that answered `ok` — freshly solved or served from the
    /// response cache.
    pub completed: u64,
    /// Admitted jobs that failed in execution (`exec` error responses).
    pub errored: u64,
    /// Frames that were not UTF-8, not JSON, or had no scalar `id`.
    pub protocol_errors: u64,
    /// Envelopes with an invalid `timeout_ms` or `job`.
    pub validation_errors: u64,
    /// Accepted requests answered from the response cache on their
    /// connection thread, without a queue slot or a worker: stored
    /// bytes, or an identical in-flight solve they waited on.
    pub cache_hits: u64,
    /// Accepted requests a worker solved — counted whether the cache is
    /// enabled or not — plus waiters whose deadline expired before their
    /// leader finished, so `cache_hits + cache_misses == accepted`
    /// always holds.
    pub cache_misses: u64,
    /// Requests whose connection thread waited on another request's
    /// identical in-flight solve instead of queueing their own.
    pub cache_coalesced: u64,
    /// `ok` responses stored into the cache.
    pub cache_insertions: u64,
    /// Bytes evicted from the cache to respect the byte budget.
    pub cache_evicted_bytes: u64,
}

/// A job admitted to the queue, travelling from a connection thread to
/// a worker.
struct Ticket {
    /// The request's `id`, echoed verbatim into the response.
    id: Json,
    job: Job,
    /// Leadership of the job's cache flight: `Some` when the cache is
    /// enabled, so the worker publishes its outcome to any waiters.
    guard: Option<FlightGuard>,
    timeout_ms: Option<u64>,
    enqueued: Instant,
    /// Rendezvous back to the connection thread. Capacity 1, so the
    /// worker's send never blocks even if the connection died.
    resp: SyncSender<Vec<u8>>,
}

/// State every connection and worker thread shares.
struct Shared {
    queue: Bounded<Ticket>,
    metrics: ServeMetrics,
    /// `None` when `cache_bytes` is 0.
    cache: Option<Arc<ResponseCache>>,
    shutdown: AtomicBool,
    default_timeout_ms: Option<u64>,
}

/// A running job server. Dropping it performs the graceful drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding, and rejects a
    /// `cache_bytes` between `1` and [`MIN_CACHE_BYTES`] (a budget
    /// that small silently never stores anything; use `0` to disable
    /// caching).
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        if config.cache_bytes != 0 && config.cache_bytes < MIN_CACHE_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "config.cache_bytes must be 0 (cache disabled) or at least \
                     {MIN_CACHE_BYTES}, got {}",
                    config.cache_bytes
                ),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_depth),
            // Every instrument is pre-registered here, so the `stats`
            // snapshot has the same structure on a fresh server as on a
            // loaded one.
            metrics: ServeMetrics::new(config.workers.max(1), config.queue_depth),
            cache: (config.cache_bytes > 0).then(|| ResponseCache::new(config.cache_bytes)),
            shutdown: AtomicBool::new(false),
            default_timeout_ms: config.default_timeout_ms,
        });

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared.queue, &shared.metrics))
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            config,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.metrics.server_stats()
    }

    /// Graceful drain: stop accepting, finish in-flight requests,
    /// run every admitted job, join all threads. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.drain();
        self.shared.metrics.server_stats()
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Only after every connection thread has stopped producing may
        // the queue close; workers then drain what was admitted.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are single small frames; Nagle + delayed
                // ACK would add ~40 ms to every request.
                let _ = stream.set_nodelay(true);
                shared.metrics.connections.incr();
                let shared = Arc::clone(shared);
                connections.push(std::thread::spawn(move || connection_loop(stream, &shared)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        // Reap finished connection threads so a long-lived server does
        // not accumulate handles.
        connections.retain(|h| !h.is_finished());
    }
    for h in connections {
        let _ = h.join();
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let metrics = &shared.metrics;
    loop {
        let body = match read_frame_interruptible(&mut stream, &shared.shutdown) {
            Ok(Some(body)) => body,
            Ok(None) | Err(_) => return,
        };
        let response = match parse_envelope(&body) {
            Err(resp) => {
                metrics.protocol_errors.incr();
                resp
            }
            Ok((id, envelope)) => match validate_request(&id, &envelope, shared.default_timeout_ms)
            {
                Err(resp) => {
                    metrics.validation_errors.incr();
                    resp
                }
                // ping/stats skip admission: a full queue cannot starve them.
                Ok((job, _, _)) if job.is_fast_path() => {
                    fast_path_response(&id, &job, &shared.queue, metrics)
                }
                Ok((job, key, timeout_ms)) => dispatch(id, job, key, timeout_ms, shared),
            },
        };
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Answers the admission-free kinds (`ping`, `stats`) directly on the
/// connection thread. These responses intentionally carry timing
/// (uptime, latency aggregates) — they are operational introspection,
/// not simulation results, and are excluded from the byte-identity
/// contract the queued kinds keep.
fn fast_path_response(
    id: &Json,
    job: &Job,
    queue: &Bounded<Ticket>,
    metrics: &ServeMetrics,
) -> Vec<u8> {
    match job {
        Job::Ping => {
            metrics.ping.incr();
            let result = Json::obj()
                .push("version", env!("CARGO_PKG_VERSION"))
                .push("uptime_ms", metrics.uptime_ms());
            ok_response(id, "ping", &result)
        }
        Job::Stats => {
            metrics.stats.incr();
            let (uptime_ms, snapshot) = metrics.merged_snapshot(queue.depth());
            let mut result = Json::obj().push("uptime_ms", uptime_ms);
            // Splice the snapshot's fixed-order sections (counters,
            // gauges, histograms) into the result object.
            if let Json::Obj(sections) = snapshot.to_json() {
                for (key, value) in sections {
                    result = result.push(&key, value);
                }
            }
            ok_response(id, "stats", &result)
        }
        _ => unreachable!("fast_path_response called for a queued job kind"),
    }
}

/// Parses one frame into `(id, envelope)`; a failure is a protocol
/// error, returned as ready-to-send response bytes.
fn parse_envelope(body: &[u8]) -> Result<(Json, Json), Vec<u8>> {
    let text = std::str::from_utf8(body)
        .map_err(|_| error_response(&Json::Null, "parse", "request is not UTF-8"))?;
    let envelope =
        Json::parse(text).map_err(|e| error_response(&Json::Null, "parse", &e.to_string()))?;
    let id = envelope
        .get("id")
        .cloned()
        .ok_or_else(|| error_response(&Json::Null, "validate", "request.id is required"))?;
    if matches!(id, Json::Arr(_) | Json::Obj(_)) {
        return Err(error_response(
            &Json::Null,
            "validate",
            "request.id must be a scalar",
        ));
    }
    Ok((id, envelope))
}

/// Validates a parsed envelope into `(job, key, timeout_ms)`, where
/// `key` is the canonical content key of the `job` field; a failure is
/// a validation error, answered under the request's `id`.
fn validate_request(
    id: &Json,
    envelope: &Json,
    default_timeout_ms: Option<u64>,
) -> Result<(Job, u64, Option<u64>), Vec<u8>> {
    let timeout_ms = match envelope.get("timeout_ms") {
        None | Some(Json::Null) => default_timeout_ms,
        Some(v) => match v.as_u64() {
            Some(ms) if ms > 0 => Some(ms),
            _ => {
                return Err(error_response(
                    id,
                    "validate",
                    "request.timeout_ms must be a positive integer",
                ))
            }
        },
    };
    let job_field = envelope
        .get("job")
        .ok_or_else(|| error_response(id, "validate", "request.job is required"))?;
    let job = Job::from_json(job_field).map_err(|e| match e {
        JobError::Invalid { reason } => error_response(id, "validate", &reason),
        other => error_response(id, "validate", &other.to_string()),
    })?;
    // Content identity of the work itself: the `job` field only, in
    // canonical (sorted-key) form. `id` and `timeout_ms` are excluded —
    // an `ok` response is a pure function of the job body, so neither
    // may split the cache key space.
    let key = job_field.canonical_key();
    Ok((job, key, timeout_ms))
}

/// Classifies a queued-kind request against the response cache on its
/// connection thread, then answers or admits it. A hit is answered
/// here; a waiter blocks this thread (never a worker) on its leader's
/// flight, under its own deadline; only a leader — or every job when
/// the cache is disabled — takes a queue slot and waits for a worker.
fn dispatch(id: Json, job: Job, key: u64, timeout_ms: Option<u64>, shared: &Shared) -> Vec<u8> {
    let metrics = &shared.metrics;
    let kind = job.kind();
    let classified = Instant::now();
    // The waiter's own deadline applies while its leader solves,
    // mirroring the CancelToken a solving worker runs under.
    let deadline = timeout_ms.map(|ms| classified + Duration::from_millis(ms));
    let mut coalesced = false;
    let guard = match &shared.cache {
        None => None,
        // Loops because a leader may fail — the first retrying waiter
        // then becomes the new leader.
        Some(cache) => loop {
            let cached = match cache.begin(key) {
                Lookup::Hit(suffix) => Some(suffix),
                Lookup::Lead(guard) => break Some(guard),
                Lookup::Wait(flight) => {
                    if !coalesced {
                        metrics.cache_coalesced.incr();
                        coalesced = true;
                    }
                    match flight.wait(deadline) {
                        WaitOutcome::Ready(suffix) => Some(suffix),
                        WaitOutcome::TimedOut => None,
                        WaitOutcome::LeaderFailed => continue,
                    }
                }
            };
            return answer_without_worker(&id, kind, cached, classified, metrics);
        },
    };
    let (resp_tx, resp_rx) = std::sync::mpsc::sync_channel(1);
    let ticket = Ticket {
        id: id.clone(),
        job,
        guard,
        timeout_ms,
        enqueued: Instant::now(),
        resp: resp_tx,
    };
    match shared.queue.try_push(ticket) {
        Ok(depth) => {
            metrics.accepted.incr();
            metrics.cache_miss.incr();
            metrics
                .queue_depth
                .set(i64::try_from(depth).unwrap_or(i64::MAX));
            resp_rx.recv().unwrap_or_else(|_| {
                error_response(&id, "exec", "worker dropped the job (server shutting down)")
            })
        }
        // Dropping the bounced ticket drops a leader's guard, which
        // publishes failure: its waiters retry and one of them leads.
        Err(_rejected) => {
            metrics.rejected_busy.incr();
            busy_response(&id, shared.queue.depth(), shared.queue.capacity())
        }
    }
}

/// Answers an accepted request on its connection thread, without a
/// queue slot or a worker: `Some` cached suffix is a hit; `None` is a
/// waiter whose deadline expired before its leader finished, a miss.
fn answer_without_worker(
    id: &Json,
    kind: &'static str,
    cached: Option<Vec<u8>>,
    classified: Instant,
    metrics: &ServeMetrics,
) -> Vec<u8> {
    let mut span = carbon_trace::span!("serve.request");
    metrics.accepted.incr();
    let (status, response) = match cached {
        Some(suffix) => {
            metrics.cache_hit.incr();
            metrics.completed.incr();
            let response = splice_cached(id, &suffix);
            metrics.cache_hit_latency.record(nanos_since(classified));
            ("ok", response)
        }
        None => {
            metrics.cache_miss.incr();
            metrics.timed_out.incr();
            let response = timeout_response(
                id,
                kind,
                "deadline expired while coalesced onto an identical in-flight job",
            );
            if let Some(hist) = metrics.latency(kind) {
                hist.record(nanos_since(classified));
            }
            ("timeout", response)
        }
    };
    if span.is_live() {
        span.record("kind", kind);
        span.record("status", status);
        if status == "ok" {
            span.record("cache", "hit");
        }
        span.record("resp_bytes", response.len());
    }
    response
}

/// Pops, solves, and publishes: every ticket a worker sees is a cache
/// miss, classified on its connection thread.
fn worker_loop(queue: &Bounded<Ticket>, metrics: &ServeMetrics) {
    while let Some(ticket) = queue.pop() {
        let Ticket {
            id,
            job,
            mut guard,
            timeout_ms,
            enqueued,
            resp,
        } = ticket;
        metrics
            .queue_depth
            .set(i64::try_from(queue.depth()).unwrap_or(i64::MAX));
        let queue_ns = nanos_since(enqueued);
        let kind = job.kind();
        if let Some(hist) = metrics.queue_wait(kind) {
            hist.record(queue_ns);
        }
        let mut span = carbon_trace::span!("serve.request");
        if span.is_live() {
            span.record("kind", kind);
            span.record("queue_ns", queue_ns);
        }
        let token = match timeout_ms {
            Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let exec_started = Instant::now();
        let outcome = carbon_runtime::cancel::scope(&token, || job.run());
        metrics.worker_busy_ns.add(nanos_since(exec_started));
        let (status, response) = match outcome {
            Ok(result) => {
                metrics.completed.incr();
                let response = ok_response(&id, kind, &result);
                // Only `ok` responses enter the cache: the stored value
                // is everything after the `{"id":<id>` prefix, so a
                // later hit splices its own id in front and is
                // byte-identical to this solve by construction.
                if let Some(guard) = guard.take() {
                    let prefix_len = 6 + id.render().len();
                    let insert = guard.complete_ok(response[prefix_len..].to_vec());
                    if insert.inserted {
                        metrics.cache_insert.incr();
                    }
                    if insert.evicted_bytes > 0 {
                        metrics.cache_evict_bytes.add(insert.evicted_bytes);
                    }
                    metrics
                        .cache_bytes
                        .set(i64::try_from(insert.resident_bytes).unwrap_or(i64::MAX));
                }
                ("ok", response)
            }
            Err(JobError::Cancelled { message }) => {
                metrics.timed_out.incr();
                ("timeout", timeout_response(&id, kind, &message))
            }
            Err(e) => {
                metrics.errored.incr();
                ("error", error_response(&id, "exec", &e.to_string()))
            }
        };
        // A failed leader (timeout/error) publishes failure so waiters
        // retry; nothing is cached.
        if let Some(guard) = guard {
            guard.fail();
        }
        // End-to-end latency: admission to response, queue wait
        // included — what a client experiences. Only misses land here;
        // hits go to `serve.cache.hit_latency_ns` so cached repeats
        // cannot skew the solve-latency baselines.
        if let Some(hist) = metrics.latency(kind) {
            hist.record(nanos_since(enqueued));
        }
        if span.is_live() {
            span.record("status", status);
            span.record("resp_bytes", response.len());
        }
        drop(span);
        // The connection may have vanished; the response is then simply
        // dropped (capacity-1 channel: never blocks).
        let _ = resp.send(response);
    }
}

/// Nanoseconds since `start`, saturating.
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Reassembles a full response from a cached suffix: `{"id":` + the
/// request's own id + the stored bytes (which begin at the comma after
/// the leader's id and run to the closing brace).
fn splice_cached(id: &Json, suffix: &[u8]) -> Vec<u8> {
    let id_rendered = id.render();
    let mut out = Vec::with_capacity(6 + id_rendered.len() + suffix.len());
    out.extend_from_slice(b"{\"id\":");
    out.extend_from_slice(id_rendered.as_bytes());
    out.extend_from_slice(suffix);
    out
}

fn ok_response(id: &Json, kind: &str, result: &Json) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "ok")
        .push("kind", kind)
        .push("result", result.clone())
        .render()
        .into_bytes()
}

fn error_response(id: &Json, stage: &str, message: &str) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "error")
        .push("stage", stage)
        .push("message", message)
        .render()
        .into_bytes()
}

fn timeout_response(id: &Json, kind: &str, message: &str) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "timeout")
        .push("kind", kind)
        .push("message", message)
        .render()
        .into_bytes()
}

fn busy_response(id: &Json, depth: usize, capacity: usize) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "busy")
        .push("queue_depth", depth)
        .push("queue_capacity", capacity)
        .push("message", "queue full, retry later")
        .render()
        .into_bytes()
}

/// Like [`crate::protocol::read_frame`], but built for a socket with a
/// short read timeout: between frames a timeout re-checks the shutdown
/// flag (and abandons the connection once it is set); inside a frame
/// the read keeps waiting unless the server is shutting down.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )
                .into())
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    if filled == 0 {
                        return Ok(None); // clean: between frames
                    }
                    return Err(e.into()); // drain cut a partial frame
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { declared });
    }
    let mut body = vec![0u8; declared];
    let mut got = 0;
    while got < declared {
        match stream.read(&mut body[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame body",
                )
                .into())
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Err(e.into());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(body))
}
