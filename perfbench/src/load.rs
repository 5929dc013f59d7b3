//! The closed-loop load phase: an in-process carbon-serve on loopback,
//! set up and warmed, then driven by one blocking client per
//! connection for a fixed wall-clock window.
//!
//! The window records, per response, only its latency, length and a
//! digest; byte identity against the in-process reference is checked
//! afterwards by [`verify`], outside the timed window.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use carbon_json::Json;
use carbon_serve::{Client, Job, Server, ServerConfig};

use crate::schedule::{Phase, Schedule, Workload};

/// Server worker threads: the load shape is sized for two cores.
pub const WORKERS: usize = 2;

/// A started, warmed server with its load and control connections.
pub struct Session {
    server: Server,
    clients: Vec<Client>,
    control: Client,
}

/// The prefix every `ok` response to request `id` starts with.
fn ok_prefix(id: u64) -> String {
    format!("{{\"id\":{id},\"status\":\"ok\"")
}

fn call_ok(client: &mut Client, id: u64, body: &str) -> Result<Vec<u8>, String> {
    let response = client
        .call_raw(body.as_bytes())
        .map_err(|e| format!("request {id}: {e}"))?;
    if response.starts_with(ok_prefix(id).as_bytes()) {
        Ok(response)
    } else {
        Err(format!(
            "request {id} was not answered ok: {}",
            String::from_utf8_lossy(&response[..response.len().min(300)])
        ))
    }
}

impl Session {
    /// Starts the server (2 workers, default queue depth, default
    /// 64 MiB cache), opens the connections and runs the warm-up.
    ///
    /// # Errors
    ///
    /// Socket failures and any warm-up request not answered `ok`.
    pub fn start(schedule: &Schedule) -> Result<Self, String> {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                workers: WORKERS,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();
        let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
        let mut clients = (0..schedule.workload().connections())
            .map(|_| connect())
            .collect::<Result<Vec<_>, _>>()?;
        let control = connect()?;
        match schedule.warmup_len() {
            Some(n) => {
                for j in 0..n {
                    let (id, body) = schedule.request(Phase::Warmup, 0, j);
                    call_ok(&mut clients[0], id, &body)?;
                }
            }
            // Fill the cache until it evicts, so the timed window runs
            // at the steady state of a full cache.
            None => std::thread::scope(|scope| {
                let server = &server;
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(conn, client)| {
                        scope.spawn(move || -> Result<(), String> {
                            let mut j = 0;
                            while server.stats().cache_evicted_bytes == 0 {
                                let (id, body) = schedule.request(Phase::Warmup, conn as u64, j);
                                call_ok(client, id, &body)?;
                                j += 1;
                            }
                            Ok(())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .try_for_each(|h| h.join().expect("warm-up thread panicked"))
            })?,
        }
        Ok(Self {
            server,
            clients,
            control,
        })
    }

    /// The server's `stats` snapshot, fetched over the control
    /// connection.
    ///
    /// # Errors
    ///
    /// A failed call or a malformed snapshot.
    pub fn stats(&mut self) -> Result<Stats, String> {
        let request = Json::obj()
            .push("id", "stats")
            .push("job", Json::obj().push("kind", "stats"));
        let response = self
            .control
            .call(&request)
            .map_err(|e| format!("stats: {e}"))?;
        Stats::from_response(&response)
    }

    /// Median round trip of `n` `ping` requests on the control
    /// connection, ns.
    ///
    /// # Errors
    ///
    /// A failed call.
    pub fn ping_rtt_ns(&mut self, n: usize) -> Result<u64, String> {
        let request = Json::obj()
            .push("id", "ping")
            .push("job", Json::obj().push("kind", "ping"));
        let mut rtts = Histogram::default();
        for _ in 0..n {
            let t0 = Instant::now();
            self.control
                .call(&request)
                .map_err(|e| format!("ping: {e}"))?;
            rtts.record(elapsed_ns(t0));
        }
        Ok(rtts.percentile(50.0))
    }

    /// Closes the connections and drains the server.
    pub fn shutdown(self) {
        drop(self.clients);
        drop(self.control);
        self.server.shutdown();
    }
}

/// Latency histogram with 1/1024 relative resolution: values below
/// 1024 are exact, larger ones share a bucket with values within 0.1 %.
/// Its memory does not grow with the number of requests, so the load
/// generator adds nothing throughput-dependent to the peak RSS.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
}

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        // Zeroed pages are not resident until a bucket is counted.
        Self {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize],
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((u64::from(e - SUB_BITS + 1) << SUB_BITS) + sub) as usize
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let shift = (i >> SUB_BITS) - 1;
        let low = (SUB + (i & (SUB - 1))) << shift;
        low + (1 << shift) / 2
    }

    /// Counts one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Values counted.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank percentile (bucket midpoint); 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().clamp(1.0, count as f64) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the count")
    }
}

/// What one connection saw in the timed window. Responses are kept
/// only as a count, a length sum and a wrapping sum of their
/// [`digest`]s; [`verify`] recomputes both sums from the in-process
/// reference.
pub struct ConnWindow {
    /// Requests answered (`ok` or not); they are requests `0..answered`
    /// of this connection.
    pub answered: u64,
    /// Indices `j` of answered requests that were not `ok` or did not
    /// echo their id.
    pub not_ok: Vec<u64>,
    /// Wrapping sum of the digests of the `ok` responses.
    pub digest_sum: u64,
    /// Total bytes of the `ok` responses.
    pub response_bytes: u64,
    /// Request body bytes sent.
    pub request_bytes: u64,
    /// Send-to-response latency of every answered request, ns.
    pub latency: Histogram,
}

/// What the timed window produced.
pub struct Window {
    /// One entry per connection.
    pub conns: Vec<ConnWindow>,
    /// Requests sent, answered or not.
    pub sent: u64,
    /// Requests that got no response.
    pub missing: u64,
    /// Window start to the last response, ns.
    pub wall_ns: u64,
    /// Descriptions of the first failed requests.
    pub failures: Vec<String>,
}

impl Window {
    /// Requests answered `ok`.
    pub fn ok(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.answered - c.not_ok.len() as u64)
            .sum()
    }
}

/// Runs the closed loop: each connection sends its next timed request
/// as soon as the previous one is answered, until `seconds` have
/// passed.
pub fn run_window(session: &mut Session, schedule: &Schedule, seconds: f64) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let conn = conn as u64;
                scope.spawn(move || {
                    let mut w = ConnWindow {
                        answered: 0,
                        not_ok: Vec::new(),
                        digest_sum: 0,
                        response_bytes: 0,
                        request_bytes: 0,
                        latency: Histogram::default(),
                    };
                    let mut failures = Vec::new();
                    let mut missing = 0;
                    while Instant::now() < deadline {
                        let j = w.answered;
                        let (id, body) = schedule.request(Phase::Timed, conn, j);
                        let prefix = ok_prefix(id);
                        w.request_bytes += body.len() as u64;
                        let t0 = Instant::now();
                        let response = client.call_raw(body.as_bytes());
                        let latency_ns = elapsed_ns(t0);
                        let response = match response {
                            Ok(response) => response,
                            Err(e) => {
                                // The connection is unusable after a
                                // framing failure: stop this client.
                                missing += 1;
                                failures.push(format!("request {id}: no response: {e}"));
                                break;
                            }
                        };
                        w.latency.record(latency_ns);
                        w.answered += 1;
                        if response.starts_with(prefix.as_bytes()) {
                            w.digest_sum = w.digest_sum.wrapping_add(digest(&response));
                            w.response_bytes += response.len() as u64;
                        } else {
                            w.not_ok.push(j);
                            if failures.len() < 4 {
                                failures.push(format!(
                                    "request {id}: {}",
                                    String::from_utf8_lossy(&response[..response.len().min(300)])
                                ));
                            }
                        }
                    }
                    (w, missing, failures, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut window = Window {
        conns: Vec::new(),
        sent: 0,
        missing: 0,
        wall_ns: 0,
        failures: Vec::new(),
    };
    for (w, missing, failures, end) in per_conn {
        window.sent += w.answered + missing;
        window.missing += missing;
        window.conns.push(w);
        window.failures.extend(failures);
        window.wall_ns = window.wall_ns.max(duration_ns(end - start));
    }
    window
}

/// Elapsed time since `t0`, ns.
pub fn elapsed_ns(t0: Instant) -> u64 {
    duration_ns(t0.elapsed())
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A 64-bit digest of a response body, fast enough to take inside the
/// timed window. Each step is a bijection of the state for a fixed
/// input word, so two bodies of equal length that differ in a single
/// word always digest differently.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = 0x9e37_79b9_7f4a_7c15 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
    }
    h ^ (h >> 29)
}

/// The `ok` response envelope the server sends for `result`: the
/// in-process reference the served bytes must equal.
pub fn envelope(id: impl Into<Json>, kind: &str, result: Json) -> String {
    Json::obj()
        .push("id", id)
        .push("status", "ok")
        .push("kind", kind)
        .push("result", result)
        .render()
}

/// Validates and runs a rendered `job` field in-process.
///
/// # Errors
///
/// The job's validation or execution error.
pub fn run_job(job_text: &str) -> Result<(&'static str, Json), String> {
    let job_json = Json::parse(job_text).map_err(|e| e.to_string())?;
    let job = Job::from_json(&job_json).map_err(|e| e.to_string())?;
    let result = job.run().map_err(|e| e.to_string())?;
    Ok((job.kind(), result))
}

/// Checks the `ok` answers in every window against the in-process
/// reference (`Job::run` in the response envelope): per connection and
/// window, the reference responses must have the same total length and
/// the same wrapping digest sum. Every window replays the same timed
/// schedule, so each reference is computed once and shared. Returns a
/// description of each mismatch.
pub fn verify(schedule: &Schedule, windows: &[Window]) -> Vec<String> {
    // The hot working set repeats: solve each body once.
    let mut memo: HashMap<String, (&'static str, Json)> = HashMap::new();
    if schedule.workload() == Workload::HotRepeat {
        for j in 0..schedule.warmup_len().unwrap_or(0) {
            let job = schedule.job(Phase::Warmup, 0, j);
            match run_job(&job) {
                Ok(reference) => {
                    memo.insert(job, reference);
                }
                Err(e) => return vec![format!("reference for a hot body failed: {e}")],
            }
        }
    }
    let memo = &memo;
    let reference = |conn: u64, j: u64| -> Result<(u64, u64), String> {
        let id = Schedule::id(Phase::Timed, conn, j);
        let job = schedule.job(Phase::Timed, conn, j);
        let (kind, result) = match memo.get(&job) {
            Some((kind, result)) => (*kind, result.clone()),
            None => run_job(&job).map_err(|e| format!("request {id}: reference failed: {e}"))?,
        };
        let expected = envelope(id, kind, result);
        Ok((digest(expected.as_bytes()), expected.len() as u64))
    };
    let mut problems = Vec::new();
    for conn in 0..schedule.workload().connections() {
        let answered = |w: &Window| w.conns.get(conn as usize).map_or(0, |c| c.answered);
        let n = windows.iter().map(answered).max().unwrap_or(0);
        let threads = WORKERS as u64;
        // Thread t computes the references of every `threads`-th request.
        let parts: Vec<Vec<Result<(u64, u64), String>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        (t..n)
                            .step_by(threads as usize)
                            .map(|j| reference(conn, j))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verify thread panicked"))
                .collect()
        });
        let mut refs = Vec::with_capacity(n as usize);
        for j in 0..n {
            refs.push(parts[(j % threads) as usize][(j / threads) as usize].clone());
        }
        for (i, w) in windows.iter().enumerate() {
            let Some(c) = w.conns.get(conn as usize) else {
                continue;
            };
            let mut sums = (0u64, 0u64);
            for j in (0..c.answered).filter(|j| !c.not_ok.contains(j)) {
                match &refs[j as usize] {
                    Ok((d, len)) => sums = (sums.0.wrapping_add(*d), sums.1 + len),
                    Err(e) => problems.push(e.clone()),
                }
            }
            if sums != (c.digest_sum, c.response_bytes) {
                problems.push(format!(
                    "session {i}, connection {conn}: the {} ok responses ({} B) differ from the \
                     in-process reference ({} B)",
                    c.answered - c.not_ok.len() as u64,
                    c.response_bytes,
                    sums.1
                ));
            }
        }
    }
    problems
}

/// The numeric parts of a `stats` snapshot: counters, and the count
/// and sum of every histogram.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

impl Stats {
    fn from_response(response: &Json) -> Result<Self, String> {
        let result = response
            .get("result")
            .ok_or("stats response carries no result")?;
        let section = |name: &str| match result.get(name) {
            Some(Json::Obj(fields)) => Ok(fields),
            _ => Err(format!("stats result has no '{name}' object")),
        };
        let mut stats = Self::default();
        for (name, value) in section("counters")? {
            let v = value
                .as_u64()
                .ok_or(format!("counter {name} is not a count"))?;
            stats.counters.insert(name.clone(), v);
        }
        for (name, value) in section("histograms")? {
            let field = |f: &str| {
                value
                    .get(f)
                    .and_then(Json::as_u64)
                    .ok_or(format!("histogram {name} has no {f}"))
            };
            stats
                .histograms
                .insert(name.clone(), (field("count")?, field("sum")?));
        }
        Ok(stats)
    }

    /// Counter and histogram changes from `before` to `self`.
    pub fn since(&self, before: &Self) -> Self {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - before.counter(k)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, &(c, s))| {
                let (c0, s0) = before.histograms.get(k).copied().unwrap_or((0, 0));
                (k.clone(), (c - c0, s.wrapping_sub(s0)))
            })
            .collect();
        Self {
            counters,
            histograms,
        }
    }

    /// Adds `other`'s counters and histograms to `self`.
    pub fn add(&mut self, other: &Self) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, (c, s)) in &other.histograms {
            let e = self.histograms.entry(k.clone()).or_insert((0, 0));
            *e = (e.0 + c, e.1.wrapping_add(*s));
        }
    }

    /// A counter's value; 0 for a counter not (yet) registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Count and sum over every histogram whose name starts with
    /// `prefix`.
    pub fn histogram(&self, prefix: &str) -> (u64, u64) {
        self.histograms
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold((0, 0), |(c, s), (_, &(dc, ds))| (c + dc, s + ds))
    }
}

/// Process user + system CPU time so far, µs, from `/proc/self/stat`
/// (clock ticks of 10 ms; exited threads included).
pub fn process_cpu_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000)
}

/// Peak resident set size of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_its_resolution() {
        let mut h = Histogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        assert_eq!(h.count(), 100_000);
        for (p, exact) in [
            (50.0, 50_000 * 37),
            (90.0, 90_000 * 37),
            (100.0, 100_000 * 37),
        ] {
            let got = h.percentile(p) as f64;
            assert!(
                (got / exact as f64 - 1.0).abs() < 1.0 / 1024.0,
                "p{p}: {got} vs {exact}"
            );
        }
        let mut small = Histogram::default();
        small.record(7);
        small.merge(&small.clone());
        assert_eq!((small.count(), small.percentile(50.0)), (2, 7));
        assert_eq!(Histogram::default().percentile(50.0), 0);
    }

    #[test]
    fn digest_separates_single_word_changes() {
        let a = b"{\"id\":1,\"status\":\"ok\",\"result\":[1,2,3]}".to_vec();
        let mut b = a.clone();
        b[20] ^= 1;
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
