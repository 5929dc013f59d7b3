//! The traced replay: a workload's timed schedule run single-threaded
//! and in-process through the same public layer calls the server makes
//! for one request, with one span per call.
//!
//! A replayed request is a root span `request` with one child per layer
//! call, in server order:
//!
//! ```text
//! protocol.read   carbon_serve::read_frame
//! json.parse      carbon_json::Json::parse
//! job.validate    envelope fields + carbon_serve::Job::from_json
//! json.key        Json::canonical_key
//! cache.lookup    ResponseCache::begin
//! cache.splice    (hit) id splice of the stored suffix
//! job.run         (miss) Job::run
//! json.render     (miss) the ok envelope, Json::render
//! cache.store     (miss) FlightGuard::complete_ok
//! protocol.write  carbon_serve::write_frame
//! ```
//!
//! `Job::run` hides its solver call. In the traced pass it runs under a
//! `carbon-trace` collector, which picks up the spans the program
//! already emits on the calling thread: `spice.dc_sweep`,
//! `spice.ac_sweep`, `spice.transient`, `spice.newton_solve` (the op and
//! the AC linearisation point) and `econ.campaign` around
//! `carbon_econ::evaluate`. Their summed duration is recorded as a child
//! of `job.run` named `spice.solve` or `econ.evaluate`, so the self time
//! left to `job.run` is the result build. A second, separate solver call
//! would not do: it finds the solver workspace already built, and on an
//! 80 ms econ campaign its run-to-run noise exceeds the whole build.
//!
//! Spans are kept in memory and written out as JSONL at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use carbon_json::Json;
use carbon_serve::cache::{Lookup, ResponseCache};
use carbon_serve::{read_frame, write_frame, Job, DEFAULT_CACHE_BYTES};
use carbon_trace::collect::Collector;
use carbon_trace::Event;

use crate::load::{elapsed_ns, envelope};
use crate::median;
use crate::schedule::{Phase, Schedule, Workload};

/// Self time per span name within one request, ns.
type LayerNs = BTreeMap<&'static str, u64>;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer call name.
    pub name: &'static str,
    /// Request id the span belongs to.
    pub request: u64,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. With `detailed` off only the request root
/// is timed: that is the untraced replay.
struct Recorder {
    epoch: Instant,
    detailed: bool,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so that growing the
    /// span buffer never lands inside a timed request.
    fn new(detailed: bool, capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            detailed,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(4),
        }
    }

    /// Opens a span; the clock is read last, so the bookkeeping falls
    /// outside it.
    fn open(&mut self, name: &'static str, request: u64) -> usize {
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            request,
            start_ns: 0,
            end_ns: 0,
            parent,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = elapsed_ns(self.epoch);
        idx
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = elapsed_ns(self.epoch);
        self.open.pop();
    }

    /// Records a child of span `parent` that lasted `dur_ns` and was
    /// timed by the program itself; it is placed at the parent's start.
    fn attach(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        let (request, start_ns) = (self.spans[parent].request, self.spans[parent].start_ns);
        self.spans.push(SpanRec {
            name,
            request,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
        });
    }

    /// Times `f` as a child of the innermost open span.
    fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.detailed {
            return f();
        }
        let idx = self.open(name, request);
        let r = f();
        self.close(idx);
        r
    }
}

/// Runs `f` under a fresh `carbon-trace` collector when `traced`. The
/// events are read later, so copying them is not timed as part of `f`.
fn collected<R>(traced: bool, f: impl FnOnce() -> R) -> (R, Option<Arc<Collector>>) {
    if !traced {
        return (f(), None);
    }
    let collector = Collector::new();
    let r = carbon_trace::with_subscriber(collector.clone(), f);
    (r, Some(collector))
}

/// Summed self time (duration minus same-thread children) of every
/// collected span named `name`, and their summed duration.
fn program_span_ns(events: &[Event], name: &str) -> (u64, u64) {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if let Event::Span {
            parent: Some(p),
            dur_ns,
            ..
        } = e
        {
            *child_ns.entry(*p).or_insert(0) += dur_ns;
        }
    }
    events
        .iter()
        .filter_map(|e| match e {
            Event::Span {
                name: n,
                id,
                dur_ns,
                ..
            } if *n == name => Some((
                dur_ns.saturating_sub(child_ns.get(id).copied().unwrap_or(0)),
                *dur_ns,
            )),
            _ => None,
        })
        .fold((0, 0), |(s, d), (ds, dd)| (s + ds, d + dd))
}

/// What the program's own spans inside one `Job::run` reported.
#[derive(Debug, Default, Clone, Copy)]
struct Solved {
    newton_self_ns: u64,
    run_chunked_self_ns: u64,
    run_chunked_ns: u64,
    /// Econ cells evaluated and devices sampled; zero for spice.
    cells: u64,
    devices: u64,
}

/// The layer a job's solver belongs to; `None` for the figure kinds.
fn solver_layer(job: &Job) -> Option<&'static str> {
    match job {
        Job::Op { .. } | Job::DcSweep { .. } | Job::AcSweep { .. } | Job::Transient { .. } => {
            Some("spice.solve")
        }
        Job::EconPoint { .. } | Job::EconCampaign { .. } => Some("econ.evaluate"),
        _ => None,
    }
}

/// Econ cells and devices sampled, read from an econ job's result.
fn econ_counts(job: &Job, result: &Json) -> (u64, u64) {
    let devices = |v: Option<&Json>| v.and_then(|v| v.get("devices_sampled")?.as_u64());
    match job {
        Job::EconCampaign { grid, .. } => (
            grid.len() as u64,
            devices(result.get("summary")).unwrap_or(0),
        ),
        Job::EconPoint { .. } => (1, devices(result.get("point")).unwrap_or(0)),
        _ => (0, 0),
    }
}

fn chunk_histogram() -> (u64, u64) {
    carbon_metrics::global()
        .snapshot()
        .histograms
        .get("runtime.chunk_ns")
        .map_or((0, 0), |h| (h.count(), h.sum))
}

/// A traced miss: its `job.run` span, the solver's layer, the
/// collector that ran inside `Job::run`, and the econ counts.
struct Miss {
    run_idx: usize,
    layer: &'static str,
    collector: Arc<Collector>,
    cells: u64,
    devices: u64,
}

impl Miss {
    /// Attaches the solver span under `job.run` and summarises the
    /// program spans. Called after the request's root span has closed,
    /// so this bookkeeping stays outside every timed span.
    fn record(self, rec: &mut Recorder) -> Solved {
        let events = self.collector.events();
        let top_level: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    parent: None,
                    dur_ns,
                    ..
                } => Some(*dur_ns),
                _ => None,
            })
            .sum();
        rec.attach(self.run_idx, self.layer, top_level);
        let (run_chunked_self_ns, run_chunked_ns) = program_span_ns(&events, "runtime.run_chunked");
        Solved {
            newton_self_ns: program_span_ns(&events, "spice.newton_solve").0,
            run_chunked_self_ns,
            run_chunked_ns,
            cells: self.cells,
            devices: self.devices,
        }
    }
}

/// A replayed request's response bytes and, for a traced miss of a
/// spice or econ job, what its `Job::run` call left to summarise.
type Replayed = (Vec<u8>, Option<Miss>);

/// Replays one request through the layer calls.
fn replay_request(
    rec: &mut Recorder,
    cache: &Arc<ResponseCache>,
    framed: &[u8],
    request: u64,
) -> Result<Replayed, String> {
    let root = rec.open("request", request);
    let body = rec
        .span("protocol.read", request, || read_frame(&mut &framed[..]))
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    let request_json = rec.span("json.parse", request, || {
        std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    })?;
    let (id, job_field, job) = rec.span("job.validate", request, || {
        let id = request_json
            .get("id")
            .cloned()
            .ok_or("request.id is required")?;
        let job_field = request_json.get("job").ok_or("request.job is required")?;
        let job = Job::from_json(job_field).map_err(|e| e.to_string())?;
        Ok::<_, String>((id, job_field, job))
    })?;
    let key = rec.span("json.key", request, || job_field.canonical_key());
    let lookup = rec.span("cache.lookup", request, || cache.begin(key));
    let (response, miss) = match lookup {
        Lookup::Hit(suffix) => {
            let response = rec.span("cache.splice", request, || {
                let id = id.render();
                let mut out = Vec::with_capacity(6 + id.len() + suffix.len());
                out.extend_from_slice(b"{\"id\":");
                out.extend_from_slice(id.as_bytes());
                out.extend_from_slice(&suffix);
                out
            });
            (response, None)
        }
        Lookup::Lead(guard) => {
            let run_idx = rec.detailed.then(|| rec.open("job.run", request));
            let (result, collector) = collected(rec.detailed, || job.run());
            let result = result.map_err(|e| e.to_string())?;
            let mut miss = None;
            if let Some(idx) = run_idx {
                rec.close(idx);
            }
            if let (Some(run_idx), Some(collector), Some(layer)) =
                (run_idx, collector, solver_layer(&job))
            {
                let (cells, devices) = econ_counts(&job, &result);
                miss = Some(Miss {
                    run_idx,
                    layer,
                    collector,
                    cells,
                    devices,
                });
            }
            let response = rec.span("json.render", request, || {
                envelope(id.clone(), job.kind(), result).into_bytes()
            });
            rec.span("cache.store", request, || {
                let prefix_len = 6 + id.render().len();
                guard.complete_ok(response[prefix_len..].to_vec())
            });
            (response, miss)
        }
        Lookup::Wait(_) => return Err("single-threaded replay met an in-flight key".into()),
    };
    let mut out = Vec::new();
    rec.span("protocol.write", request, || {
        write_frame(&mut out, &response)
    })
    .map_err(|e| e.to_string())?;
    rec.close(root);
    Ok((response, miss))
}

/// A replay pass over `requests`.
struct Pass {
    spans: Vec<SpanRec>,
    /// Program-span reports of the traced misses, by request id.
    solved: BTreeMap<u64, Solved>,
    /// Response bytes by request id.
    response_len: BTreeMap<u64, usize>,
    /// Count and summed duration of the runtime's chunks in the pass,
    /// from the always-on `runtime.chunk_ns` histogram.
    chunks: (u64, u64),
}

fn replay_pass(
    schedule: &Schedule,
    requests: &[(u64, Vec<u8>)],
    traced: bool,
) -> Result<Pass, String> {
    let cache = ResponseCache::new(DEFAULT_CACHE_BYTES);
    // The hot working set is cached before the replay, as it is on the
    // server before the timed window.
    if schedule.workload() == Workload::HotRepeat {
        let mut warm = Recorder::new(false, 0);
        for j in 0..schedule.warmup_len().unwrap_or(0) {
            let (id, body) = schedule.request(Phase::Warmup, 0, j);
            replay_request(&mut warm, &cache, &frame(body.as_bytes()), id)?;
        }
    }
    // A miss records 11 spans: the root, 9 layer calls, the solver.
    let mut rec = Recorder::new(traced, requests.len() * if traced { 11 } else { 1 });
    let mut solved = BTreeMap::new();
    let mut response_len = BTreeMap::new();
    let chunks_before = chunk_histogram();
    for (id, framed) in requests {
        let (response, miss) = replay_request(&mut rec, &cache, framed, *id)?;
        response_len.insert(*id, response.len());
        if let Some(miss) = miss {
            solved.insert(*id, miss.record(&mut rec));
        }
    }
    let chunks_after = chunk_histogram();
    Ok(Pass {
        spans: rec.spans,
        solved,
        response_len,
        chunks: (
            chunks_after.0 - chunks_before.0,
            chunks_after.1.wrapping_sub(chunks_before.1),
        ),
    })
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + body.len());
    write_frame(&mut framed, body).expect("writing to a Vec cannot fail");
    framed
}

/// Requests replayed per workload: enough for stable medians at a
/// fraction of the run's time.
fn replay_len(workload: Workload) -> u64 {
    match workload {
        Workload::CircuitCold => 400,
        Workload::HotRepeat => 20_000,
        Workload::EconSweep => 12,
    }
}

/// The per-layer numbers of a traced replay.
pub struct Replay {
    /// Metric name → value, for the per-layer report.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every span of the traced pass, for the trace file.
    pub spans: Vec<SpanRec>,
}

/// Replays the first requests of the workload's timed schedule: an
/// untraced pass, the traced pass, and a second untraced pass, so the
/// tracing overhead is measured against both neighbours.
///
/// # Errors
///
/// Any layer call that fails.
pub fn run(schedule: &Schedule) -> Result<Replay, String> {
    let conns = schedule.workload().connections();
    let requests: Vec<(u64, Vec<u8>)> = (0..replay_len(schedule.workload()))
        .map(|i| {
            let (id, body) = schedule.request(Phase::Timed, i % conns, i / conns);
            (id, frame(body.as_bytes()))
        })
        .collect();
    let roots = |pass: &Pass| -> Vec<u64> {
        pass.spans
            .iter()
            .filter(|s| s.name == "request")
            .map(SpanRec::dur)
            .collect()
    };
    let mut untraced = roots(&replay_pass(schedule, &requests, false)?);
    let traced = replay_pass(schedule, &requests, true)?;
    untraced.extend(roots(&replay_pass(schedule, &requests, false)?));

    // Self time per (request, span name), and coverage per request.
    let mut child_ns = vec![0u64; traced.spans.len()];
    for s in &traced.spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    let mut self_ns: BTreeMap<u64, LayerNs> = BTreeMap::new();
    let mut coverage = Vec::new();
    for (i, s) in traced.spans.iter().enumerate() {
        if s.name == "request" {
            coverage.push(child_ns[i] as f64 / s.dur().max(1) as f64);
        } else {
            *self_ns
                .entry(s.request)
                .or_default()
                .entry(s.name)
                .or_insert(0) += s.dur().saturating_sub(child_ns[i]);
        }
    }
    let per_request = |f: &dyn Fn(u64, &LayerNs) -> Option<f64>| {
        median(self_ns.iter().filter_map(|(id, m)| f(*id, m)).collect())
    };
    let layer =
        |name: &'static str| per_request(&move |_, m: &LayerNs| m.get(name).map(|&v| v as f64));
    let solved = &traced.solved;
    let econ: Vec<&Solved> = solved.values().filter(|d| d.cells > 0).collect();
    let econ_median = |f: &dyn Fn(&Solved) -> f64| median(econ.iter().map(|d| f(d)).collect());
    let (chunk_count, chunk_ns) = traced.chunks;

    let mut metrics = BTreeMap::new();
    metrics.insert(
        "protocol.frame_ns",
        per_request(&|_, m| Some((m.get("protocol.read")? + m.get("protocol.write")?) as f64)),
    );
    metrics.insert("json.parse_ns", layer("json.parse"));
    metrics.insert("json.key_ns", layer("json.key"));
    metrics.insert("json.render_ns", layer("json.render"));
    metrics.insert(
        "json.render_ns_per_kib",
        per_request(&|id, m| {
            let bytes = *traced.response_len.get(&id)? as f64;
            Some(*m.get("json.render")? as f64 / (bytes / 1024.0))
        }),
    );
    metrics.insert("job.validate_ns", layer("job.validate"));
    metrics.insert("job.result_build_ns", layer("job.run"));
    metrics.insert("cache.lookup_ns", layer("cache.lookup"));
    metrics.insert("cache.splice_ns", layer("cache.splice"));
    metrics.insert("cache.store_ns", layer("cache.store"));
    metrics.insert("spice.solve_ns", layer("spice.solve"));
    metrics.insert(
        "spice.newton_solve_self_ns",
        median(
            solved
                .values()
                .filter(|d| d.cells == 0)
                .map(|d| d.newton_self_ns as f64)
                .collect(),
        ),
    );
    metrics.insert("econ.evaluate_ns", layer("econ.evaluate"));
    metrics.insert("econ.cells", econ_median(&|d| d.cells as f64));
    metrics.insert("econ.devices_sampled", econ_median(&|d| d.devices as f64));
    metrics.insert(
        "econ.ns_per_device",
        per_request(&|id, m| {
            let d = solved.get(&id).filter(|d| d.devices > 0)?;
            Some(*m.get("econ.evaluate")? as f64 / d.devices as f64)
        }),
    );
    metrics.insert(
        "runtime.chunk_ns",
        chunk_ns as f64 / chunk_count.max(1) as f64,
    );
    metrics.insert(
        "runtime.run_chunked_self_ns",
        econ_median(&|d| d.run_chunked_self_ns as f64),
    );
    let run_chunked_ns: u64 = econ.iter().map(|d| d.run_chunked_ns).sum();
    metrics.insert(
        "runtime.cpu_parallelism",
        chunk_ns as f64 / run_chunked_ns.max(1) as f64,
    );
    // In-process end-to-end time per request, tracing off.
    metrics.insert(
        "replay.request_ns",
        median(untraced.iter().map(|&ns| ns as f64).collect()),
    );
    metrics.insert("trace.coverage", median(coverage.clone()));
    metrics.insert(
        "trace.coverage_min",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
    );
    // The untraced passes ran each request twice.
    let untraced_total = untraced.iter().sum::<u64>() as f64 / 2.0;
    let traced_total = roots(&traced).iter().sum::<u64>() as f64;
    metrics.insert(
        "trace.overhead",
        traced_total / untraced_total.max(1.0) - 1.0,
    );
    Ok(Replay {
        metrics,
        spans: traced.spans,
    })
}

/// Writes spans as JSONL: one object per span.
///
/// # Errors
///
/// File-system errors.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.name, s.request, s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = writeln!(out, "{p}}}");
            }
            None => out.push_str("null}\n"),
        }
    }
    std::fs::write(path, out)
}
