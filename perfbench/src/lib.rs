//! End-to-end benchmark of the carbon-serve job service.
//!
//! One run drives one workload ([`schedule::Workload`]) against an
//! in-process server on loopback from a closed loop of blocking
//! clients ([`load`]), checks every response against the in-process
//! reference, and reports client-side metrics. With tracing on it also
//! replays the workload's schedule through each layer's public calls
//! ([`replay`]) and reports per-layer numbers.

pub mod load;
pub mod replay;
pub mod schedule;

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_jobs_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("cpu_us_per_job", "us"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (tracing on): name and unit. Counts marked
/// `per_job` are deltas across the timed window divided by the `ok`
/// responses in it; times are medians over replayed requests.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("protocol.request_bytes", "B"),
    ("protocol.response_bytes", "B"),
    ("protocol.frame_ns", "ns"),
    ("protocol.ping_rtt_us", "us"),
    ("json.parse_ns", "ns"),
    ("json.key_ns", "ns"),
    ("json.render_ns", "ns"),
    ("json.render_ns_per_kib", "ns/KiB"),
    ("job.validate_ns", "ns"),
    ("job.result_build_ns", "ns"),
    ("cache.hits", "per_job"),
    ("cache.misses", "per_job"),
    ("cache.coalesced", "per_job"),
    ("cache.hit_ratio", "ratio"),
    ("cache.inserts", "per_job"),
    ("cache.evicted_bytes", "B/job"),
    ("cache.lookup_ns", "ns"),
    ("cache.splice_ns", "ns"),
    ("cache.store_ns", "ns"),
    ("server.accepted", "per_job"),
    ("server.rejected_busy", "per_job"),
    ("server.queue_wait_ns", "ns"),
    ("server.worker_busy_frac", "ratio"),
    ("server.unattributed_us", "us"),
    ("spice.solve_ns", "ns"),
    ("spice.newton_solves", "per_job"),
    ("spice.newton_iterations", "per_job"),
    ("spice.newton_solve_self_ns", "ns"),
    ("spice.sparse_factor", "per_job"),
    ("spice.sparse_replay", "per_job"),
    ("spice.sparse_repivot", "per_job"),
    ("spice.tran_steps", "per_job"),
    ("spice.tran_rejects", "per_job"),
    ("econ.evaluate_ns", "ns"),
    ("econ.cells", "per_job"),
    ("econ.devices_sampled", "per_job"),
    ("econ.ns_per_device", "ns"),
    ("runtime.chunks", "per_job"),
    ("runtime.chunk_ns", "ns"),
    ("runtime.run_chunked_self_ns", "ns"),
    ("runtime.cpu_parallelism", "ratio"),
    ("replay.request_ns", "ns"),
    ("trace.coverage", "ratio"),
    ("trace.coverage_min", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Least median share of a replayed request's in-process time that the
/// layer spans must account for; a traced run below it fails.
pub const COVERAGE_MIN: f64 = 0.85;

/// Median of `values`, averaging the middle pair; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
