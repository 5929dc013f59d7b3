//! Response rendering benchmarks: the float writer alone, and the
//! largest served result it dominates.
//!
//! `write_f64/4096` writes 4 096 finite `f64`s drawn from seeded random
//! bit patterns (all exponents, subnormals included) into one reused
//! buffer. `render/econ_256` renders the result tree of the 256-cell
//! `econ_campaign` the `econ_sweep` serve workload sends (2 nodes × 4
//! areas × 4 defect densities × 8 purities): ≈2 800 floats and ≈3 800
//! keys.

use carbon_json::Json;
use carbon_runtime::bench::{black_box, Harness};
use carbon_runtime::rng::SplitMix64;

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn econ_result() -> Json {
    let job = Json::obj()
        .push("kind", "econ_campaign")
        .push(
            "nodes",
            Json::Arr(vec![Json::from("cnt45"), Json::from("cnt16")]),
        )
        .push("areas_cm2", floats(&[0.25, 0.5, 1.0, 2.0]))
        .push("d0", floats(&[0.05, 0.1, 0.2, 0.4]))
        .push(
            "purities",
            floats(&[0.9, 0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999, 0.99999]),
        );
    carbon_serve::Job::from_json(&job)
        .expect("valid campaign")
        .run()
        .expect("campaign evaluates")
}

fn main() {
    let mut h = Harness::group("json");

    let mut rng = SplitMix64::new(2014);
    let patterns: Vec<f64> = std::iter::repeat_with(|| f64::from_bits(rng.next_u64()))
        .filter(|v| v.is_finite())
        .take(4096)
        .collect();
    let mut out = String::with_capacity(4096 * 24);
    h.bench("write_f64/4096", || {
        out.clear();
        for &v in &patterns {
            carbon_json::write_f64(&mut out, black_box(v));
        }
        black_box(&out);
    });

    let result = econ_result();
    h.bench("render/econ_256", || {
        black_box(black_box(&result).render());
    });

    h.finish();
}
