//! Wafer-economics campaign benchmarks: the §V cost-of-carbon grid
//! evaluated in closed form.
//!
//! `campaign/512` is the headline — the CI determinism grid (2 nodes ×
//! 4 areas × 4 defect densities × 16 purities). `point` is the
//! single-cell serve path (`econ_point`).

use carbon_econ::{CampaignGrid, EconConfig, NodeSpec, YieldModel};
use carbon_runtime::bench::{black_box, Harness};

fn grid() -> CampaignGrid {
    let nodes = ["cnt90", "cnt28"]
        .iter()
        .map(|n| NodeSpec::preset(n).expect("known preset"))
        .collect();
    CampaignGrid::new(
        nodes,
        vec![0.25, 0.5, 1.0, 2.0],
        vec![0.05, 0.1, 0.2, 0.5],
        (0..16)
            .map(|i| 0.9 + 0.0999 * f64::from(i) / 15.0)
            .collect(),
    )
    .expect("literal axes are valid")
}

fn main() {
    let mut h = Harness::group("econ");
    let config = EconConfig {
        yield_model: YieldModel::negative_binomial(2.0).expect("positive alpha"),
        ..EconConfig::default()
    };

    let grid = grid();
    h.bench("campaign/512", || {
        black_box(carbon_econ::evaluate(&grid, &config).expect("valid campaign"));
    });

    let point = CampaignGrid::point(
        NodeSpec::preset("cnt28").expect("known preset"),
        1.0,
        0.2,
        0.999,
    )
    .expect("literal cell is valid");
    h.bench("point", || {
        black_box(carbon_econ::evaluate(&point, &config).expect("valid point"));
    });

    h.finish();
}
