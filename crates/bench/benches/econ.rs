//! Wafer-economics campaign benchmarks: the §V cost-of-carbon grid
//! evaluated through the chunked executor.
//!
//! `campaign_fixed/512x256` is the headline — the CI determinism grid
//! (2 nodes × 4 areas × 4 defect densities × 16 purities) at 256
//! devices per cell. `point_fixed/4096` is the single-cell serve path
//! (`econ_point`) at its default sample depth.

use carbon_econ::{CampaignGrid, EconConfig, NodeSpec, YieldModel};
use carbon_runtime::bench::{black_box, Harness};
use carbon_runtime::Executor;

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

fn config(devices: u64) -> EconConfig {
    EconConfig {
        yield_model: YieldModel::negative_binomial(2.0).expect("positive alpha"),
        devices,
        seed: 2014,
        ..EconConfig::default()
    }
}

fn main() {
    let mut h = Harness::group("econ");
    let ex = Executor::new();
    let grid = grid();

    let fixed = config(256);
    h.bench("campaign_fixed/512x256", || {
        black_box(carbon_econ::evaluate(&ex, &grid, &fixed).expect("valid campaign"));
    });

    let point = CampaignGrid::point(
        NodeSpec::preset("cnt28").expect("known preset"),
        1.0,
        0.2,
        0.999,
    )
    .expect("literal cell is valid");
    let point_config = config(4096);
    h.bench("point_fixed/4096", || {
        black_box(carbon_econ::evaluate(&ex, &point, &point_config).expect("valid point"));
    });

    h.finish();
}
