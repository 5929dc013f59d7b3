//! The registry records, the trace observes: over one traced run, every
//! counter's trace total must equal its `carbon-metrics` registry delta.
//!
//! Kept as its own integration-test binary with a single `#[test]`, so
//! no concurrent test can add to the process-global registry between
//! the two snapshots, and the run stays on the calling thread, where
//! the thread-local subscriber sees every event.

use std::collections::BTreeMap;

use carbon_spice::{Circuit, Waveform};
use carbon_trace::collect::Collector;

/// `n` forward diode drops from a swept source: nonlinear enough to
/// factor, replay and repivot the sparse LU.
fn diode_chain(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "n0", "0", 5.0);
    ckt.resistor("r", "n0", "d0", 1e3).unwrap();
    for i in 0..n {
        ckt.diode(
            &format!("d{i}"),
            &format!("d{i}"),
            &format!("d{}", i + 1),
            1e-15,
            1.0,
        )
        .unwrap();
    }
    ckt.resistor("rt", &format!("d{n}"), "0", 10.0).unwrap();
    ckt
}

/// A pulse into a diode-clamped two-pole RC: the adaptive controller
/// both accepts and rejects steps.
fn pulse_deck() -> Circuit {
    let mut ckt = Circuit::new();
    let pulse = Waveform::Pulse {
        low: 0.0,
        high: 1.0,
        delay: 1e-8,
        rise: 1e-9,
        fall: 1e-9,
        width: 5e-7,
        period: 0.0,
    };
    ckt.voltage_source_wave("v", "in", "0", pulse).unwrap();
    ckt.resistor("r1", "in", "fast", 1e2).unwrap();
    ckt.capacitor("c1", "fast", "0", 1e-11).unwrap();
    ckt.diode("d1", "fast", "0", 1e-15, 1.0).unwrap();
    ckt.resistor("r2", "fast", "slow", 1e4).unwrap();
    ckt.capacitor("c2", "slow", "0", 1e-9).unwrap();
    ckt
}

fn registry_counters() -> BTreeMap<String, u64> {
    carbon_metrics::global().snapshot().counters
}

#[test]
fn trace_counter_totals_equal_registry_deltas() {
    let before = registry_counters();
    let collector = Collector::new();
    carbon_trace::with_subscriber(collector.clone(), || {
        diode_chain(24).dc_sweep("v", 0.0, 5.0, 0.25).unwrap();
        pulse_deck().transient_adaptive(1e-9, 2e-6).unwrap();
    });
    let after = registry_counters();

    let delta: BTreeMap<&str, u64> = after
        .iter()
        .map(|(name, total)| {
            let base = before.get(name).copied().unwrap_or(0);
            (name.as_str(), total - base)
        })
        .filter(|&(_, d)| d > 0)
        .collect();
    assert_eq!(
        collector.counter_totals(),
        delta,
        "trace totals vs registry deltas"
    );

    for name in [
        "spice.newton.solves.dc",
        "spice.newton.iterations.dc",
        "spice.newton.solves.tran",
        "spice.newton.iterations.tran",
        "spice.sparse.factor",
        "spice.sparse.replay",
        "spice.tran.steps",
        "spice.tran.rejects",
    ] {
        assert!(
            delta.get(name).copied().unwrap_or(0) > 0,
            "{name} never fired"
        );
    }
}
