//! Figure experiments as service jobs.
//!
//! The carbon-serve job service runs the paper's figure experiments on
//! demand. The experiments return rich result structs; the service needs
//! a flat, deterministic rendering. This module adapts the two: each
//! `figN_report` runs the experiment and folds it into a [`JobReport`] —
//! an ordered scalar list whose order and values are identical on every
//! run, so a serialized report is byte-stable.
//!
//! New scalars may be appended over time; existing names and their
//! relative order are part of the service contract and must not change.

use crate::error::CoreError;
use crate::{fig2, fig5, fig7_stats};

/// Flat, deterministically ordered summary of one figure experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Experiment name (`"fig2"`, `"fig5"`, `"fig7"`).
    pub name: &'static str,
    /// Named scalar results, in a fixed order.
    pub scalars: Vec<(&'static str, f64)>,
}

/// Runs the Fig. 2 inverter experiment and flattens it.
///
/// # Errors
///
/// Propagates circuit-simulation failures from [`fig2::run`].
pub fn fig2_report() -> Result<JobReport, CoreError> {
    let r = fig2::run()?;
    Ok(JobReport {
        name: "fig2",
        scalars: vec![
            ("nm_low_saturating_v", r.margins_saturating.low),
            ("nm_high_saturating_v", r.margins_saturating.high),
            ("nm_low_non_saturating_v", r.margins_non_saturating.low),
            ("nm_high_non_saturating_v", r.margins_non_saturating.high),
            ("max_gain_saturating", r.max_gain[0]),
            ("max_gain_non_saturating", r.max_gain[1]),
            ("conduction_fraction_saturating", r.conduction_fraction[0]),
            (
                "conduction_fraction_non_saturating",
                r.conduction_fraction[1],
            ),
            ("stage_delay_s", r.stage_delay_s),
        ],
    })
}

/// Runs the Fig. 5 CNT benchmarking experiment and flattens it.
///
/// # Errors
///
/// Propagates device construction and extraction failures from
/// [`fig5::run`].
pub fn fig5_report() -> Result<JobReport, CoreError> {
    let r = fig5::run()?;
    let mut scalars = vec![
        ("min_advantage", r.min_advantage),
        ("cnt_points", r.cnt.len() as f64),
        ("reference_series", r.references.len() as f64),
    ];
    if let Some(shortest) = r.cnt.first() {
        scalars.push(("shortest_gate_nm", shortest.gate_length_nm));
        scalars.push(("shortest_gate_ion_ua_per_um", shortest.ion_ua_per_um));
        scalars.push(("shortest_gate_ballisticity", shortest.ballisticity));
    }
    Ok(JobReport {
        name: "fig5",
        scalars,
    })
}

/// Runs the §V variability-statistics experiment and flattens it.
///
/// # Errors
///
/// The campaign itself is deterministic and infallible; the `Result`
/// mirrors [`fig7_stats::run`].
pub fn fig7_report() -> Result<JobReport, CoreError> {
    let r = fig7_stats::run()?;
    Ok(JobReport {
        name: "fig7",
        scalars: vec![
            ("functional_yield", r.fractions[0]),
            ("short_fraction", r.fractions[1]),
            ("empty_fraction", r.fractions[2]),
            ("vt_mean_v", r.vt_stats.0),
            ("vt_sigma_v", r.vt_stats.1),
            ("ion_p5_ua", r.ion_percentiles[0]),
            ("ion_p50_ua", r.ion_percentiles[1]),
            ("ion_p95_ua", r.ion_percentiles[2]),
            ("sorting_processes", r.sorting.len() as f64),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_report_is_deterministic_and_ordered() {
        let a = fig7_report().unwrap();
        let b = fig7_report().unwrap();
        assert_eq!(a, b, "repeated runs must produce identical reports");
        assert_eq!(a.name, "fig7");
        let names: Vec<_> = a.scalars.iter().map(|(n, _)| *n).collect();
        assert_eq!(names[0], "functional_yield");
        assert!(
            a.scalars.iter().all(|(_, v)| v.is_finite()),
            "all report scalars must be finite: {:?}",
            a.scalars
        );
    }

    #[test]
    fn fig2_report_names_are_unique() {
        let r = fig2_report().unwrap();
        let mut names: Vec<_> = r.scalars.iter().map(|(n, _)| *n).collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate scalar name in fig2 report");
        assert!(r.scalars.iter().all(|(_, v)| v.is_finite()));
    }
}
