//! Device-population Monte-Carlo: the Park et al. experiment in silico.
//!
//! §V highlights that self-assembly placement made possible "for the
//! first time a statistical analysis of more than 10,000 CNTFETs that
//! have been measured". [`VariabilityModel`] reproduces that pipeline:
//! every site of an array receives tubes from a placement model, each
//! tube draws a chirality from the (sorted) ensemble, and the resulting
//! device is classified:
//!
//! * **empty** — no tube landed: an open;
//! * **metallic short** — at least one metallic tube bridges the
//!   contacts: the gate cannot turn the device off;
//! * **functional** — only semiconducting tubes: threshold voltage and
//!   on-current are drawn with process dispersion.

use carbon_runtime::{Distribution, Executor, LogNormal, Normal, Rng};

use crate::placement::SelfAssembly;
use crate::stats;

/// Electrical outcome of one fabricated device site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceOutcome {
    /// No tube in the channel.
    Empty,
    /// At least one metallic tube shorts the channel.
    MetallicShort,
    /// A working FET with its sampled parameters.
    Functional {
        /// Threshold voltage, V.
        vt: f64,
        /// On-current at the benchmark bias, A.
        ion: f64,
        /// On/off current ratio.
        on_off: f64,
    },
}

/// The variability model: placement × purity × parameter dispersion.
#[derive(Debug, Clone, PartialEq)]
pub struct VariabilityModel {
    assembly: SelfAssembly,
    /// Semiconducting purity of the sorted ink.
    purity: f64,
    /// Mean and sigma of the threshold voltage, V.
    vt_mean: f64,
    vt_sigma: f64,
    /// Median on-current per tube, A, with log-normal dispersion.
    ion_median: f64,
    ion_sigma_ln: f64,
}

/// Error building a [`VariabilityModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct BuildVariabilityError(String);

impl std::fmt::Display for BuildVariabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid variability model: {}", self.0)
    }
}

impl std::error::Error for BuildVariabilityError {}

impl VariabilityModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildVariabilityError`] for purity outside `[0, 1]` or
    /// non-positive dispersion scales.
    pub fn new(
        assembly: SelfAssembly,
        purity: f64,
        vt_mean: f64,
        vt_sigma: f64,
        ion_median: f64,
        ion_sigma_ln: f64,
    ) -> Result<Self, BuildVariabilityError> {
        if !(0.0..=1.0).contains(&purity) {
            return Err(BuildVariabilityError(format!(
                "purity must be in [0, 1], got {purity}"
            )));
        }
        if vt_sigma < 0.0 || ion_sigma_ln < 0.0 {
            return Err(BuildVariabilityError("dispersions must be ≥ 0".into()));
        }
        if ion_median <= 0.0 {
            return Err(BuildVariabilityError(format!(
                "median on-current must be positive, got {ion_median}"
            )));
        }
        Ok(Self {
            assembly,
            purity,
            vt_mean,
            vt_sigma,
            ion_median,
            ion_sigma_ln,
        })
    }

    /// The Park et al. style array: high site occupancy, 99.9 %-pure
    /// ink, ±70 mV threshold dispersion, ~10 µA median on-current with
    /// 40 % log-normal spread.
    pub fn park_experiment() -> Self {
        Self::new(
            SelfAssembly::park_high_density(),
            0.999,
            0.35,
            0.07,
            10e-6,
            0.4,
        )
        .expect("preset is valid")
    }

    /// Samples one device site.
    pub fn sample_device<R: Rng + ?Sized>(&self, rng: &mut R) -> DeviceOutcome {
        let tubes = self.assembly.sample_site(rng);
        if tubes == 0 {
            return DeviceOutcome::Empty;
        }
        let metallic = (0..tubes).any(|_| rng.next_f64() > self.purity);
        if metallic {
            return DeviceOutcome::MetallicShort;
        }
        let vt = Normal::new(self.vt_mean, self.vt_sigma.max(1e-12))
            .expect("validated")
            .sample(rng);
        let per_tube =
            LogNormal::new(self.ion_median.ln(), self.ion_sigma_ln.max(1e-12)).expect("validated");
        let ion: f64 = (0..tubes).map(|_| per_tube.sample(rng)).sum();
        // On/off set by how far Vt sits above the off bias, ~1 decade
        // per 90 mV of margin plus device-to-device scatter.
        let decades = (vt / 0.090) + Normal::new(0.0, 0.5).expect("const").sample(rng);
        let on_off = 10f64.powf(decades.clamp(0.5, 8.0));
        DeviceOutcome::Functional { vt, ion, on_off }
    }

    /// Samples a whole array.
    pub fn sample_population<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> DevicePopulation {
        DevicePopulation {
            outcomes: (0..n).map(|_| self.sample_device(rng)).collect(),
        }
    }

    /// Samples a whole array in parallel from a seed.
    ///
    /// Runs on the runtime executor's deterministic chunked schedule:
    /// the result is bit-identical to itself at every thread count
    /// (though not to the sequential [`sample_population`] draw order,
    /// since each chunk owns an independent RNG stream).
    ///
    /// [`sample_population`]: Self::sample_population
    pub fn sample_population_par(&self, seed: u64, n: usize) -> DevicePopulation {
        self.sample_population_with(&Executor::new(), seed, n)
    }

    /// Samples a whole array on an explicit executor (for pinning the
    /// thread count, e.g. in determinism tests).
    pub fn sample_population_with(&self, ex: &Executor, seed: u64, n: usize) -> DevicePopulation {
        DevicePopulation {
            outcomes: ex.par_mc(seed, n, |_, rng| self.sample_device(rng)),
        }
    }
}

/// A measured array of devices with summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePopulation {
    outcomes: Vec<DeviceOutcome>,
}

impl DevicePopulation {
    /// All device outcomes.
    pub fn outcomes(&self) -> &[DeviceOutcome] {
        &self.outcomes
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Fraction of functional devices.
    pub fn functional_yield(&self) -> f64 {
        self.count_functional() as f64 / self.outcomes.len().max(1) as f64
    }

    /// Count of functional devices.
    pub fn count_functional(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, DeviceOutcome::Functional { .. }))
            .count()
    }

    /// Fraction of metallic shorts.
    pub fn short_fraction(&self) -> f64 {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, DeviceOutcome::MetallicShort))
            .count() as f64
            / self.outcomes.len().max(1) as f64
    }

    /// Fraction of empty sites.
    pub fn empty_fraction(&self) -> f64 {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, DeviceOutcome::Empty))
            .count() as f64
            / self.outcomes.len().max(1) as f64
    }

    /// Threshold voltages of the functional devices.
    pub fn thresholds(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                DeviceOutcome::Functional { vt, .. } => Some(*vt),
                _ => None,
            })
            .collect()
    }

    /// On-currents of the functional devices, A.
    pub fn on_currents(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                DeviceOutcome::Functional { ion, .. } => Some(*ion),
                _ => None,
            })
            .collect()
    }

    /// log₁₀ of the on/off ratios of the functional devices.
    pub fn log_on_off(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                DeviceOutcome::Functional { on_off, .. } => Some(on_off.log10()),
                _ => None,
            })
            .collect()
    }

    /// Mean and standard deviation of the threshold voltage, V.
    pub fn vt_statistics(&self) -> (f64, f64) {
        let v = self.thresholds();
        (stats::mean(&v), stats::std_dev(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_runtime::{Executor, Xoshiro256pp};

    fn population(n: usize, seed: u64) -> DevicePopulation {
        VariabilityModel::park_experiment()
            .sample_population(&mut Xoshiro256pp::seed_from_u64(seed), n)
    }

    #[test]
    fn ten_thousand_device_experiment() {
        // The §V headline: measure >10,000 devices and do statistics.
        let pop = population(10_000, 1);
        assert_eq!(pop.len(), 10_000);
        assert!(
            pop.functional_yield() > 0.5,
            "yield {}",
            pop.functional_yield()
        );
        let (vt_mean, vt_std) = pop.vt_statistics();
        assert!((vt_mean - 0.35).abs() < 0.01, "Vt mean {vt_mean}");
        assert!((vt_std - 0.07).abs() < 0.01, "Vt sigma {vt_std}");
    }

    #[test]
    fn outcome_fractions_sum_to_one() {
        let pop = population(5000, 2);
        let sum = pop.functional_yield() + pop.short_fraction() + pop.empty_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(
            (pop.empty_fraction() - 0.10).abs() < 0.02,
            "Poisson empties"
        );
    }

    #[test]
    fn purity_controls_shorts() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let dirty = VariabilityModel::new(
            SelfAssembly::park_high_density(),
            0.67,
            0.35,
            0.07,
            10e-6,
            0.4,
        )
        .unwrap()
        .sample_population(&mut rng, 5000);
        let clean = population(5000, 3);
        assert!(
            dirty.short_fraction() > 10.0 * clean.short_fraction(),
            "dirty {} vs clean {}",
            dirty.short_fraction(),
            clean.short_fraction()
        );
    }

    #[test]
    fn on_current_distribution_is_positive_and_skewed() {
        let pop = population(8000, 4);
        let ion = pop.on_currents();
        assert!(ion.iter().all(|&i| i > 0.0));
        let mean = stats::mean(&ion);
        let median = stats::percentile(&ion, 50.0);
        assert!(
            mean > median,
            "log-normal + multi-tube skew: {mean} vs {median}"
        );
    }

    #[test]
    fn on_off_histogram_spans_decades() {
        let pop = population(8000, 5);
        let loo = pop.log_on_off();
        let lo = stats::percentile(&loo, 5.0);
        let hi = stats::percentile(&loo, 95.0);
        assert!(hi - lo > 1.0, "spread {lo}..{hi}");
        assert!(hi <= 8.0 + 1e-12);
    }

    #[test]
    fn determinism_by_seed() {
        let a = population(100, 9);
        let b = population(100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_population_is_thread_count_invariant() {
        let model = VariabilityModel::park_experiment();
        let reference = model.sample_population_with(&Executor::with_threads(1), 2014, 4000);
        for threads in [2, 4] {
            let pop = model.sample_population_with(&Executor::with_threads(threads), 2014, 4000);
            assert_eq!(pop, reference, "divergence at {threads} threads");
        }
        // And the public seeded entry point matches the same contract.
        assert_eq!(
            model.sample_population_par(2014, 4000).vt_statistics(),
            reference.vt_statistics()
        );
    }

    #[test]
    fn parallel_population_statistics_match_sequential() {
        // Different draw order than the sequential path, but the same
        // model: summary statistics must agree within Monte-Carlo noise.
        let par = VariabilityModel::park_experiment().sample_population_par(11, 10_000);
        let seq = population(10_000, 11);
        assert!((par.functional_yield() - seq.functional_yield()).abs() < 0.02);
        let (pm, ps) = par.vt_statistics();
        let (sm, ss) = seq.vt_statistics();
        assert!((pm - sm).abs() < 0.01, "means {pm} vs {sm}");
        assert!((ps - ss).abs() < 0.01, "sigmas {ps} vs {ss}");
    }

    #[test]
    fn mc_yield_tracks_the_analytic_short_rate() {
        // The sampler is the oracle for the closed form carbon-econ
        // uses: its short-free rate must sit within 3σ of e^(-λ(1-p)).
        let assembly = SelfAssembly::park_high_density();
        let n = 40_000;
        for (seed, purity) in [0.9, 0.95, 0.97, 0.99, 1.0].into_iter().enumerate() {
            let model =
                VariabilityModel::new(assembly.clone(), purity, 0.35, 0.07, 10e-6, 0.4).unwrap();
            let mut rng = Xoshiro256pp::seed_from_u64(seed as u64);
            let short_free = (0..n)
                .filter(|_| model.sample_device(&mut rng) != DeviceOutcome::MetallicShort)
                .count();
            let mc = short_free as f64 / f64::from(n);
            let exact = assembly.short_free_probability(purity);
            let sigma = (exact * (1.0 - exact) / f64::from(n)).sqrt();
            assert!(
                (mc - exact).abs() <= 3.0 * sigma,
                "purity {purity}: mc {mc} vs exact {exact} (σ {sigma})"
            );
        }
    }

    #[test]
    fn validation() {
        let asm = SelfAssembly::park_high_density();
        assert!(VariabilityModel::new(asm.clone(), 1.5, 0.3, 0.05, 1e-6, 0.3).is_err());
        assert!(VariabilityModel::new(asm.clone(), 0.9, 0.3, -0.05, 1e-6, 0.3).is_err());
        assert!(VariabilityModel::new(asm, 0.9, 0.3, 0.05, 0.0, 0.3).is_err());
    }
}
