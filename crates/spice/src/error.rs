//! Error type shared by netlist construction and the analyses.

/// Errors reported by the circuit simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// An element value was rejected (zero resistance, negative
    /// capacitance, NaN source value, ...).
    InvalidValue {
        /// Element name as given to the netlist builder.
        element: String,
        /// Human-readable reason.
        reason: String,
    },
    /// Two elements were registered under the same name.
    DuplicateElement {
        /// The colliding name.
        name: String,
    },
    /// A requested node does not exist in the circuit.
    UnknownNode {
        /// The unknown node name.
        name: String,
    },
    /// A requested element (e.g. the source of a DC sweep) does not exist
    /// or is not of the expected kind.
    UnknownSource {
        /// The unknown source name.
        name: String,
    },
    /// The requested AC stimulus does not name an independent source —
    /// reported with the valid choices so a typo is a one-glance fix.
    UnknownAcSource {
        /// The requested stimulus name.
        name: String,
        /// Names of the circuit's independent voltage/current sources,
        /// in netlist order — the valid stimulus choices.
        available: Vec<String>,
    },
    /// The MNA matrix is singular: the circuit is under-constrained
    /// (floating node, voltage-source loop, ...).
    SingularMatrix {
        /// Row index at which elimination failed — usually maps to the
        /// offending node.
        row: usize,
        /// Magnitude of the offending pivot on the row-equilibrated
        /// matrix (0.0 for a structurally empty row).
        pivot: f64,
    },
    /// Newton iteration failed to converge even with gmin and source
    /// stepping.
    NonConvergence {
        /// Which analysis was running.
        analysis: &'static str,
        /// Iterations performed in the last attempt.
        iterations: usize,
        /// Largest solution update at abort, V.
        residual: f64,
    },
    /// A DC sweep's step-halving continuation ran out of halvings
    /// without converging — reported with the failing sweep value and
    /// the last Newton residual so the offending bias region is
    /// identifiable without re-running under a debugger.
    ContinuationExhausted {
        /// Source value (V or A) of the bias point that refused to
        /// converge, after all step halvings.
        sweep_value: f64,
        /// Iterations performed in the last Newton attempt.
        iterations: usize,
        /// Largest node-voltage update when that attempt aborted, V.
        residual: f64,
    },
    /// A transient time point refused to converge even after the
    /// damped retry — reported with the failing time (a dedicated
    /// field, not smuggled through the residual) and the last Newton
    /// attempt's true iteration count and residual, matching the
    /// `dc_sweep` continuation-exhaustion style.
    TransientNonConvergence {
        /// Simulation time (s) of the point that refused to converge.
        time: f64,
        /// Iterations performed in the last Newton attempt.
        iterations: usize,
        /// Largest node-voltage update when that attempt aborted, V.
        residual: f64,
    },
    /// Adaptive transient step control halved the step below its floor
    /// without the local-truncation estimate ever accepting a step —
    /// the time-domain analogue of continuation exhaustion.
    TimestepCollapsed {
        /// Simulation time (s) the integrator was stuck at.
        time: f64,
        /// The rejected step size, s.
        step: f64,
        /// The configured minimum step, s.
        min_step: f64,
    },
    /// Adaptive transient step control used up its step budget
    /// ([`crate::MAX_ADAPTIVE_STEPS`], accepted plus rejected steps)
    /// before reaching the end of the horizon.
    StepBudgetExceeded {
        /// Simulation time (s) reached when the budget ran out.
        time: f64,
    },
    /// A sweep or transient was asked for with a non-positive step, or
    /// bounds in the wrong order.
    InvalidSweep {
        /// Human-readable reason.
        reason: String,
    },
    /// The analysis observed a cooperative-cancellation request (an
    /// explicit cancel or an expired deadline on the installed
    /// [`carbon_runtime::cancel::CancelToken`]) at one of its
    /// checkpoints and stopped early. The partial state is discarded.
    Cancelled {
        /// Which analysis was running when the checkpoint fired.
        analysis: &'static str,
    },
}

impl std::fmt::Display for SpiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidValue { element, reason } => {
                write!(f, "invalid value for element '{element}': {reason}")
            }
            Self::DuplicateElement { name } => {
                write!(f, "element '{name}' is already defined")
            }
            Self::UnknownNode { name } => write!(f, "unknown node '{name}'"),
            Self::UnknownSource { name } => write!(f, "unknown source '{name}'"),
            Self::UnknownAcSource { name, available } => {
                if available.is_empty() {
                    write!(
                        f,
                        "unknown AC stimulus '{name}': the circuit has no independent sources"
                    )
                } else {
                    write!(
                        f,
                        "unknown AC stimulus '{name}': available AC sources are {}",
                        available.join(", ")
                    )
                }
            }
            Self::SingularMatrix { row, pivot } => write!(
                f,
                "singular MNA matrix at row {row}: equilibrated pivot |{pivot:.3e}| below \
                 tolerance (floating node or source loop)"
            ),
            Self::NonConvergence {
                analysis,
                iterations,
                residual,
            } => write!(
                f,
                "{analysis} failed to converge after {iterations} iterations (last update {residual:.3e} V)"
            ),
            Self::ContinuationExhausted {
                sweep_value,
                iterations,
                residual,
            } => write!(
                f,
                "dc sweep failed to converge at sweep value {sweep_value:.6} (step-halving \
                 continuation exhausted): last Newton attempt left residual {residual:.3e} V \
                 after {iterations} iterations"
            ),
            Self::TransientNonConvergence {
                time,
                iterations,
                residual,
            } => write!(
                f,
                "transient failed to converge at t = {time:.6e} s: last Newton attempt left \
                 residual {residual:.3e} V after {iterations} iterations"
            ),
            Self::TimestepCollapsed {
                time,
                step,
                min_step,
            } => write!(
                f,
                "adaptive transient step collapsed at t = {time:.6e} s: step {step:.3e} s fell \
                 below the minimum {min_step:.3e} s without an accepted step"
            ),
            Self::StepBudgetExceeded { time } => write!(
                f,
                "adaptive transient used its budget of {} steps (accepted plus rejected) \
                 at t = {time:.6e} s, before the end of the horizon",
                crate::MAX_ADAPTIVE_STEPS
            ),
            Self::InvalidSweep { reason } => write!(f, "invalid sweep: {reason}"),
            Self::Cancelled { analysis } => {
                write!(f, "{analysis} cancelled (deadline exceeded or job cancelled)")
            }
        }
    }
}

impl std::error::Error for SpiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SpiceError::NonConvergence {
            analysis: "dc operating point",
            iterations: 100,
            residual: 3.2e-2,
        };
        let s = e.to_string();
        assert!(s.contains("dc operating point") && s.contains("100"));
        assert!(SpiceError::UnknownNode { name: "out".into() }
            .to_string()
            .contains("out"));
        let singular = SpiceError::SingularMatrix {
            row: 3,
            pivot: 4.5e-16,
        }
        .to_string();
        assert!(singular.contains("row 3"), "{singular}");
        assert!(singular.contains("4.500e-16"), "{singular}");
        let exhausted = SpiceError::ContinuationExhausted {
            sweep_value: 0.8125,
            iterations: 150,
            residual: 4.2e-1,
        }
        .to_string();
        assert!(exhausted.contains("0.8125"), "{exhausted}");
        assert!(exhausted.contains("4.200e-1"), "{exhausted}");
        assert!(exhausted.contains("150"), "{exhausted}");
        // The transient failure names the time in its own field and
        // keeps the residual a residual.
        let tran = SpiceError::TransientNonConvergence {
            time: 2.5e-7,
            iterations: 600,
            residual: 1.7e-2,
        }
        .to_string();
        assert!(tran.contains("2.500000e-7"), "{tran}");
        assert!(tran.contains("600"), "{tran}");
        assert!(tran.contains("1.700e-2"), "{tran}");
        let collapsed = SpiceError::TimestepCollapsed {
            time: 1e-9,
            step: 1e-21,
            min_step: 1e-18,
        }
        .to_string();
        assert!(collapsed.contains("1.000e-21"), "{collapsed}");
        assert!(collapsed.contains("1.000e-18"), "{collapsed}");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<SpiceError>();
    }
}
