//! Request schedules: every job body a run sends is a pure function of
//! `(workload, seed, phase, connection, request index)`.
//!
//! The three workloads are chosen so that each cost-saving mechanism in
//! the server has one workload that exercises it and one that bypasses
//! it (see `METRICS.md` for the full map):
//!
//! - `circuit_cold` — every request is a distinct circuit deck, so the
//!   response cache only misses, inserts and evicts, and the spice
//!   solve plus JSON render dominate.
//! - `hot_repeat` — 64 small bodies cached during warm-up and re-sent
//!   under fresh ids, so every timed request is a cache read and the
//!   request path around the cache dominates.
//! - `econ_sweep` — distinct 256-cell wafer-economics campaigns on one
//!   connection, so the econ Monte-Carlo and the runtime's chunked
//!   fan-out dominate.

use carbon_json::Json;

/// Most connections any workload opens: one per core of the two cores
/// the load shape is sized for (a blocking client has one request in
/// flight per connection).
pub const MAX_CONNECTIONS: u64 = 2;

/// Distinct bodies in the `hot_repeat` working set.
pub const HOT_BODIES: usize = 64;

/// Timed request ids start here; warm-up ids stay below it.
const TIMED_ID_BASE: u64 = 1_000_000_000;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct circuit decks: cache misses, spice solve and render.
    CircuitCold,
    /// 64 cached bodies re-sent: cache hits and the request path.
    HotRepeat,
    /// Distinct 256-cell econ campaigns: Monte-Carlo and fan-out.
    EconSweep,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Self; 3] = [Self::CircuitCold, Self::HotRepeat, Self::EconSweep];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::CircuitCold => "circuit_cold",
            Self::HotRepeat => "hot_repeat",
            Self::EconSweep => "econ_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections during the timed window.
    pub fn connections(self) -> u64 {
        match self {
            Self::EconSweep => 1,
            Self::CircuitCold | Self::HotRepeat => MAX_CONNECTIONS,
        }
    }
}

/// The part of a run a request belongs to. Warm-up and timed requests
/// use disjoint ids, so a timed `circuit_cold` deck never repeats a
/// warm-up deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up traffic that fills the cache before timing starts.
    Warmup,
    /// Traffic inside the timed window.
    Timed,
}

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A workload's schedule for one seed.
pub struct Schedule {
    workload: Workload,
    seed: u64,
    /// Rendered `job` fields of the `hot_repeat` working set.
    hot: Vec<String>,
}

impl Schedule {
    /// The schedule of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let hot = if workload == Workload::HotRepeat {
            (0..HOT_BODIES)
                .map(|n| hot_body(seed, n).render())
                .collect()
        } else {
            Vec::new()
        };
        Self {
            workload,
            seed,
            hot,
        }
    }

    /// The workload this schedule drives.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Warm-up requests per set-up, or `None` when warm-up runs until
    /// the cache starts evicting (`circuit_cold`).
    pub fn warmup_len(&self) -> Option<u64> {
        match self.workload {
            Workload::CircuitCold => None,
            Workload::HotRepeat => Some(HOT_BODIES as u64),
            Workload::EconSweep => Some(2),
        }
    }

    /// The request id of request `j` on connection `conn`: unique
    /// across phases and connections.
    pub fn id(phase: Phase, conn: u64, j: u64) -> u64 {
        let base = match phase {
            Phase::Warmup => 0,
            Phase::Timed => TIMED_ID_BASE,
        };
        base + j * MAX_CONNECTIONS + conn
    }

    /// The rendered `job` field of request `j` on connection `conn`.
    pub fn job(&self, phase: Phase, conn: u64, j: u64) -> String {
        let id = Self::id(phase, conn, j);
        match self.workload {
            Workload::CircuitCold => {
                cold_body(self.seed, id, (j + 2 * conn + self.seed) % 4).render()
            }
            Workload::HotRepeat => {
                let n = match phase {
                    // Warm-up sends each body once, in order.
                    Phase::Warmup => j as usize % HOT_BODIES,
                    Phase::Timed => (mix(self.seed ^ mix(id)) % HOT_BODIES as u64) as usize,
                };
                self.hot[n].clone()
            }
            Workload::EconSweep => econ_body(self.seed, id).render(),
        }
    }

    /// The full request envelope of request `j` on connection `conn`,
    /// with its id. Byte-identical to rendering
    /// `{"id": id, "job": job}` through [`Json`].
    pub fn request(&self, phase: Phase, conn: u64, j: u64) -> (u64, String) {
        let id = Self::id(phase, conn, j);
        (
            id,
            format!("{{\"id\":{id},\"job\":{}}}", self.job(phase, conn, j)),
        )
    }
}

fn strs(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str((*s).to_owned())).collect())
}

fn nums(items: &[f64]) -> Json {
    Json::Arr(items.iter().map(|&v| Json::Num(v)).collect())
}

/// A resistor value that is distinct for every `tag` and varies with
/// the seed: a seeded base in 1000..1100 ohms, then `tag` as the
/// fractional digits. Distinct tags give distinct deck text, hence
/// distinct cache keys.
fn resistor(seed: u64, tag: u64) -> String {
    format!("{}.{tag}", 1000 + mix(seed ^ mix(tag)) % 100)
}

/// `n` forward-biased diodes in series behind a resistor.
fn diode_chain(n: usize, r: &str, volts: f64) -> String {
    let mut deck = format!("* diode chain {n}\nV1 in 0 {volts}\nR1 in n1 {r}\n");
    for i in 1..=n {
        let next = if i == n {
            "0".to_owned()
        } else {
            format!("n{}", i + 1)
        };
        deck.push_str(&format!("D{i} n{i} {next}\n"));
    }
    deck.push_str(".end\n");
    deck
}

/// An RC ladder of `n` sections: large enough for the sparse solver.
fn rc_ladder(n: usize, r: &str) -> String {
    let mut deck = format!("* rc ladder {n}\nV1 in 0 1\nR1 in n1 {r}\nC1 n1 0 10n\n");
    for i in 2..=n {
        deck.push_str(&format!("R{i} n{} n{i} 1k\nC{i} n{i} 0 10n\n", i - 1));
    }
    deck.push_str(".end\n");
    deck
}

/// One `circuit_cold` job. `kind` cycles op / dc_sweep / ac_sweep /
/// transient; the seeded resistor makes every body distinct.
fn cold_body(seed: u64, id: u64, kind: u64) -> Json {
    let r = resistor(seed, id);
    match kind {
        0 => Json::obj()
            .push("kind", "op")
            .push("deck", diode_chain(24, &r, 20.0))
            .push("nodes", strs(&["n1", "n12", "n24"])),
        1 => Json::obj()
            .push("kind", "dc_sweep")
            .push("deck", diode_chain(8, &r, 8.0))
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 8.0)
            .push("step", 0.04)
            .push("nodes", strs(&["n1", "n4", "n8"])),
        2 => Json::obj()
            .push("kind", "ac_sweep")
            .push("deck", rc_ladder(32, &r))
            .push("source", "V1")
            .push("fstart", 10.0)
            .push("fstop", 1e9)
            .push("points_per_decade", 30)
            .push("nodes", strs(&["n8", "n16", "n32"])),
        _ => Json::obj()
            .push("kind", "transient")
            .push(
                "deck",
                format!(
                    "* diode clipper\nV1 in 0 SIN(0 5 1k)\nR1 in out {r}\nD1 out 0\nD2 0 out\n.end\n"
                ),
            )
            .push("tstep", 1e-6)
            .push("tstop", 1e-3)
            .push("nodes", strs(&["in", "out"])),
    }
}

/// Body `n` of the 64-body `hot_repeat` working set: 16 op, 16
/// 9-point dc_sweep, 15 100-step transient, 15 econ_point, fig2, fig7.
fn hot_body(seed: u64, n: usize) -> Json {
    let tag = n as u64;
    let divider = |r: &str| format!("* divider\nV1 top 0 2\nR1 top mid {r}\nR2 mid 0 2k\n.end\n");
    match n {
        0..=15 => Json::obj()
            .push("kind", "op")
            .push("deck", divider(&resistor(seed, tag)))
            .push("nodes", strs(&["mid", "top"])),
        16..=31 => Json::obj()
            .push("kind", "dc_sweep")
            .push("deck", divider(&resistor(seed, tag)))
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 2.0)
            .push("step", 0.25)
            .push("nodes", strs(&["mid"])),
        32..=46 => Json::obj()
            .push("kind", "transient")
            .push(
                "deck",
                format!(
                    "* rc low-pass\nV1 in 0 1\nR1 in out {}\nC1 out 0 10n\n.end\n",
                    resistor(seed, tag)
                ),
            )
            .push("tstep", 1e-7)
            .push("tstop", 1e-5)
            .push("nodes", strs(&["out"])),
        47..=61 => {
            let presets = carbon_econ::NodeSpec::PRESET_NAMES;
            Json::obj()
                .push("kind", "econ_point")
                .push("node", presets[n % presets.len()])
                .push("area_cm2", 1.0)
                .push("d0", 0.2)
                .push(
                    "purity",
                    0.99 + (mix(seed) % 50) as f64 * 1e-4 + tag as f64 * 1e-6,
                )
        }
        62 => Json::obj().push("kind", "fig2"),
        _ => Json::obj().push("kind", "fig7"),
    }
}

/// One `econ_sweep` campaign: 2 nodes × 4 areas × 4 defect densities ×
/// 8 purities = 256 cells at the default device count. Only the first
/// purity depends on the request, so bodies differ through the purity
/// axis alone and carry no Monte-Carlo sizing or seed field.
fn econ_body(seed: u64, id: u64) -> Json {
    let first = 0.9 + (mix(seed) % 5000) as f64 * 1e-5 - id as f64 * 1e-13;
    Json::obj()
        .push("kind", "econ_campaign")
        .push("nodes", strs(&["cnt45", "cnt16"]))
        .push("areas_cm2", nums(&[0.25, 0.5, 1.0, 2.0]))
        .push("d0", nums(&[0.05, 0.1, 0.2, 0.4]))
        .push(
            "purities",
            nums(&[first, 0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999, 0.99999]),
        )
}
