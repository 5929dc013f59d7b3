//! The schedules are pure functions of (workload, seed) with the
//! properties each workload is chosen for.

use std::collections::BTreeSet;

use carbon_json::Json;
use carbon_serve::Job;
use perfbench::schedule::{Phase, Schedule, Workload, HOT_BODIES};

const SEEDS: [u64; 3] = [0, 7, 2014];

fn key(job: &str) -> u64 {
    Json::parse(job)
        .expect("job renders valid JSON")
        .canonical_key()
}

/// Every request of `conns` connections × `n` per connection, both
/// phases.
fn jobs(schedule: &Schedule, conns: u64, n: u64) -> Vec<String> {
    let mut out = Vec::new();
    for phase in [Phase::Warmup, Phase::Timed] {
        for conn in 0..conns {
            for j in 0..n {
                out.push(schedule.job(phase, conn, j));
            }
        }
    }
    out
}

#[test]
fn circuit_cold_never_repeats_a_key() {
    for seed in SEEDS {
        let schedule = Schedule::new(Workload::CircuitCold, seed);
        let all = jobs(&schedule, 2, 1500);
        let keys: BTreeSet<u64> = all.iter().map(|j| key(j)).collect();
        assert_eq!(
            keys.len(),
            all.len(),
            "seed {seed}: a circuit_cold key repeats"
        );
    }
}

#[test]
fn hot_repeat_has_exactly_64_keys() {
    for seed in SEEDS {
        let schedule = Schedule::new(Workload::HotRepeat, seed);
        let warm: BTreeSet<u64> = (0..HOT_BODIES as u64)
            .map(|j| key(&schedule.job(Phase::Warmup, 0, j)))
            .collect();
        assert_eq!(warm.len(), 64, "seed {seed}: warm-up keys");
        let timed: BTreeSet<u64> = (0..2)
            .flat_map(|conn| (0..5000).map(move |j| (conn, j)))
            .map(|(conn, j)| key(&schedule.job(Phase::Timed, conn, j)))
            .collect();
        assert_eq!(
            timed, warm,
            "seed {seed}: timed requests use exactly the warm keys"
        );
    }
}

#[test]
fn econ_sweep_uses_only_kept_fields_and_distinct_purity_axes() {
    let kept = ["kind", "nodes", "areas_cm2", "d0", "purities"];
    for seed in SEEDS {
        let schedule = Schedule::new(Workload::EconSweep, seed);
        let all = jobs(&schedule, 1, 200);
        for text in &all {
            let Json::Obj(fields) = Json::parse(text).expect("valid JSON") else {
                panic!("econ body is not an object: {text}");
            };
            for (name, _) in &fields {
                assert!(kept.contains(&name.as_str()), "field {name} in {text}");
            }
            match Job::from_json(&Json::Obj(fields)).expect("valid econ job") {
                Job::EconCampaign { grid, .. } => assert_eq!(grid.len(), 256),
                other => panic!("not a campaign: {other:?}"),
            }
        }
        let keys: BTreeSet<u64> = all.iter().map(|j| key(j)).collect();
        assert_eq!(keys.len(), all.len(), "seed {seed}: an econ key repeats");
    }
}

#[test]
fn every_body_validates_within_the_sweep_and_step_budget() {
    for workload in Workload::ALL {
        for seed in SEEDS {
            let schedule = Schedule::new(workload, seed);
            for text in jobs(&schedule, workload.connections(), 100) {
                let job = Job::from_json(&Json::parse(&text).expect("valid JSON"))
                    .unwrap_or_else(|e| panic!("{}: {e}: {text}", workload.name()));
                match job {
                    Job::DcSweep { from, to, step, .. } => {
                        let points = ((to - from) / step + 1e-9).floor() + 1.0;
                        assert!(points <= 1001.0, "{points} sweep points");
                    }
                    Job::Transient { tstep, tstop, .. } => {
                        let steps = (tstop / tstep - 1e-9).ceil();
                        assert!(steps <= 1000.0, "{steps} fixed steps");
                    }
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn schedules_are_pure_functions_of_workload_and_seed() {
    for workload in Workload::ALL {
        let a = Schedule::new(workload, 11);
        let b = Schedule::new(workload, 11);
        let c = Schedule::new(workload, 12);
        let mut differs = false;
        for j in 0..64 {
            for phase in [Phase::Warmup, Phase::Timed] {
                assert_eq!(a.request(phase, 0, j), b.request(phase, 0, j));
                differs |= a.job(phase, 0, j) != c.job(phase, 0, j);
            }
        }
        assert!(differs, "{}: the seed changes nothing", workload.name());
    }
}

#[test]
fn request_text_is_the_rendered_envelope() {
    for workload in Workload::ALL {
        let schedule = Schedule::new(workload, 5);
        let (id, text) = schedule.request(Phase::Timed, 1, 3);
        let job = Json::parse(&schedule.job(Phase::Timed, 1, 3)).expect("valid JSON");
        assert_eq!(
            text,
            Json::obj().push("id", id).push("job", job).render(),
            "{}",
            workload.name()
        );
    }
}
