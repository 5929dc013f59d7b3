//! `BENCHMARK.json` names exactly the workloads and metrics the
//! program runs and prints.

use carbon_json::Json;
use perfbench::schedule::Workload;
use perfbench::{END_TO_END, PER_LAYER};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without '{key}': {}", entry.render()))
}

#[test]
fn workloads_match_the_program() {
    let doc = manifest();
    let listed: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(listed, Workload::ALL.map(Workload::name));
}

#[test]
fn metrics_match_the_program() {
    let doc = manifest();
    for (key, program) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = entries(&doc, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(listed, program, "{key}");
    }
}
