//! `BENCHMARK.json` at the repository root must declare exactly the
//! workloads and metrics (names and units) this benchmark prints, within
//! the result format's limits.

use addict_bench::jsontext::JsonValue;
use addict_perfbench::metrics::{end_to_end, per_layer, validate, MAX_END_TO_END, MAX_PER_LAYER};
use addict_perfbench::run::Workload;

fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .as_arr(key)
        .unwrap()
        .iter()
        .map(|m| {
            let name = m.get("name").unwrap().as_str("name").unwrap().to_owned();
            let unit = m.get("unit").unwrap().as_str("unit").unwrap().to_owned();
            (name, unit)
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");

    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    validate(&names).unwrap();
    let workloads: Vec<String> = doc
        .get("workloads")
        .unwrap()
        .as_arr("workloads")
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str("name").unwrap().to_owned())
        .collect();
    assert_eq!(workloads, names);

    let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
    };
    let e2e = declared(&doc, "end_to_end");
    let layer = declared(&doc, "per_layer");
    assert!(e2e.len() <= MAX_END_TO_END && layer.len() <= MAX_PER_LAYER);
    assert_eq!(e2e, own(end_to_end()));
    assert_eq!(layer, own(per_layer()));
    for m in doc.get("end_to_end").unwrap().as_arr("end_to_end").unwrap() {
        let bound = m.get("bound").unwrap().as_f64("bound").unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}
