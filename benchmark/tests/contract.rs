//! `BENCHMARK.json` and the code must describe the same benchmark.

use benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use benchmark::workloads::WORKLOADS;
use pdes::obs::json::{parse, JsonValue};

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {v:?}"),
    }
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key).and_then(JsonValue::as_arr).expect(key)
}

#[test]
fn top_level_keys_and_command() {
    let doc = manifest();
    let mut got = keys(&doc);
    got.sort_unstable();
    assert_eq!(
        got,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command: Vec<_> = list(&doc, "command")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<_> = list(&doc, "paths")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let secs = doc.u64_field("run_seconds").expect("run_seconds");
    assert!((1..=60).contains(&secs));
}

#[test]
fn workloads_match_the_table() {
    let doc = manifest();
    let listed = list(&doc, "workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (w, spec) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(w.str_field("name"), Some(spec.name));
        let why = w.str_field("why").unwrap();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
}

fn check_metrics(listed: &[JsonValue], defs: &[MetricDef], bounded: bool) {
    assert_eq!(listed.len(), defs.len());
    for (m, d) in listed.iter().zip(defs) {
        let want: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(m), want, "{}", d.name);
        assert_eq!(m.str_field("name"), Some(d.name));
        assert_eq!(m.str_field("unit"), Some(d.unit), "{}", d.name);
        assert_eq!(m.str_field("better"), Some(d.better.as_str()), "{}", d.name);
        assert_eq!(
            m.get("bound").and_then(JsonValue::as_f64),
            d.bound,
            "{}",
            d.name
        );
    }
}

#[test]
fn metrics_match_the_catalogue() {
    let doc = manifest();
    check_metrics(list(&doc, "end_to_end"), END_TO_END, true);
    check_metrics(list(&doc, "per_layer"), PER_LAYER, false);
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
}
