//! Metric rows: the one representation `results.json`, the stdout table and
//! the final result line are all generated from, so they cannot disagree.

use std::collections::BTreeMap;

use pdes::obs::json::{self, JsonValue};

use crate::metrics::{self, MetricDef};
use crate::stats::{summarize, Summary};

/// One workload × metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub name: String,
    pub unit: String,
    /// The number the run reports (see [`MetricDef::headline`]).
    pub value: f64,
    pub stats: Summary,
    /// The regression bound, for end-to-end metrics.
    pub bound: Option<f64>,
}

/// Samples gathered for one workload, keyed by metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Record one sample of a catalogued metric.
    pub fn push(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} sampled {value}");
        self.0
            .entry(metrics::def(name).name)
            .or_default()
            .push(value);
    }

    /// Record many samples of a catalogued metric.
    pub fn extend(&mut self, name: &str, values: &[f64]) {
        values.iter().for_each(|&v| self.push(name, v));
    }

    /// Median of the samples recorded so far for `name`.
    pub fn median(&self, name: &str) -> f64 {
        crate::stats::median(&self.0[name])
    }

    /// One row per metric of `defs`, in catalogue order. Panics when a
    /// metric has no sample: every listed metric is reported on every run.
    pub fn rows(&self, workload: &str, defs: &[MetricDef]) -> Vec<Row> {
        defs.iter()
            .map(|d| {
                let samples = self
                    .0
                    .get(d.name)
                    .unwrap_or_else(|| panic!("no sample for metric {}", d.name));
                Row {
                    workload: workload.to_string(),
                    name: d.name.to_string(),
                    unit: d.unit.to_string(),
                    value: d.headline(samples),
                    stats: summarize(samples),
                    bound: d.bound,
                }
            })
            .collect()
    }
}

fn num(v: f64) -> String {
    assert!(v.is_finite(), "cannot render {v} as JSON");
    format!("{v}")
}

fn opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), num)
}

/// Render rows as the `results.json` document.
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("{\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"workload\":\"{}\",\"name\":\"{}\",\"unit\":\"{}\",\"value\":{},\"median\":{},\
             \"min\":{},\"max\":{},\"iqr\":{},\"n\":{},\"p99\":{},\"bound\":{}}}",
            r.workload,
            r.name,
            r.unit,
            num(r.value),
            num(r.stats.median),
            num(r.stats.min),
            num(r.stats.max),
            num(r.stats.iqr),
            r.stats.n,
            opt(r.stats.p99),
            opt(r.bound),
        ));
    }
    out.push_str("\n]}\n");
    json::validate(&out).expect("results.json must validate");
    out
}

/// Parse a `results.json` document back into rows.
pub fn rows_from_json(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_arr)
        .ok_or("results.json: no \"rows\" array")?;
    rows.iter()
        .map(|r| {
            let s = |k: &str| {
                r.str_field(k)
                    .map(str::to_string)
                    .ok_or(format!("row: no {k}"))
            };
            let f = |k: &str| {
                r.get(k)
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("row: no {k}"))
            };
            Ok(Row {
                workload: s("workload")?,
                name: s("name")?,
                unit: s("unit")?,
                value: f("value")?,
                stats: Summary {
                    n: r.u64_field("n").ok_or("row: no n")? as usize,
                    median: f("median")?,
                    min: f("min")?,
                    max: f("max")?,
                    iqr: f("iqr")?,
                    p99: f("p99").ok(),
                },
                bound: f("bound").ok(),
            })
        })
        .collect()
}

/// Render rows as the aligned stdout table.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<34} {:>16} {:>16} {:>14} {:>14} {:>12} {:>5} {:>14} {:>6}  {}\n",
        "workload", "metric", "value", "median", "min", "max", "iqr", "n", "p99", "bound", "unit"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<34} {:>16.6} {:>16.6} {:>14.6} {:>14.6} {:>12.6} {:>5} {:>14} {:>6}  {}\n",
            r.workload,
            r.name,
            r.value,
            r.stats.median,
            r.stats.min,
            r.stats.max,
            r.stats.iqr,
            r.stats.n,
            r.stats.p99.map_or("-".to_string(), |p| format!("{p:.6}")),
            r.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            r.unit,
        ));
    }
    out
}

/// The result line the run ends with: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(rows: &[Row], attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                num(r.value),
                r.unit
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    json::validate(&line).expect("result line must validate");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn sample_rows() -> Vec<Row> {
        let mut s = Samples::default();
        s.extend("committed_ev_per_s", &[5.0e6, 5.2e6, 4.9e6]);
        s.extend("wall_s", &[1.25, 1.5, 1.125]);
        s.push("setup_s", 0.001953125);
        s.rows("w", END_TO_END)
    }

    #[test]
    fn results_json_round_trips() {
        let rows = sample_rows();
        assert_eq!(rows_from_json(&rows_to_json(&rows)).unwrap(), rows);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(&sample_rows(), 4, 0);
        let doc = json::parse(&line).unwrap();
        let JsonValue::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        // End-to-end metrics report their best sample.
        assert_eq!(wall.get("value").and_then(JsonValue::as_f64), Some(1.125));
        assert_eq!(wall.str_field("unit"), Some("s"));
        assert!(result_line(&sample_rows(), 4, 1).contains("\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "no sample for metric setup_s")]
    fn a_missing_metric_is_a_bug() {
        let mut s = Samples::default();
        s.push("wall_s", 1.0);
        s.push("committed_ev_per_s", 1.0);
        s.rows("w", END_TO_END);
    }
}
