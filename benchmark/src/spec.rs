//! The metric and workload tables, read from `BENCHMARK.json` at the root of
//! the repository so that the command and the contract cannot disagree.

use std::sync::OnceLock;

use crate::json::Json;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no '{key}' list"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a metric of '{key}' has no '{k}'"))
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no 'run_seconds'")?,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("BENCHMARK.json: no 'workloads'")?
                .iter()
                .filter_map(|w| {
                    Some((
                        w.get("name")?.as_str()?.to_string(),
                        w.get("why")?.as_str()?.to_string(),
                    ))
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}

/// The tables of the `BENCHMARK.json` this binary was built beside.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    #[test]
    fn the_contract_names_every_workload_and_bounds_every_end_to_end_metric() {
        let s = spec();
        let names: Vec<&str> = s.workloads.iter().map(|w| w.0.as_str()).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(
            s.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
