//! `compare <a.json> <b.json>`: for every pairing of end-to-end metric and
//! workload, whether result `b` is better than, worse than or the same as
//! result `a`, judged by the bound the benchmark fixed for the metric, or
//! unresolved when either result's median is itself uncertain by more than
//! that bound.

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The medians are uncertain by more than the bound (see
    /// [`Summary::spread_of_median`]): a move of the bound's size could not
    /// be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a`'s median (negative when
/// better).
pub fn worsening(a: &Summary, b: &Summary, higher_is_better: bool) -> f64 {
    let change = (b.median - a.median) / a.median.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn classify(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let worse_by = worsening(a, b, higher_is_better);
    if a.spread_of_median().max(b.spread_of_median()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Failed operations may rise by this share of the attempted ones.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

fn summary(metric: &Json) -> Option<Summary> {
    Some(Summary {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        n: metric.get("n")?.as_f64()? as usize,
    })
}

fn failed_share(pass: &Json) -> Option<f64> {
    let attempted = pass.get("attempted")?.as_f64()?;
    Some(pass.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub a: f64,
    pub b: f64,
    pub worse_by: f64,
    pub bound: f64,
}

/// Compares the end-to-end metrics of two result documents written by
/// `full`.  A pairing present in `a` and missing from `b` is an error.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("the first file has no 'workloads'")?;
    let mut rows = Vec::new();
    for (workload, in_a) in workloads {
        let pass_a = in_a
            .get("end_to_end")
            .ok_or_else(|| format!("{workload}: the first file has no end-to-end pass"))?;
        let pass_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("end_to_end"))
            .ok_or_else(|| format!("{workload}: missing from the second file"))?;
        let metrics = pass_a
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{workload}: no metrics"))?;
        for (name, metric_a) in metrics {
            let metric_b = pass_b
                .get("metrics")
                .and_then(|m| m.get(name))
                .ok_or_else(|| format!("{workload}/{name}: missing from the second file"))?;
            let (sa, sb) = summary(metric_a)
                .zip(summary(metric_b))
                .ok_or_else(|| format!("{workload}/{name}: not a summary"))?;
            let bound = metric_a
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no bound"))?;
            let higher = metric_a.get("better").and_then(Json::as_str) == Some("higher");
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                verdict: classify(&sa, &sb, higher, bound),
                a: sa.median,
                b: sb.median,
                worse_by: worsening(&sa, &sb, higher),
                bound,
            });
        }
        let (fa, fb) = failed_share(pass_a)
            .zip(failed_share(pass_b))
            .ok_or_else(|| format!("{workload}: no failure counts"))?;
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_share".into(),
            verdict: if fb - fa > FAILED_SHARE_BOUND {
                Verdict::Worse
            } else if fa - fb > FAILED_SHARE_BOUND {
                Verdict::Better
            } else {
                Verdict::Unchanged
            },
            a: fa,
            b: fb,
            worse_by: fb - fa,
            bound: FAILED_SHARE_BOUND,
        });
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<24} {:<10} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "verdict", "a", "b", "worse by", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<24} {:<10} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%\n",
            r.workload,
            r.metric,
            r.verdict.name(),
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.bound
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value, so the median is as uncertain as the values are spread.
    fn s(median: f64, half_iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            n: 1,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound.
        assert_eq!(
            classify(&s(100.0, 1.0), &s(115.0, 1.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            classify(&s(100.0, 1.0), &s(85.0, 1.0), false, 0.10),
            Verdict::Better
        );
        assert_eq!(
            classify(&s(100.0, 1.0), &s(105.0, 1.0), false, 0.10),
            Verdict::Unchanged
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            classify(&s(100.0, 1.0), &s(85.0, 1.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            classify(&s(100.0, 1.0), &s(115.0, 1.0), true, 0.10),
            Verdict::Better
        );
        // A spread wider than the bound settles nothing, whatever the medians.
        assert_eq!(
            classify(&s(100.0, 5.0), &s(150.0, 1.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&s(100.0, 1.0), &s(100.0, 5.0), false, 0.10),
            Verdict::Unresolved
        );
        // The same scatter over many trials pins the median down.
        let many = Summary {
            n: 64,
            ..s(100.0, 5.0)
        };
        assert_eq!(classify(&many, &many, false, 0.10), Verdict::Unchanged);
    }

    fn doc(ops: f64, failed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"tide": {{"end_to_end": {{"attempted": 1000, "failed": {failed},
                "metrics": {{"ops_per_s": {{"median": {ops}, "q1": {ops}, "q3": {ops}, "n": 7,
                "bound": 0.08, "better": "higher", "unit": "ops/s"}}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn documents_compare_metric_by_metric_and_count_failures() {
        let rows = compare(&doc(1000.0, 0.0), &doc(900.0, 5.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("ops_per_s", Verdict::Worse)
        );
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            ("failed_share", Verdict::Worse)
        );
        let same = compare(&doc(1000.0, 0.0), &doc(1010.0, 0.0)).unwrap();
        assert!(same.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert!(compare(&doc(1.0, 0.0), &Json::parse("{}").unwrap()).is_err());
    }
}
