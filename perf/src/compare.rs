//! `fgnn-perf compare a.json b.json`: a polarity- and bound-aware comparison
//! of the end-to-end metrics of two suite reports.
//!
//! This is the regression side of the rule only (is `b` worse than `a` by
//! more than the bound?). A *gain* needs ten alternating pairs; two reports
//! cannot show one, so none is ever claimed here.

use crate::metrics::Better;
use crate::report::SuiteReport;
use crate::spec::BenchmarkSpec;

/// What two reports say about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// Within the bound, but the samples of `a` or `b` spread wider than the
    /// bound, so "unchanged" cannot be told from "changed".
    Unresolved,
    /// Within the bound, and the spread is too.
    Within,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Within => "within",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median in `a`.
    pub a: f64,
    /// Median in `b`.
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    /// Larger of the two reports' `(max − min) ÷ median`.
    pub spread: f64,
    /// The bound from `BENCHMARK.json`.
    pub bound: f64,
    /// Outcome.
    pub verdict: Verdict,
}

/// Compare every end-to-end metric of every workload both reports carry.
/// A workload or metric present in only one report is an error.
pub fn compare(spec: &BenchmarkSpec, a: &SuiteReport, b: &SuiteReport) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    if !a.workloads.keys().eq(b.workloads.keys()) {
        return Err("the two reports do not cover the same workloads".into());
    }
    for (workload, (ua, _)) in &a.workloads {
        let (ub, _) = &b.workloads[workload];
        for m in &spec.end_to_end {
            let missing = || format!("{workload}: no metric {}", m.name);
            let sa = ua.metrics.get(&m.name).ok_or_else(missing)?;
            let sb = ub.metrics.get(&m.name).ok_or_else(missing)?;
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let delta = match m.better {
                Better::Lower => sb.median - sa.median,
                Better::Higher => sa.median - sb.median,
            };
            let worse_by = if sa.median == 0.0 {
                0.0
            } else {
                delta / sa.median.abs()
            };
            let spread = sa.rel_spread().max(sb.rel_spread());
            let verdict = if worse_by > bound {
                Verdict::Worse
            } else if spread > bound {
                Verdict::Unresolved
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: sa.median,
                b: sb.median,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The comparison as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<12} {:>13} {:>13} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<12} {:>13.4} {:>13.4} {:>+8.2}% {:>7.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::sample_record;
    use crate::stats::Summary;
    use std::collections::BTreeMap;

    const SPEC: &str = r#"{"command":["bash","perf/run.sh"],"paths":["perf"],"run_seconds":10,
        "workloads":[{"name":"serve","why":"x"}],
        "end_to_end":[
          {"name":"setup_s","unit":"s","better":"lower","bound":0.25},
          {"name":"pass_s","unit":"s","better":"lower","bound":0.08},
          {"name":"wire_mb","unit":"MB","better":"lower","bound":0.01}],
        "per_layer":[{"name":"perf.calib_s","unit":"s","better":"lower"}]}"#;

    fn report(edit: impl Fn(&mut crate::metrics::Metrics)) -> SuiteReport {
        let mut untraced = sample_record("serve", false);
        untraced.metrics.set_samples("pass_s", &[3.7, 3.75, 3.8]);
        edit(&mut untraced.metrics);
        let mut workloads = BTreeMap::new();
        workloads.insert(
            "serve".to_string(),
            (untraced, sample_record("serve", true)),
        );
        SuiteReport {
            workloads,
            checks: Vec::new(),
        }
    }

    #[test]
    fn ten_percent_worse_trips_exactly_that_row() {
        let spec = BenchmarkSpec::parse(SPEC).unwrap();
        let a = report(|_| {});
        let b = report(|m| m.set_samples("pass_s", &[4.07, 4.125, 4.18]));
        let rows = compare(&spec, &a, &b).unwrap();
        let worse: Vec<&str> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Worse)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(worse, ["pass_s"]);
        assert!((rows[1].worse_by - 0.10).abs() < 1e-9);
        // The same change in the good direction is not a regression.
        assert!(compare(&spec, &b, &a)
            .unwrap()
            .iter()
            .all(|r| r.verdict != Verdict::Worse));
        assert!(render(&rows).contains("WORSE"));
    }

    #[test]
    fn polarity_follows_the_spec() {
        let spec = BenchmarkSpec::parse(&SPEC.replace(
            r#""pass_s","unit":"s","better":"lower""#,
            r#""pass_s","unit":"s","better":"higher""#,
        ))
        .unwrap();
        let a = report(|_| {});
        let b = report(|m| m.set_samples("pass_s", &[3.3, 3.375, 3.4]));
        let rows = compare(&spec, &a, &b).unwrap();
        assert_eq!(rows[1].verdict, Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let spec = BenchmarkSpec::parse(SPEC).unwrap();
        let a = report(|_| {});
        let b = report(|m| {
            m.put(
                "pass_s",
                Summary {
                    median: 3.76,
                    min: 3.5,
                    max: 4.2,
                    n: 3,
                },
            )
        });
        let rows = compare(&spec, &a, &b).unwrap();
        assert_eq!(rows[1].verdict, Verdict::Unresolved);
        assert_eq!(rows[0].verdict, Verdict::Within);
        assert_eq!(rows[2].verdict, Verdict::Within);
    }

    #[test]
    fn mismatched_reports_are_errors() {
        let spec = BenchmarkSpec::parse(SPEC).unwrap();
        let a = report(|_| {});
        let mut b = report(|_| {});
        let entry = b.workloads.remove("serve").unwrap();
        b.workloads.insert("cluster".into(), entry);
        assert!(compare(&spec, &a, &b).is_err());
    }
}
