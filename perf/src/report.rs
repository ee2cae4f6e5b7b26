//! Run records and the suite report: hand-written JSON out, the program's
//! own parser (`freshgnn::obs::parse_json`) back in.

use crate::metrics::{def, Metrics};
use crate::stats::Summary;
use freshgnn::obs::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of every file the harness writes.
pub const SCHEMA: &str = "fgnn-perf-v1";

/// Where and how a run was made, so reports from two machines can be read
/// as ratios against `calib_s`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the build (from `run.sh`).
    pub rustc: String,
    /// Git commit of the checkout, `unknown` outside a repository.
    pub commit: String,
    /// Seed every input was generated from.
    pub seed: u64,
    /// Program worker threads the workload actually used (0 = none beside
    /// the driver thread).
    pub workers: usize,
    /// Seconds of the fixed calibration kernel in this process.
    pub calib_s: f64,
}

/// One correctness check and its outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Short stable name.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers it was decided on.
    pub detail: String,
}

impl Check {
    /// Build a check.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Everything one run (one workload, traced or not) measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Whether the span recorder and counting allocator were on.
    pub traced: bool,
    /// Whether the 1/10-size inputs were used.
    pub smoke: bool,
    /// The `--seconds` the pass count was derived from.
    pub seconds: u32,
    /// Timed passes.
    pub passes: usize,
    /// Machine, build and seed.
    pub fingerprint: Fingerprint,
    /// Operations attempted in the timed passes (batches or requests).
    pub attempted: u64,
    /// Operations that went wrong among them.
    pub failed: u64,
    /// Correctness checks of this run.
    pub checks: Vec<Check>,
    /// Metrics by name.
    pub metrics: Metrics,
    /// Exact per-pass quantities (loss bit patterns, wire bytes, serve
    /// counters) that the traced and untraced run of one seed must share.
    pub exact: Vec<u64>,
}

impl RunRecord {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The one-line result the benchmark contract asks for: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(name),
                    json_number(s.median),
                    json_string(def(name).expect("recorded metrics are in the tables").unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Full JSON form.
    pub fn to_json(&self) -> String {
        let f = &self.fingerprint;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{},\"workload\":{},\"traced\":{},\"smoke\":{},\"seconds\":{},\"passes\":{},\
             \"fingerprint\":{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"commit\":{},\"seed\":{},\"workers\":{},\"calib_s\":{}}},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"checks\":[",
            json_string(SCHEMA),
            json_string(&self.workload),
            self.traced,
            self.smoke,
            self.seconds,
            self.passes,
            f.nproc,
            json_string(&f.cpu),
            json_string(&f.rustc),
            json_string(&f.commit),
            json_string(&f.seed.to_string()),
            f.workers,
            json_number(f.calib_s),
            self.correct(),
            self.attempted,
            self.failed,
        );
        out.push_str(&checks_json(&self.checks));
        out.push_str("],\"metrics\":{");
        for (i, (name, s)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{},\"n\":{},\"min\":{},\"max\":{}}}",
                json_string(name),
                json_number(s.median),
                json_string(def(name).expect("recorded metrics are in the tables").unit),
                s.n,
                json_number(s.min),
                json_number(s.max)
            );
        }
        out.push_str("},\"exact\":[");
        let exact: Vec<String> = self.exact.iter().map(|x| format!("\"{x:016x}\"")).collect();
        out.push_str(&exact.join(","));
        out.push_str("]}");
        out
    }

    /// Parse [`RunRecord::to_json`] output.
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        RunRecord::from_value(&v)
    }

    fn from_value(v: &JsonValue) -> Result<RunRecord, String> {
        if str_of(v, "schema")? != SCHEMA {
            return Err(format!("schema is not {SCHEMA}"));
        }
        let f = field(v, "fingerprint")?;
        let fingerprint = Fingerprint {
            nproc: u64_of(f, "nproc")? as usize,
            cpu: str_of(f, "cpu")?.to_string(),
            rustc: str_of(f, "rustc")?.to_string(),
            commit: str_of(f, "commit")?.to_string(),
            seed: str_of(f, "seed")?
                .parse()
                .map_err(|e| format!("seed: {e}"))?,
            workers: u64_of(f, "workers")? as usize,
            calib_s: f64_of(f, "calib_s")?,
        };
        let mut metrics = Metrics::default();
        for (name, m) in obj_of(v, "metrics")? {
            if def(name).is_none() {
                return Err(format!("unknown metric {name}"));
            }
            metrics.put(
                name,
                Summary {
                    median: f64_of(m, "value")?,
                    min: f64_of(m, "min")?,
                    max: f64_of(m, "max")?,
                    n: u64_of(m, "n")? as usize,
                },
            );
        }
        let exact = arr_of(v, "exact")?
            .iter()
            .map(|x| {
                x.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| "exact: not a hex string".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(RunRecord {
            workload: str_of(v, "workload")?.to_string(),
            traced: bool_of(v, "traced")?,
            smoke: bool_of(v, "smoke")?,
            seconds: u64_of(v, "seconds")? as u32,
            passes: u64_of(v, "passes")? as usize,
            fingerprint,
            attempted: u64_of(v, "attempted")?,
            failed: u64_of(v, "failed")?,
            checks: checks_from(arr_of(v, "checks")?)?,
            metrics,
            exact,
        })
    }
}

/// `report.json`: both runs of every workload the suite ran, plus the checks
/// that need two runs or two workloads.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteReport {
    /// Untraced and traced record per workload.
    pub workloads: BTreeMap<String, (RunRecord, RunRecord)>,
    /// Cross-run and cross-workload checks.
    pub checks: Vec<Check>,
}

impl SuiteReport {
    /// Whether every check of every run and of the suite held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
            && self
                .workloads
                .values()
                .all(|(u, t)| u.correct() && t.correct())
    }

    /// JSON form.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{},\"correct\":{},\"checks\":[{}],\"workloads\":{{",
            json_string(SCHEMA),
            self.correct(),
            checks_json(&self.checks)
        );
        for (i, (name, (untraced, traced))) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{}:{{\"untraced\":{},\n\"traced\":{}}}",
                json_string(name),
                untraced.to_json(),
                traced.to_json()
            );
        }
        out.push_str("\n}}\n");
        out
    }

    /// Parse [`SuiteReport::to_json`] output.
    pub fn from_json(text: &str) -> Result<SuiteReport, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        if str_of(&v, "schema")? != SCHEMA {
            return Err(format!("schema is not {SCHEMA}"));
        }
        let mut workloads = BTreeMap::new();
        for (name, w) in obj_of(&v, "workloads")? {
            let untraced = RunRecord::from_value(field(w, "untraced")?)?;
            let traced = RunRecord::from_value(field(w, "traced")?)?;
            workloads.insert(name.clone(), (untraced, traced));
        }
        Ok(SuiteReport {
            workloads,
            checks: checks_from(arr_of(&v, "checks")?)?,
        })
    }
}

fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                json_string(&c.name),
                c.ok,
                json_string(&c.detail)
            )
        })
        .collect();
    items.join(",")
}

fn checks_from(items: &[JsonValue]) -> Result<Vec<Check>, String> {
    items
        .iter()
        .map(|c| {
            Ok(Check {
                name: str_of(c, "name")?.to_string(),
                ok: bool_of(c, "ok")?,
                detail: str_of(c, "detail")?.to_string(),
            })
        })
        .collect()
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `v`. Non-finite values have no JSON
/// form; the harness checks that none is recorded, and writes 0 if one is.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub(crate) fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing key {key}"))
}

pub(crate) fn str_of<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("{key}: not a string"))
}

pub(crate) fn f64_of(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("{key}: not a number"))
}

pub(crate) fn u64_of(v: &JsonValue, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("{key}: not a whole number"))
}

fn bool_of(v: &JsonValue, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("{key}: not a boolean")),
    }
}

pub(crate) fn arr_of<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("{key}: not an array"))
}

pub(crate) fn obj_of<'a>(
    v: &'a JsonValue,
    key: &str,
) -> Result<&'a BTreeMap<String, JsonValue>, String> {
    field(v, key)?
        .as_object()
        .ok_or_else(|| format!("{key}: not an object"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_record(workload: &str, traced: bool) -> RunRecord {
        let mut metrics = Metrics::default();
        metrics.set_samples("pass_s", &[3.5, 3.75, 4.0]);
        metrics.set("setup_s", 1.625);
        metrics.set("wire_mb", 207.4);
        metrics.set("perf.calib_s", 0.1);
        RunRecord {
            workload: workload.to_string(),
            traced,
            smoke: false,
            seconds: 10,
            passes: 3,
            fingerprint: Fingerprint {
                nproc: 2,
                cpu: "Some \"CPU\" @ 2.1GHz".into(),
                rustc: "rustc 1.95.0".into(),
                commit: "unknown".into(),
                seed: u64::MAX,
                workers: 1,
                calib_s: 0.125,
            },
            attempted: 60,
            failed: 0,
            checks: vec![
                Check::new("loss-finite", true, "0.5\n0.25".into()),
                Check::new("loss-halved", false, "0.9 vs 1.0".into()),
            ],
            metrics,
            exact: vec![0, 0x3fe0_0000_0000_0000, u64::MAX],
        }
    }

    #[test]
    fn run_record_round_trips() {
        let r = sample_record("train_fresh", true);
        let back = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(!back.correct());
    }

    #[test]
    fn suite_report_round_trips() {
        let mut workloads = BTreeMap::new();
        for w in ["serve", "train_ns"] {
            workloads.insert(
                w.to_string(),
                (sample_record(w, false), sample_record(w, true)),
            );
        }
        let s = SuiteReport {
            workloads,
            checks: vec![Check::new("wire-fresh-below-ns", true, "207 < 413".into())],
        };
        assert_eq!(SuiteReport::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = sample_record("serve", false);
        let v = parse_json(&r.result_line()).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let pass = v.get("metrics").unwrap().get("pass_s").unwrap();
        assert_eq!(pass.get("value").unwrap().as_f64(), Some(3.75));
        assert_eq!(pass.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(pass.as_object().unwrap().len(), 2);
    }

    #[test]
    fn malformed_reports_are_errors_not_panics() {
        assert!(RunRecord::from_json("{}").is_err());
        assert!(RunRecord::from_json("[1,2").is_err());
        let bad = sample_record("serve", false)
            .to_json()
            .replace("\"pass_s\"", "\"pass_z\"");
        assert!(RunRecord::from_json(&bad).unwrap_err().contains("pass_z"));
        assert_eq!(json_number(f64::NAN), "0");
    }
}
