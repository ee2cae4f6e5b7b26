//! The one column table behind every committed `BENCH_*.json` baseline.
//!
//! A [`Suite`] is a row type plus a `const` slice of [`Column`]s — the JSON
//! key, a [`Role`] and a getter — and a few constants. From that table
//! derive the one writer ([`write`]), the one reader ([`read`]), the one
//! drift comparison ([`compare`], which also applies `--inject-regression`)
//! and the one structural gate ([`invariance_checks`]): a new baseline is a
//! row struct, its column table and a sweep loop; a new column is one line.
//!
//! Every document is `{"schemaVersion":…,"seed":…,"rows":[{column:value,…},…]}`
//! plus a newline, columns in table order, floats through the `obs`
//! exporters' formatter — so a clean tree reproduces each committed file
//! byte for byte.

use freshgnn::obs::export::{json_escape, json_f64};
use freshgnn::obs::JsonValue;

/// One value of a baseline row.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label (dataset, policy, fault schedule).
    Str(String),
    /// An exact counter.
    Int(u64),
    /// A deterministic simulated quantity (and any number read from a file).
    Float(f64),
}

impl Cell {
    fn json(&self) -> String {
        match self {
            Cell::Str(s) => format!("\"{}\"", json_escape(s)),
            Cell::Int(v) => {
                // The reader keeps numbers as `f64`: refuse what it would round.
                assert!(
                    *v <= 1 << 53,
                    "{v} exceeds 2^53: it would read back rounded"
                );
                v.to_string()
            }
            Cell::Float(v) => json_f64(*v),
        }
    }

    /// The text in a row label: `4` for `Int(4)` and for the `Float(4.0)`
    /// the same value reads back as.
    fn label(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => v.to_string(),
        }
    }

    /// The value the gate compares (a string has none).
    fn number(&self) -> f64 {
        match self {
            Cell::Str(_) => f64::NAN,
            Cell::Int(v) => *v as f64,
            Cell::Float(v) => *v,
        }
    }
}

/// What the gate does with a column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Role {
    /// Part of the row label: its position among the keys (they are joined
    /// with `/`) and the text before the value (`w4`, `h2`).
    Key(usize, &'static str),
    /// Gated; a higher fresh value is the regression (latency, traffic, loss).
    LowerIsBetter,
    /// Gated; a lower fresh value is the regression (throughput, accuracy).
    HigherIsBetter,
    /// Written for the reader of the file, never compared.
    Context,
}

/// One column of a baseline.
pub struct Column<R> {
    /// The JSON key (and the metric name `exp_report` prints).
    pub name: &'static str,
    /// What the gate does with it.
    pub role: Role,
    /// Reads the value off a row.
    pub get: fn(&R) -> Cell,
}

impl<R> Column<R> {
    /// A column of the table.
    pub const fn new(name: &'static str, role: Role, get: fn(&R) -> Cell) -> Self {
        Column { name, role, get }
    }
}

/// A structural gate over one fresh sweep: rows equal on the `same` keys
/// must agree *bit for bit* on `columns` with the first such row (worker
/// counts in the train sweep, fault schedules in the cluster sweep).
pub struct Invariance {
    /// Names of the key columns that group rows.
    pub same: &'static [&'static str],
    /// Names of the columns pinned to the group's first row.
    pub columns: &'static [&'static str],
}

/// One committed baseline: `BENCH_{NAME}.json`.
pub trait Suite {
    /// One sweep cell.
    type Row: 'static;
    /// `serve`, `policy`, … — names the file and `exp_report`'s
    /// `--{NAME}-baseline` flag.
    const NAME: &'static str;
    /// The document's `schemaVersion` (a tag of `freshgnn::obs::schema`).
    const SCHEMA: &'static str;
    /// The columns, in file order.
    const COLUMNS: &'static [Column<Self::Row>];
    /// The gated column `--inject-regression` scales up.
    const INJECT: &'static str;
    /// Columns `exp_report` prints even when they are bit-identical.
    const HEADLINE: &'static [&'static str];
    /// The structural gate, if the sweep has one.
    const INVARIANCE: Option<Invariance> = None;

    /// Run the sweep at its default knobs from `seed` (what the gate re-runs
    /// against the committed file).
    fn sweep(seed: u64) -> Vec<Self::Row>;

    /// The committed file's name at the repo root.
    fn file() -> String {
        format!("BENCH_{}.json", Self::NAME)
    }
}

/// A row as its cells, in column order — the shape [`read`] returns too.
fn cells<S: Suite>(row: &S::Row) -> Vec<Cell> {
    S::COLUMNS.iter().map(|c| (c.get)(row)).collect()
}

/// `(column index, prefix)` of the key columns, in label order.
fn keys<S: Suite>() -> Vec<(usize, &'static str)> {
    let columns = S::COLUMNS.iter().enumerate();
    let mut keys: Vec<_> = columns
        .filter_map(|(i, c)| match c.role {
            Role::Key(at, prefix) => Some((at, i, prefix)),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, i, prefix)| (i, prefix)).collect()
}

/// The label `exp_report` prints for a row (`papers100m/w2`,
/// `twitter/h4/crash`, `load=1x cap=16 none`).
pub fn label<S: Suite>(cells: &[Cell]) -> String {
    let part = |&(i, prefix): &(usize, &str)| format!("{prefix}{}", cells[i].label());
    keys::<S>().iter().map(part).collect::<Vec<_>>().join("/")
}

/// Serialize a sweep as the suite's baseline document. Row order is the
/// sweep's, so two runs from one seed are byte-identical.
pub fn write<S: Suite>(seed: u64, rows: &[S::Row]) -> String {
    let object = |row: &S::Row| {
        let member = |c: &Column<S::Row>| format!("\"{}\":{}", c.name, (c.get)(row).json());
        let members: Vec<String> = S::COLUMNS.iter().map(member).collect();
        format!("{{{}}}", members.join(","))
    };
    let rows: Vec<String> = rows.iter().map(object).collect();
    let (schema, rows) = (S::SCHEMA, rows.join(","));
    format!("{{\"schemaVersion\":\"{schema}\",\"seed\":{seed},\"rows\":[{rows}]}}\n")
}

/// Read a parsed baseline document back: its seed and its rows, each as the
/// cells of the suite's columns. The file comes from outside the program
/// (`exp_report --*-baseline <path>`), so a wrong shape is a message, not a
/// panic; a value of the wrong kind surfaces in [`compare`] as a row that
/// matches nothing or a number that is NaN.
pub fn read<S: Suite>(doc: &JsonValue) -> Result<(u64, Vec<Vec<Cell>>), String> {
    let schema = doc.get("schemaVersion").and_then(|v| v.as_str());
    if schema != Some(S::SCHEMA) {
        return Err(format!("schemaVersion {schema:?}, expected {}", S::SCHEMA));
    }
    let seed = doc.get("seed").and_then(|v| v.as_u64());
    let seed = seed.ok_or("no integer 'seed'")?;
    let rows = doc.get("rows").and_then(|v| v.as_array());
    let cell = |n: usize, row: &JsonValue, c: &Column<S::Row>| match row.get(c.name) {
        Some(JsonValue::String(s)) => Ok(Cell::Str(s.clone())),
        Some(JsonValue::Number(v)) => Ok(Cell::Float(*v)),
        _ => Err(format!("row {n} lacks a string or number '{}'", c.name)),
    };
    let rows = rows.ok_or("no 'rows' array")?.iter().enumerate();
    let rows = rows.map(|(n, row)| S::COLUMNS.iter().map(|c| cell(n, row, c)).collect());
    Ok((seed, rows.collect::<Result<_, String>>()?))
}

/// One metric comparison inside the regression gate.
#[derive(Clone, Debug)]
pub struct MetricCheck {
    /// Which sweep row (see [`label`]).
    pub label: String,
    /// Column name as it appears in the baseline document.
    pub metric: &'static str,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Allowed relative drift before the gate trips.
    pub tolerance: f64,
    /// Whether a *higher* fresh value is the regression direction
    /// (latency, traffic) — improvements never trip the gate.
    pub higher_is_worse: bool,
}

impl MetricCheck {
    /// Signed relative drift of fresh vs baseline (0 when both are 0).
    pub fn drift(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.fresh == 0.0 {
                0.0
            } else {
                f64::INFINITY * self.fresh.signum()
            }
        } else {
            (self.fresh - self.baseline) / self.baseline.abs()
        }
    }

    /// Whether this metric regressed past its tolerance. A NaN or infinite
    /// value on either side is a regression whatever the polarity: the
    /// drift computed from one compares `false` against every tolerance.
    pub fn regressed(&self) -> bool {
        if !(self.baseline.is_finite() && self.fresh.is_finite()) {
            return true;
        }
        let d = self.drift();
        let bad = if self.higher_is_worse { d } else { -d };
        bad > self.tolerance
    }

    /// Whether fresh reproduces the baseline bit for bit.
    pub fn bit_identical(&self) -> bool {
        self.fresh.to_bits() == self.baseline.to_bits()
    }
}

/// Default relative tolerance: exact quantities should match to the bit,
/// but the band must sit clearly under the 10% injected-regression floor
/// the CI gate proves against.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Compare a fresh sweep against the committed rows: one [`MetricCheck`]
/// per gated column per matched label, and a failing `present` check for
/// every label only one side has. `inject` scales the fresh value of
/// [`Suite::INJECT`] up by that fraction (`--inject-regression`).
pub fn compare<S: Suite>(
    baseline: &[Vec<Cell>],
    fresh: &[S::Row],
    tolerance: f64,
    inject: f64,
) -> Vec<MetricCheck> {
    let fresh: Vec<Vec<Cell>> = fresh.iter().map(cells::<S>).collect();
    let labelled =
        |rows: &[Vec<Cell>]| -> Vec<String> { rows.iter().map(|r| label::<S>(r)).collect() };
    let (base_labels, fresh_labels) = (labelled(baseline), labelled(&fresh));
    // `present` is 1 on the side that has the row and 0 on the other.
    let present = |label: &String, in_baseline: bool| MetricCheck {
        label: label.clone(),
        metric: "present",
        baseline: f64::from(in_baseline),
        fresh: f64::from(!in_baseline),
        tolerance,
        higher_is_worse: !in_baseline,
    };
    let mut checks = Vec::new();
    for (base, label) in baseline.iter().zip(&base_labels) {
        let Some(at) = fresh_labels.iter().position(|l| l == label) else {
            checks.push(present(label, true));
            continue;
        };
        for (i, c) in S::COLUMNS.iter().enumerate() {
            let higher_is_worse = match c.role {
                Role::LowerIsBetter => true,
                Role::HigherIsBetter => false,
                Role::Key(..) | Role::Context => continue,
            };
            let scale = if c.name == S::INJECT {
                1.0 + inject
            } else {
                1.0
            };
            checks.push(MetricCheck {
                label: label.clone(),
                metric: c.name,
                baseline: base[i].number(),
                fresh: fresh[at][i].number() * scale,
                tolerance,
                higher_is_worse,
            });
        }
    }
    let fresh_only = fresh_labels.iter().filter(|l| !base_labels.contains(l));
    checks.extend(fresh_only.map(|l| present(l, false)));
    checks
}

/// The suite's [`Invariance`] rule over a fresh sweep (empty without one).
/// Each check holds the two values low/high-ordered at zero tolerance, so
/// *any* difference — either direction, even one ULP — trips
/// [`MetricCheck::regressed`], and equality shows as `bit=`. The label
/// names both rows: `mag240m/w1=w4`, `friendster/h4/none=crash`.
pub fn invariance_checks<S: Suite>(fresh: &[S::Row]) -> Vec<MetricCheck> {
    let Some(rule) = S::INVARIANCE else {
        return Vec::new();
    };
    let keys = keys::<S>();
    let named = |names: &[&str], i: usize| names.contains(&S::COLUMNS[i].name);
    let rows: Vec<Vec<Cell>> = fresh.iter().map(cells::<S>).collect();
    let mut checks = Vec::new();
    for (n, row) in rows.iter().enumerate() {
        let same_group = |first: &&Vec<Cell>| {
            let agree = |&(i, _): &(usize, &str)| !named(rule.same, i) || first[i] == row[i];
            keys.iter().all(agree)
        };
        let Some(first) = rows[..n].iter().find(same_group) else {
            continue;
        };
        let part = |&(i, prefix): &(usize, &str)| match first[i] == row[i] {
            true => format!("{prefix}{}", row[i].label()),
            false => format!("{prefix}{}={prefix}{}", first[i].label(), row[i].label()),
        };
        let label = keys.iter().map(part).collect::<Vec<_>>().join("/");
        for i in (0..row.len()).filter(|&i| named(rule.columns, i)) {
            let (a, b) = (first[i].number(), row[i].number());
            // A NaN lands on one side and trips the check.
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            checks.push(MetricCheck {
                label: label.clone(),
                metric: S::COLUMNS[i].name,
                baseline: low,
                fresh: high,
                tolerance: 0.0,
                higher_is_worse: true,
            });
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{
        ClusterBenchRow, ClusterSuite, PolicyFrontierRow, PolicySuite, ServeCell, ServeSuite,
        TrainScalingRow, TrainSuite,
    };
    use freshgnn::obs::parse_json;
    use freshgnn::serve::ServeReport;

    fn check(baseline: f64, fresh: f64, higher_is_worse: bool) -> MetricCheck {
        MetricCheck {
            label: "cell".into(),
            metric: "p99Ms",
            baseline,
            fresh,
            tolerance: DEFAULT_TOLERANCE,
            higher_is_worse,
        }
    }

    #[test]
    fn regression_direction_respects_metric_polarity() {
        // +10% latency: regression. −10% latency: improvement.
        assert!(check(2.0, 2.2, true).regressed());
        assert!(!check(2.0, 1.8, true).regressed());
        // +10% throughput: improvement. −10% throughput: regression.
        assert!(!check(4000.0, 4400.0, false).regressed());
        assert!(check(4000.0, 3600.0, false).regressed());
        // Inside the band: no trip either way.
        assert!(!check(2.0, 2.04, true).regressed());
        assert!(!check(2.0, 1.96, true).regressed());
    }

    #[test]
    fn zero_baselines_trip_only_on_nonzero_fresh_regressions() {
        assert!(!check(0.0, 0.0, true).regressed());
        assert!(check(0.0, 1.0, true).regressed(), "0 → 1 violations trips");
        assert!(!check(0.0, 1.0, false).regressed(), "improvement direction");
    }

    #[test]
    fn non_finite_values_regress_in_both_polarities() {
        for higher_is_worse in [true, false] {
            for (baseline, fresh) in [
                (5.0, f64::NAN),
                (f64::NAN, 5.0),
                (f64::INFINITY, 5.0),
                (5.0, f64::NEG_INFINITY),
                (f64::INFINITY, f64::INFINITY),
                (0.0, f64::NAN),
            ] {
                assert!(
                    check(baseline, fresh, higher_is_worse).regressed(),
                    "{baseline} -> {fresh} (higher_is_worse {higher_is_worse})"
                );
            }
        }
    }

    #[test]
    fn bit_identity_is_exact() {
        assert!(check(2.0816, 2.0816, true).bit_identical());
        assert!(!check(2.0816, 2.0816 + f64::EPSILON * 4.0, true).bit_identical());
    }

    /// Builds a suite's row for the table-driven tests: `group` picks the
    /// keys an invariance rule groups on, `member` the remaining ones, and
    /// every `Float` column holds `float`, every `Int` value column `int`.
    trait Sample: Suite {
        fn row(group: usize, member: usize, float: f64, int: u64) -> Self::Row;
    }

    const DATASETS: [&str; 3] = ["papers100m", "mag240m", "twitter"];

    impl Sample for ServeSuite {
        fn row(group: usize, member: usize, float: f64, int: u64) -> ServeCell {
            let report = ServeReport {
                offered: 0,
                admitted: 0,
                served: int,
                shed_rate_limited: 0,
                shed_queue_full: 0,
                shed_deadline: 0,
                degraded_served: 0,
                cache_hits: 0,
                cache_misses: 0,
                sla_violations: int,
                deadline_misses: 0,
                p50_ms: float,
                p95_ms: float,
                p99_ms: float,
                max_queue_depth: 0,
                duration_secs: 0.0,
                throughput_rps: float,
                shed_fraction: float,
                shed_log: Vec::new(),
            };
            let label = format!("load={group}x cap={member} \"none\"");
            ServeCell { label, report }
        }
    }

    impl Sample for PolicySuite {
        fn row(group: usize, member: usize, float: f64, int: u64) -> PolicyFrontierRow {
            PolicyFrontierRow {
                policy: ["gradient", "predictive", "coarse-refresh"][member].into(),
                dataset: DATASETS[group].into(),
                accuracy: float,
                h2d_bytes: int,
                io_saving: float,
                hit_rate: float,
                scheduled_refreshes: int,
                predicted_reads: int,
                weighted_reads: int,
            }
        }
    }

    impl Sample for TrainSuite {
        fn row(group: usize, member: usize, float: f64, int: u64) -> TrainScalingRow {
            TrainScalingRow {
                dataset: DATASETS[group].into(),
                workers: 1 << member,
                mean_loss: float,
                h2d_bytes: int,
                sim_seconds: float,
            }
        }
    }

    impl Sample for ClusterSuite {
        fn row(group: usize, member: usize, float: f64, int: u64) -> ClusterBenchRow {
            ClusterBenchRow {
                dataset: DATASETS[group / 2].into(),
                hosts: 2 + group % 2,
                schedule: ["none", "crash", "nic"][member].into(),
                mean_loss: float,
                h2d_bytes: int,
                nic_bytes: int,
                sim_seconds: float,
                degraded_reads: int,
                max_staleness: int,
            }
        }
    }

    fn round_trip<S: Suite>(seed: u64, rows: &[S::Row]) -> (u64, Vec<Vec<Cell>>) {
        let doc = parse_json(&write::<S>(seed, rows)).expect("the writer emits valid JSON");
        read::<S>(&doc).expect("the reader accepts the writer's output")
    }

    fn row_label<S: Suite>(row: &S::Row) -> String {
        label::<S>(&cells::<S>(row))
    }

    /// Names of the gated columns, in file order.
    fn gated<S: Suite>() -> Vec<&'static str> {
        let gated =
            |c: &&Column<S::Row>| matches!(c.role, Role::LowerIsBetter | Role::HigherIsBetter);
        S::COLUMNS.iter().filter(gated).map(|c| c.name).collect()
    }

    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    /// Every contract of the table, for one suite.
    fn exercise<S: Sample>() {
        let name = S::NAME;

        // The document shell, the schema tag and the seed.
        assert_eq!(
            write::<S>(1, &[]),
            format!(
                "{{\"schemaVersion\":\"{}\",\"seed\":1,\"rows\":[]}}\n",
                S::SCHEMA
            ),
            "{name}"
        );
        assert!(S::SCHEMA.starts_with(&format!("fgnn-{name}-")), "{name}");
        assert!(freshgnn::obs::schema::ALL.contains(&S::SCHEMA), "{name}");
        assert_eq!(S::file(), format!("BENCH_{name}.json"));
        let rows = [
            S::row(1, 1, 1.0 / 3.0, 1 << 53),
            S::row(0, 0, 2.0816e-3, 4096),
            S::row(0, 1, 2.0816e-3, 4096),
        ];
        let text = write::<S>(42, &rows);
        assert_eq!(text, write::<S>(42, &rows), "{name}: deterministic");
        assert!(text.ends_with("]}\n"), "{name}");

        // Every column comes back as it went in: floats bit for bit,
        // integers up to 2^53 exactly, strings through the escaper.
        let doc = parse_json(&text).expect("valid JSON");
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(42));
        let parsed = doc.get("rows").and_then(|v| v.as_array()).expect("rows");
        assert_eq!(parsed.len(), rows.len());
        for (row, json) in rows.iter().zip(parsed) {
            for c in S::COLUMNS {
                let got = json
                    .get(c.name)
                    .unwrap_or_else(|| panic!("{name}: {}", c.name));
                match (c.get)(row) {
                    Cell::Str(s) => assert_eq!(got.as_str(), Some(s.as_str())),
                    Cell::Int(v) => assert_eq!(got.as_u64(), Some(v), "{name}: {}", c.name),
                    Cell::Float(v) => assert_eq!(
                        got.as_f64().map(f64::to_bits),
                        Some(v.to_bits()),
                        "{name}: {}",
                        c.name
                    ),
                }
            }
        }
        // 2^53 + 1 would come back as 2^53: refused, not rounded.
        let too_big = std::panic::catch_unwind(|| {
            write::<S>(42, &[S::row(0, 0, 1.0, (1 << 53) + 1)]);
        });
        assert!(too_big.is_err(), "{name}: 2^53 + 1 must not be written");

        // write → read → compare: row order kept, every check bit-identical.
        let (seed, baseline) = round_trip::<S>(42, &rows);
        assert_eq!(seed, 42);
        let labels: Vec<String> = rows.iter().map(row_label::<S>).collect();
        let read_back: Vec<String> = baseline.iter().map(|b| label::<S>(b)).collect();
        assert_eq!(read_back, labels, "{name}: row order and labels");
        let gated_columns = gated::<S>().len();
        let checks = compare::<S>(&baseline, &rows, DEFAULT_TOLERANCE, 0.0);
        assert_eq!(checks.len(), rows.len() * gated_columns, "{name}");
        assert!(checks.iter().all(|c| c.bit_identical() && !c.regressed()));
        for (check, column) in checks.iter().zip(gated::<S>()) {
            assert_eq!(check.metric, column, "{name}: checks in file order");
        }

        // The injection trips the flagged column of every row, nothing else.
        let injected = compare::<S>(&baseline, &rows, DEFAULT_TOLERANCE, 0.10);
        let tripped: Vec<&MetricCheck> = injected.iter().filter(|c| c.regressed()).collect();
        assert_eq!(tripped.len(), rows.len(), "{name}");
        assert!(tripped.iter().all(|c| c.metric == S::INJECT), "{name}");
        let injected = S::COLUMNS.iter().find(|c| c.name == S::INJECT);
        assert_eq!(
            injected.map(|c| c.role),
            Some(Role::LowerIsBetter),
            "{name}"
        );
        for shown in S::HEADLINE {
            assert!(gated::<S>().contains(shown), "{name}");
        }

        // A row only one side has trips `present`, whichever side it is.
        for (baseline, fresh) in [(&baseline[..], &rows[..2]), (&baseline[..2], &rows[..])] {
            let checks = compare::<S>(baseline, fresh, DEFAULT_TOLERANCE, 0.0);
            let tripped: Vec<&MetricCheck> = checks.iter().filter(|c| c.regressed()).collect();
            assert_eq!(tripped.len(), 1, "{name}");
            assert_eq!(tripped[0].metric, "present", "{name}");
            assert_eq!(tripped[0].label, labels[2], "{name}");
            assert_eq!(checks.len(), 2 * gated_columns + 1, "{name}");
        }

        // The invariance rule: only rows of one group are pinned together,
        // and one ULP in either direction breaks it.
        let Some(rule) = S::INVARIANCE else {
            assert!(invariance_checks::<S>(&rows).is_empty(), "{name}");
            return;
        };
        let x = 1.25;
        let group = |second: f64, third: f64| {
            [
                S::row(0, 0, x, 8192),
                S::row(0, 1, second, 8192),
                S::row(1, 0, 7.5, 1),
                S::row(0, 2, third, 8192),
            ]
        };
        let clean = invariance_checks::<S>(&group(x, x));
        assert_eq!(
            clean.len(),
            2 * rule.columns.len(),
            "{name}: one group of 3"
        );
        assert!(clean.iter().all(|c| c.bit_identical() && !c.regressed()));
        let first = row_label::<S>(&S::row(0, 0, x, 0));
        let second = row_label::<S>(&S::row(0, 1, x, 0));
        let differing = first.split('/').zip(second.split('/')).map(|(a, b)| {
            if a == b {
                a.to_string()
            } else {
                format!("{a}={b}")
            }
        });
        assert_eq!(clean[0].label, differing.collect::<Vec<_>>().join("/"));
        for moved in [next_up(x), f64::from_bits(x.to_bits() - 1), f64::NAN] {
            for rows in [group(moved, x), group(x, moved)] {
                let checks = invariance_checks::<S>(&rows);
                let floats = checks.iter().filter(|c| c.regressed()).count();
                assert!(floats > 0, "{name}: {moved} must break the invariance");
                assert!(floats <= rule.columns.len(), "{name}: one row moved");
            }
        }
    }

    #[test]
    fn every_suite_honours_the_table_contract() {
        exercise::<ServeSuite>();
        exercise::<PolicySuite>();
        exercise::<TrainSuite>();
        exercise::<ClusterSuite>();
    }

    #[test]
    fn labels_keep_the_committed_spelling() {
        assert_eq!(
            row_label::<TrainSuite>(&TrainSuite::row(0, 1, 0.0, 0)),
            "papers100m/w2"
        );
        assert_eq!(
            row_label::<ClusterSuite>(&ClusterSuite::row(5, 1, 0.0, 0)),
            "twitter/h3/crash"
        );
        assert_eq!(
            row_label::<PolicySuite>(&PolicySuite::row(1, 0, 0.0, 0)),
            "mag240m/gradient",
            "dataset first, though the file writes the policy first"
        );
        let rows = [TrainSuite::row(1, 0, 1.0, 1), TrainSuite::row(1, 2, 1.0, 1)];
        assert_eq!(
            invariance_checks::<TrainSuite>(&rows)[0].label,
            "mag240m/w1=w4"
        );
        let rows = [
            ClusterSuite::row(1, 0, 1.0, 1),
            ClusterSuite::row(1, 1, 1.0, 1),
        ];
        assert_eq!(
            invariance_checks::<ClusterSuite>(&rows)[0].label,
            "papers100m/h3/none=crash"
        );
    }

    #[test]
    fn a_malformed_baseline_is_a_message_not_a_panic() {
        let read = |text: &str| read::<TrainSuite>(&parse_json(text).expect("valid JSON"));
        let good = write::<TrainSuite>(7, &[TrainSuite::row(0, 0, 1.0, 1)]);
        assert!(read(&good).is_ok());
        for (broken, why) in [
            (
                good.replace("fgnn-train-v1", "fgnn-policy-v1"),
                "schemaVersion",
            ),
            (good.replace("\"seed\":7", "\"seed\":-7"), "seed"),
            (good.replace("\"rows\":[", "\"runs\":["), "rows"),
            (good.replace("\"workers\":1", "\"workers\":true"), "workers"),
            (good.replace("\"dataset\":\"papers100m\",", ""), "dataset"),
            (
                good.replace("\"meanLoss\":1", "\"meanLoss\":null"),
                "meanLoss",
            ),
            ("[]".to_string(), "schemaVersion"),
        ] {
            let err = read(&broken).expect_err(&broken);
            assert!(err.contains(why), "{err}");
        }
    }
}
