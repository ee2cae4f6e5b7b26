//! No-panic fuzzing of `table::read`, the reader behind `exp_report`'s
//! `--*-baseline <path>` flags: the document comes from outside the program,
//! so whatever its shape, `read` returns `Ok` or `Err` and never panics, and
//! `compare` never panics on what `read` accepts. Every suite is driven with
//! seeded cases (`FGNN_PROP_CASES`, default 64; `scripts/ci.sh` runs 256).
//!
//! Inputs, for each suite:
//! - arbitrary `JsonValue` trees, half of them shaped like a baseline (the
//!   suite's schema tag, a seed and rows keyed by its column names);
//! - its committed `BENCH_*.json` truncated, as bytes and as a tree (rows
//!   and the last row's fields cut short);
//! - that file with one field dropped, which must be rejected;
//! - that file with one field's value changed to another type, which is
//!   rejected unless the new value is still a string or a number.

use fgnn_bench::table::{self, Suite, DEFAULT_TOLERANCE};
use fgnn_bench::trajectory::{ClusterSuite, PolicySuite, ServeSuite, TrainSuite};
use fgnn_tensor::Rng;
use freshgnn::obs::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeded cases per property; `FGNN_PROP_CASES` overrides the default 64.
fn cases() -> u64 {
    std::env::var("FGNN_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Run `body` once per seeded case and suite, with that suite's committed
/// baseline parsed.
fn for_each_suite(test: u64, body: impl Fn(&mut Rng, &Target)) {
    let targets = [
        Target::of::<ServeSuite>(include_str!("../../../BENCH_serve.json")),
        Target::of::<PolicySuite>(include_str!("../../../BENCH_policy.json")),
        Target::of::<TrainSuite>(include_str!("../../../BENCH_train.json")),
        Target::of::<ClusterSuite>(include_str!("../../../BENCH_cluster.json")),
    ];
    for case in 0..cases() {
        for target in &targets {
            body(&mut Rng::new(test << 32 ^ case), target);
        }
    }
}

/// One suite under test: its committed document and its reader.
struct Target {
    name: &'static str,
    schema: &'static str,
    columns: Vec<&'static str>,
    text: &'static str,
    doc: JsonValue,
    /// `read` then, on success, `compare` against an empty sweep. Returns
    /// whether `read` accepted the document; a panic fails the test.
    check: fn(&JsonValue) -> bool,
}

impl Target {
    fn of<S: Suite>(text: &'static str) -> Self {
        let doc = parse_json(text).expect("a committed baseline parses");
        let check = |doc: &JsonValue| match table::read::<S>(doc) {
            Ok((_, rows)) => {
                table::compare::<S>(&rows, &[], DEFAULT_TOLERANCE, 0.1);
                true
            }
            Err(_) => false,
        };
        let target = Target {
            name: S::NAME,
            schema: S::SCHEMA,
            columns: S::COLUMNS.iter().map(|c| c.name).collect(),
            text,
            doc,
            check,
        };
        assert!(target.accepts(&target.doc, || "the committed file".into()));
        target
    }

    fn accepts(&self, doc: &JsonValue, what: impl Fn() -> String) -> bool {
        catch_unwind(AssertUnwindSafe(|| (self.check)(doc)))
            .unwrap_or_else(|_| panic!("table::read of {} panicked on {}", self.name, what()))
    }

    fn rows(doc: &mut JsonValue) -> &mut Vec<JsonValue> {
        match doc {
            JsonValue::Object(top) => match top.get_mut("rows") {
                Some(JsonValue::Array(rows)) => rows,
                _ => unreachable!("a committed baseline has a rows array"),
            },
            _ => unreachable!("a committed baseline is an object"),
        }
    }
}

fn object(doc: &mut JsonValue) -> &mut BTreeMap<String, JsonValue> {
    match doc {
        JsonValue::Object(map) => map,
        _ => unreachable!("only objects are edited"),
    }
}

/// A number from the edges a reader must survive: huge, negative,
/// fractional, past 2^53, non-finite.
fn number(rng: &mut Rng) -> f64 {
    let edges = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        42.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        1e308,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match rng.below(edges.len() + 1) {
        i if i < edges.len() => edges[i],
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// An arbitrary tree, keyed from `keys` so objects hit the reader's lookups.
fn value(rng: &mut Rng, keys: &[&str], depth: u32) -> JsonValue {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.below(2) == 0),
        2 => JsonValue::Number(number(rng)),
        3 => JsonValue::String(keys[rng.below(keys.len())].to_string()),
        4 => JsonValue::Array(
            (0..rng.below(4))
                .map(|_| value(rng, keys, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.below(5))
                .map(|_| {
                    let key = keys[rng.below(keys.len())].to_string();
                    (key, value(rng, keys, depth - 1))
                })
                .collect(),
        ),
    }
}

/// A value of another kind than `old`; whether `read` may accept it.
fn retyped(rng: &mut Rng, old: &JsonValue) -> (JsonValue, bool) {
    loop {
        let new = value(rng, &["", "x"], 1);
        if std::mem::discriminant(&new) != std::mem::discriminant(old) {
            let readable = matches!(new, JsonValue::String(_) | JsonValue::Number(_));
            return (new, readable);
        }
    }
}

#[test]
fn random_trees_never_panic() {
    for_each_suite(1, |rng, t| {
        let mut keys = vec!["schemaVersion", "seed", "rows", t.schema, ""];
        keys.extend(&t.columns);
        let doc = if rng.below(2) == 0 {
            value(rng, &keys, 4)
        } else {
            // Baseline-shaped, so the reader gets past the header.
            let rows = (0..rng.below(4))
                .map(|_| {
                    let mut row = BTreeMap::new();
                    for &c in &t.columns {
                        if rng.below(8) != 0 {
                            row.insert(c.to_string(), value(rng, &keys, 2));
                        }
                    }
                    JsonValue::Object(row)
                })
                .collect();
            let seed = if rng.below(4) == 0 {
                value(rng, &keys, 1)
            } else {
                JsonValue::Number(number(rng))
            };
            JsonValue::Object(BTreeMap::from([
                ("schemaVersion".into(), JsonValue::String(t.schema.into())),
                ("seed".into(), seed),
                ("rows".into(), JsonValue::Array(rows)),
            ]))
        };
        t.accepts(&doc, || format!("{doc:?}"));
    });
}

#[test]
fn truncated_baselines_never_panic() {
    for_each_suite(2, |rng, t| {
        let cut = rng.below(t.text.len() + 1);
        if let Ok(doc) = parse_json(&t.text[..cut]) {
            t.accepts(&doc, || format!("the first {cut} bytes"));
        }
        let mut doc = t.doc.clone();
        let rows = Target::rows(&mut doc);
        rows.truncate(rng.below(rows.len() + 1));
        let kept = rows.len();
        let mut fields = None;
        if let Some(last) = rows.last_mut() {
            let last = object(last);
            let keep = rng.below(last.len() + 1);
            *last = std::mem::take(last).into_iter().take(keep).collect();
            fields = Some(keep);
        }
        let complete = fields.is_none_or(|n| n == t.columns.len());
        let accepted = t.accepts(&doc, || {
            format!("{kept} rows, the last cut to {fields:?} fields")
        });
        assert_eq!(accepted, complete, "{}: {kept} rows, {fields:?}", t.name);
    });
}

#[test]
fn dropped_fields_are_rejected() {
    for_each_suite(3, |rng, t| {
        let mut doc = t.doc.clone();
        let rows = Target::rows(&mut doc).len();
        let at = rng.below(rows + 1);
        let dropped = if at == rows {
            let top = object(&mut doc);
            let key = ["schemaVersion", "seed", "rows"][rng.below(3)];
            top.remove(key);
            key
        } else {
            let row = object(&mut Target::rows(&mut doc)[at]);
            let key = t.columns[rng.below(t.columns.len())];
            row.remove(key);
            key
        };
        let accepted = t.accepts(&doc, || format!("row {at} without {dropped}"));
        assert!(
            !accepted,
            "{}: row {at} without {dropped} was accepted",
            t.name
        );
    });
}

#[test]
fn retyped_fields_never_panic() {
    for_each_suite(4, |rng, t| {
        let mut doc = t.doc.clone();
        let rows = Target::rows(&mut doc).len();
        let at = rng.below(rows + 1);
        let (field, readable) = if at == rows {
            let top = object(&mut doc);
            let key = ["schemaVersion", "seed", "rows"][rng.below(3)];
            let (new, _) = retyped(rng, &top[key]);
            top.insert(key.into(), new);
            // The header's types are fixed: any other kind is rejected.
            (key, false)
        } else {
            let row = object(&mut Target::rows(&mut doc)[at]);
            let key = t.columns[rng.below(t.columns.len())];
            let (new, readable) = retyped(rng, &row[key]);
            row.insert(key.into(), new);
            (key, readable)
        };
        let accepted = t.accepts(&doc, || format!("row {at} with {field} retyped"));
        assert_eq!(accepted, readable, "{}: row {at}, {field}", t.name);
    });
}
