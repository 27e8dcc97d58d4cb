//! Witness of the gate's verdicts, recorded on the hand-written gate
//! (the parent of the table-driven rewrite) and held against the
//! table-driven one.
//!
//! For each of the four baselines committed at that parent (pinned under
//! `tests/witness/`), the fresh report is the baseline with exactly one
//! field perturbed — every number × 0.5, × 2 and negated, every key
//! removed, an unknown key added to every object — and the record keeps
//! what the gate said: `invalid` (exit 2), or the metric names of its
//! regressions and warnings and its passed count. The record
//! (`tests/witness/verdicts.txt`) was written by this same walk over the
//! parent's `parse_*_report` / `compare_*` pairs and is not to be
//! regenerated from the gate it now checks. One deliberate policy change
//! rewrote lines by rule, not by running the gate: when the `ckpt` byte
//! counts went from ±15 % ratios to `Exact`, halving or doubling a byte
//! count became a failure on that field alone, and every `ckpt` passed
//! count is out of 18 gates instead of 12; the other verdicts held. One
//! deletion was made by the same rule: when the matrix lost its quick
//! subset, the pinned matrix report lost its root `suite` and each row's
//! `pr`, and the record lost the 28 lines that removed them (both were
//! ungated, so every other verdict held unchanged).

use std::fmt::Write as _;
use std::path::PathBuf;

use stool_bench::gate::{
    compare, parse_json, read, GateError, GateOutcome, Json, Report, CKPT, MATRIX, SCALE, TELEMETRY,
};

/// Gate `fresh` against `base` as `benchgate` does.
fn gate(report: &Report, base: &str, fresh: &str) -> Result<GateOutcome, GateError> {
    let (base, fresh) = (read(report, base)?, read(report, fresh)?);
    let mut out = GateOutcome::default();
    compare(report, &mut out, &base, &fresh);
    Ok(out)
}

/// The metric a gate message is about: the text before its first `": "`.
fn names(messages: &[String]) -> String {
    let names: Vec<&str> = messages
        .iter()
        .map(|m| m.split(": ").next().expect("split yields one item"))
        .collect();
    names.join(",")
}

fn verdict(report: &Report, base: &str, fresh: &Json) -> String {
    match gate(report, base, &fresh.to_string()) {
        Err(_) => "invalid".to_string(),
        Ok(out) => {
            let mut v = String::new();
            if !out.regressions.is_empty() {
                write!(v, "fail({}) ", names(&out.regressions)).unwrap();
            }
            if !out.warnings.is_empty() {
                write!(v, "warn({}) ", names(&out.warnings)).unwrap();
            }
            write!(v, "passed={}", out.passed).unwrap();
            v
        }
    }
}

/// One step from a node to a child.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

fn path_label(path: &[Step]) -> String {
    let mut s = String::new();
    for step in path {
        match step {
            Step::Key(k) if s.is_empty() => s.push_str(k),
            Step::Key(k) => write!(s, ".{k}").unwrap(),
            Step::Index(i) => write!(s, "[{i}]").unwrap(),
        }
    }
    if s.is_empty() {
        s.push('.');
    }
    s
}

fn node_mut<'j>(root: &'j mut Json, path: &[Step]) -> &'j mut Json {
    let mut node = root;
    for step in path {
        node = match (node, step) {
            (Json::Obj(map), Step::Key(k)) => map.get_mut(k).expect("path key"),
            (Json::Arr(items), Step::Index(i)) => &mut items[*i],
            _ => panic!("path does not fit the document"),
        };
    }
    node
}

/// The document with `edit` applied to the node at `path`.
fn edited(doc: &Json, path: &[Step], edit: impl FnOnce(&mut Json)) -> Json {
    let mut copy = doc.clone();
    edit(node_mut(&mut copy, path));
    copy
}

/// Every node of the document, parents before children, in key order.
fn walk(node: &Json, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(path.clone());
    match node {
        Json::Obj(map) => {
            for (k, v) in map {
                path.push(Step::Key(k.clone()));
                walk(v, path, out);
                path.pop();
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                path.push(Step::Index(i));
                walk(v, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// The record lines for one report.
fn record(report: &Report, base: &str) -> String {
    let doc = parse_json(base).expect("pinned baseline parses");
    let mut paths = Vec::new();
    walk(&doc, &mut Vec::new(), &mut paths);
    let mut lines = String::new();
    let name = report.name;
    writeln!(lines, "{name} unperturbed: {}", verdict(report, base, &doc)).unwrap();
    for path in &paths {
        let label = path_label(path);
        let mut cells: Vec<String> = Vec::new();
        let mut copy = doc.clone();
        match node_mut(&mut copy, path) {
            Json::Num(x) => {
                let x = *x;
                for (what, y) in [("half", x * 0.5), ("double", x * 2.0), ("negated", -x)] {
                    let fresh = edited(&doc, path, |n| *n = Json::Num(y));
                    cells.push(format!("{what}: {}", verdict(report, base, &fresh)));
                }
            }
            Json::Obj(_) => {
                let fresh = edited(&doc, path, |n| {
                    let Json::Obj(map) = n else { unreachable!() };
                    map.insert("zz_unknown".to_string(), Json::Num(1.0));
                });
                cells.push(format!("unknown key: {}", verdict(report, base, &fresh)));
            }
            _ => {}
        }
        if let Some((Step::Key(key), parent)) = path.split_last() {
            let fresh = edited(&doc, parent, |n| {
                let Json::Obj(map) = n else { unreachable!() };
                map.remove(key);
            });
            cells.push(format!("removed: {}", verdict(report, base, &fresh)));
        }
        if !cells.is_empty() {
            writeln!(lines, "{name} {label} | {}", cells.join(" | ")).unwrap();
        }
    }
    lines
}

#[test]
fn single_field_perturbations_get_the_recorded_verdicts() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/witness");
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect("pinned witness file");
    let mut fresh = String::new();
    for report in [&CKPT, &SCALE, &TELEMETRY, &MATRIX] {
        fresh.push_str(&record(report, &read(&report.file())));
    }
    let recorded = read("verdicts.txt");
    for (i, (got, want)) in fresh.lines().zip(recorded.lines()).enumerate() {
        assert_eq!(got, want, "verdict line {} differs from the record", i + 1);
    }
    assert_eq!(fresh.lines().count(), recorded.lines().count());
}
