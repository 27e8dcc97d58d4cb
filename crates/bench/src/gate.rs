//! The CI gate over the `BENCH_*.json` reports: one strict reader and one
//! comparison, driven by a declarative table per report.
//!
//! The bench harnesses emit these files on every CI run; this module is
//! what turns them from write-only artifacts into a recorded trajectory.
//! [`parse_json`] is a strict, dependency-free JSON reader (the workspace
//! has no registry access, hence no serde). A [`Report`] table names
//! every key a report may hold, its type and domain, and how it is gated;
//! [`read`] rejects *any* emit that is not exactly that — a bench that
//! writes a broken file fails CI instead of uploading garbage — and
//! [`compare`] holds the fresh report against the committed baseline
//! under `benches/baselines/`. A new report costs a table ([`FIGS`] is
//! the model), not a parser.
//!
//! Gating policy: **virtual-time** metrics (makespans, stored byte
//! counts) are deterministic, so they gate hard — at ±15 % where a
//! modelling change may legitimately move them ([`Gate::Upper`] /
//! [`Gate::Lower`]), exactly where they are scripted counts, the bytes a
//! store writes or the paper's figures ([`Gate::Exact`]), and inside
//! fixed bands where the paper states a
//! claim ([`Gate::Band`]). **Wall-clock** metrics depend on the CI
//! machine and only warn.

use std::collections::BTreeMap;
use std::fmt;

/// Fractional regression tolerance for deterministic metrics (15%).
pub const TOLERANCE: f64 = 0.15;

/// How much slower than the flat barrier the tree barrier may measure at
/// the largest world before the gate fails. The two are timed
/// back-to-back on the same machine, so this same-run ratio check is
/// robust where absolute wall-clock gating would flake.
pub const TREE_HEADROOM: f64 = 0.25;

/// The committed scenario matrix must keep at least this many rows (the
/// harness's reason to exist: breadth as data, not bespoke tests).
pub const MIN_MATRIX_SCENARIOS: f64 = 24.0;

/// Deepest array/object nesting [`parse_json`] follows. The reports nest
/// three deep; the bound keeps a hostile file an error instead of a stack
/// overflow.
pub const MAX_DEPTH: usize = 64;

// ---------------------------------------------------------------------------
// Minimal strict JSON
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite JSON number (as f64; the benches emit nothing larger).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not significant.
    Obj(Obj),
}

/// A JSON object.
pub type Obj = BTreeMap<String, Json>;

impl Json {
    fn expected(&self, what: &str, wanted: &str) -> GateError {
        let got = match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        };
        GateError::Schema(format!("{what}: expected {wanted}, got {got}"))
    }

    /// The value as an object, or a schema error naming `what`.
    pub fn obj(&self, what: &str) -> Result<&Obj, GateError> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(other.expected(what, "object")),
        }
    }

    /// The value as an array, or a schema error naming `what`.
    pub fn arr(&self, what: &str) -> Result<&[Json], GateError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(other.expected(what, "array")),
        }
    }

    /// The value as a number, or a schema error naming `what`.
    pub fn num(&self, what: &str) -> Result<f64, GateError> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(other.expected(what, "number")),
        }
    }

    /// The value as a string, or a schema error naming `what`.
    pub fn str(&self, what: &str) -> Result<&str, GateError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(other.expected(what, "string")),
        }
    }
}

/// Compact JSON text; [`parse_json`] reads it back to an equal value.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write!(f, "{s:?}"),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Json::Obj(map) => {
                let items: Vec<String> = map.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
                write!(f, "{{{}}}", items.join(", "))
            }
        }
    }
}

/// Why the gate failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// The input was not valid JSON.
    Parse {
        /// Byte offset of the failure.
        at: usize,
        /// What went wrong.
        msg: String,
    },
    /// The input parsed but violated the bench schema.
    Schema(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Parse { at, msg } => write!(f, "invalid JSON at byte {at}: {msg}"),
            GateError::Schema(msg) => write!(f, "schema violation: {msg}"),
        }
    }
}

impl std::error::Error for GateError {}

/// `pos` always sits on a character boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<Json, GateError> {
    let (pos, depth) = (0, 0);
    let mut p = Parser { text, pos, depth };
    let v = p.value()?;
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.err("trailing characters after document")),
    }
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> GateError {
        let (at, msg) = (self.pos, msg.into());
        GateError::Parse { at, msg }
    }

    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text.as_bytes()[self.pos..];
        let ws = rest.iter().take_while(|b| b" \t\n\r".contains(b)).count();
        self.pos += ws;
        rest.get(ws).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, b: u8) -> Result<(), GateError> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(self.err(format!("expected '{}'", b as char))),
        }
    }

    fn value(&mut self) -> Result<Json, GateError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    match map.insert(key.clone(), p.value()?) {
                        None => Ok(()),
                        Some(_) => Err(p.err(format!("duplicate key \"{key}\""))),
                    }
                })?;
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated items of an array or object, from its (already
    /// peeked) opening bracket to `close`. The only recursion of the
    /// parser passes through here, so this is where nesting is bounded.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), GateError>,
    ) -> Result<(), GateError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        if !self.eat(close) {
            item(self)?;
            while !self.eat(close) {
                self.expect(b',')?;
                item(self)?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, GateError> {
        if !self.text[self.pos..].starts_with(lit) {
            return Err(self.err(format!("expected '{lit}'")));
        }
        self.pos += lit.len();
        Ok(v)
    }

    fn string(&mut self) -> Result<String, GateError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let mut rest = self.text[self.pos..].chars();
            let c = rest.next().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = rest.next().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += esc.len_utf8();
                    out.push(match esc {
                        '"' | '\\' | '/' => esc,
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let hex = self.text.get(self.pos..self.pos + 4);
                            let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                            self.pos += 4;
                            code.and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                c if c < ' ' => return Err(self.err("raw control byte in string")),
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, GateError> {
        let rest = &self.text[self.pos..];
        let len = rest
            .bytes()
            .take_while(|b| b.is_ascii_digit() || b"-+.eE".contains(b))
            .count();
        let text = &rest[..len];
        self.pos += len;
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.err(format!("bad number '{text}'"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Schema tables
// ---------------------------------------------------------------------------

/// The JSON type a field must have; numbers carry their domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ty {
    /// A number `> 0`.
    Positive,
    /// A number `>= 0`.
    NonNegative,
    /// Any number.
    Any,
    /// A non-empty string.
    Str,
    /// A string out of a closed set (the report's name, a suite).
    Tag(&'static [&'static str]),
    /// `true` / `false`.
    Bool,
    /// An array of strings, possibly empty.
    Strs,
}

/// How a value is held against the baseline's, or against fixed bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Equal to the baseline's value: scripted counts and virtual-time
    /// figures, where any drift is a semantic change.
    Exact,
    /// At most [`TOLERANCE`] above the baseline (lower is better).
    Upper,
    /// At most [`TOLERANCE`] below the baseline (higher is better).
    Lower,
    /// Wall-clock: warns beyond [`TOLERANCE`] above the baseline, never
    /// fails.
    Warn,
    /// Observation: warns on any difference, never fails.
    Drift,
    /// `lo <= x < hi` on the fresh value alone — the paper's bands and
    /// fixed floors, which hold whatever the baseline says.
    Band(f64, f64),
}

/// One key of an object: its type and how it is gated.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The JSON key.
    pub key: &'static str,
    /// Its type.
    pub ty: Ty,
    /// Its gates, applied in order; none for context-only fields.
    pub gates: &'static [Gate],
    /// The row's one metric: messages name the row, not the key.
    pub bare: bool,
}

/// A metric computed from two numeric fields of one object: its name in
/// gate messages, then the fields `a` and `b`.
#[derive(Debug, Clone, Copy)]
pub enum Derived {
    /// `a > b` on the fresh report alone: the order of two overheads.
    Above(&'static str, &'static str, &'static str),
}

/// What an unpaired row is worth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sev {
    /// Nothing (sweeps whose size set may be capped).
    Ignore,
    /// A warning.
    Warn,
    /// A regression.
    Fail,
}

/// One keyed part of a report: an object, or an array of row objects
/// paired with the baseline's by identity.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// The JSON key under the document root; also a path element of the
    /// metric names, unless it is the report's only section.
    pub key: &'static str,
    /// The identifying fields of a row and the suffix each gets in metric
    /// names (`("ranks", "r")` makes `64r`); empty for a single object.
    pub id: &'static [(&'static str, &'static str)],
    /// What a baseline row with no fresh twin is worth, and a fresh row
    /// with no baseline twin.
    pub unpaired: (Sev, Sev),
    /// The keys of the object (or of every row) — a closed set.
    pub fields: &'static [Field],
    /// Metrics derived per object, gated before its fields.
    pub derived: &'static [Derived],
}

/// The schema and gates of one `BENCH_*.json` report.
pub struct Report {
    /// Prefix of every metric name, and the `benchgate` flag.
    pub name: &'static str,
    /// Scalar keys of the document root.
    pub root: &'static [Field],
    /// Keyed sections of the document root.
    pub sections: &'static [Section],
    /// Consistency between fields that no single row of the table can
    /// express; runs after the table's own checks.
    pub validate: Option<Validate>,
    /// Gates across rows; runs between the root's gates and the sections',
    /// which it calls off by returning `false`.
    pub rule: Option<Rule>,
}

/// A consistency check over a report's root object.
pub type Validate = fn(&Obj) -> Result<(), GateError>;

/// A gate over a baseline's and a fresh report's root objects.
pub type Rule = fn(&mut GateOutcome, &Obj, &Obj) -> bool;

use Derived::Above;
use Gate::{Band, Drift, Exact, Lower, Upper, Warn};
use Sev::{Fail, Ignore};
use Ty::{Any, NonNegative, Positive};

impl Report {
    /// File name, at the workspace root and under `benches/baselines/`.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

const fn field(key: &'static str, ty: Ty, gates: &'static [Gate]) -> Field {
    Field {
        key,
        ty,
        gates,
        bare: false,
    }
}

impl Field {
    const fn bare(self) -> Field {
        Field { bare: true, ..self }
    }
}

/// `BENCH_ckpt.json` — the `store` bench. Every byte count is a function
/// of the workloads (content-defined chunking, content-keyed dedup and
/// deterministic codecs on virtual-time programs), so each one gates
/// exactly: any drift in what the store writes, hashes or ships fails.
/// Both makespans gate hard; commit wall-clock only warns.
pub const CKPT: Report = Report {
    name: "ckpt",
    root: &[field("bench", Ty::Tag(&["ckpt_store"]), &[])],
    sections: &[Section {
        key: "workloads",
        id: &[("name", "")],
        unpaired: (Fail, Sev::Warn),
        fields: &[
            field("name", Ty::Str, &[]),
            field("epochs", Positive, &[]),
            field("full_base_bytes", Positive, &[Exact]),
            field("delta_bytes_avg", NonNegative, &[Exact]),
            field("delta_raw_bytes_avg", NonNegative, &[Exact]),
            field("hashed_dirty_avg", NonNegative, &[Exact]),
            field("hashed_full_avg", NonNegative, &[Exact]),
            field("image_bytes", Positive, &[Exact]),
            field("tier_shipped_bytes_avg", Positive, &[Exact]),
            field("commit_wall_ms", Positive, &[Warn]),
            field("sync_makespan_s", Positive, &[Upper]),
            field("async_makespan_s", Positive, &[Upper]),
        ],
        derived: &[],
    }],
    validate: None,
    rule: None,
};

/// `BENCH_telemetry.json` — the `telemetry` bench. Events per round gate
/// both ways: fewer means instrumentation fell off a code path, more
/// means the control plane grew chatty.
pub const TELEMETRY: Report = Report {
    name: "telemetry",
    root: &[
        field("bench", Ty::Tag(&["telemetry"]), &[]),
        field("rounds", Positive, &[Exact]),
        field("events_per_round", Positive, &[Upper, Lower]),
        field("emit_wall_ns", Positive, &[Warn]),
        field("events_per_sec_wall", Positive, &[]),
    ],
    sections: &[],
    validate: None,
    rule: None,
};

const VIRT_FIELDS: &[Field] = &[
    field("ranks", Positive, &[]),
    field("vendor", Ty::Str, &[]),
    field("virt_makespan_s", Positive, &[Upper]).bare(),
];

/// Virtual makespans per `(ranks, vendor)`; a capped sweep only warns.
const fn virt(key: &'static str) -> Section {
    Section {
        key,
        id: &[("ranks", "r"), ("vendor", "")],
        unpaired: (Sev::Warn, Ignore),
        fields: VIRT_FIELDS,
        derived: &[],
    }
}

/// `BENCH_scale.json` — the `scale` bench. The scripted failover count
/// and the fixed cluster config gate exactly, the tenants' fairness
/// spread both ways (wider: shared infrastructure taxes tenants unevenly;
/// narrower: the tenant mix changed); wall-clock curves only warn, except
/// for the two same-run shape checks of [`scale_rule`].
pub const SCALE: Report = Report {
    name: "scale",
    root: &[
        field("bench", Ty::Tag(&["scale"]), &[]),
        field("stripes", Positive, &[]),
        field("failover_recovery_rounds", NonNegative, &[Exact]),
    ],
    sections: &[
        virt("p2p_drain"),
        virt("allreduce"),
        virt("ckpt_rendezvous"),
        Section {
            key: "rendezvous_wallclock",
            id: &[("ranks", "r")],
            unpaired: (Ignore, Ignore),
            fields: &[
                field("ranks", Positive, &[]),
                field("flat_ms", Positive, &[]),
                field("tree_ms", Positive, &[Warn]).bare(),
            ],
            derived: &[],
        },
        Section {
            key: "cluster",
            id: &[],
            unpaired: (Ignore, Ignore),
            fields: &[
                field("tenants", Positive, &[Exact]),
                field("epochs_total", Positive, &[Exact]),
                field("fairness_spread", Positive, &[Upper, Lower]),
                field("wall_ms", Positive, &[Warn]),
            ],
            derived: &[],
        },
    ],
    validate: None,
    rule: Some(scale_rule),
};

/// Two properties of the fresh rendezvous curves alone: they cover a
/// world of ≥ 512 ranks, and at the largest world the tree barrier does
/// not lose to the flat one by more than [`TREE_HEADROOM`].
fn scale_rule(out: &mut GateOutcome, _base: &Obj, fresh: &Obj) -> bool {
    let max_row = rows_of(fresh, "rendezvous_wallclock")
        .into_iter()
        .max_by(|a, b| number(a, "ranks").total_cmp(&number(b, "ranks")))
        .expect("validated non-empty");
    let [ranks, flat, tree] = ["ranks", "flat_ms", "tree_ms"].map(|k| number(max_row, k));
    let name = "scale/rendezvous_wallclock";
    out.check(
        ranks >= 512.0,
        format!("{name}: largest world is {ranks} ranks, need >= 512"),
    );
    out.check(
        tree <= flat * (1.0 + TREE_HEADROOM),
        format!(
            "{name}/{ranks}r: tree barrier ({tree:.3} ms) lost to the flat barrier \
             ({flat:.3} ms) by more than {:.0}% — the tree topology has regressed",
            TREE_HEADROOM * 100.0
        ),
    );
    true
}

/// `BENCH_matrix.json` — the scenario matrix. Everything gated is
/// scheduled on a virtual clock, hence exact; what the environment tinges
/// (epochs retained, retries, stalls, elections) warns on drift. The
/// executed row set and each row's pass state are [`matrix_rule`]'s.
pub const MATRIX: Report = Report {
    name: "matrix",
    root: &[field(
        "spec_scenarios",
        Positive,
        &[Exact, Band(MIN_MATRIX_SCENARIOS, f64::INFINITY)],
    )],
    sections: &[Section {
        key: "scenarios",
        id: &[("name", "")],
        unpaired: (Ignore, Ignore),
        fields: &[
            field("name", Ty::Str, &[]),
            field("app", Ty::Str, &[]),
            field("vendor", Ty::Str, &[]),
            field("passed", Ty::Bool, &[]),
            field("recovery_rounds", NonNegative, &[Exact]),
            field("kills", NonNegative, &[Exact]),
            field("epochs", NonNegative, &[Drift]),
            field("put_retries", NonNegative, &[Drift]),
            field("stalls", NonNegative, &[Drift]),
            field("elections", NonNegative, &[Drift]),
            field("failures", Ty::Strs, &[]),
        ],
        derived: &[],
    }],
    validate: Some(matrix_validate),
    rule: Some(matrix_rule),
};

/// Unique names, `passed` agreeing with `failures`, and no more executed
/// rows than the spec declares.
fn matrix_validate(doc: &Obj) -> Result<(), GateError> {
    let mut seen = Vec::new();
    for row in rows_of(doc, "scenarios") {
        let name = &row["name"];
        if seen.contains(&name) {
            return Err(GateError::Schema(format!(
                "scenarios: duplicate scenario name {name}"
            )));
        }
        seen.push(name);
        let failures = row["failures"].arr("failures")?.len();
        if row["passed"] != Json::Bool(failures == 0) {
            return Err(GateError::Schema(format!(
                "scenarios: {name}: passed={} contradicts {failures} recorded failure(s)",
                row["passed"]
            )));
        }
    }
    let spec = number(doc, "spec_scenarios");
    if seen.len() > spec as usize {
        return Err(GateError::Schema(format!(
            "scenarios: {} rows exceed spec_scenarios = {spec}",
            seen.len()
        )));
    }
    Ok(())
}

/// The executed rows must be the baseline's rows, in matrix order; every
/// row must pass its invariants and keep its identity.
fn matrix_rule(out: &mut GateOutcome, base: &Obj, fresh: &Obj) -> bool {
    let expected = rows_of(base, "scenarios");
    let executed = rows_of(fresh, "scenarios");
    let names = |rows: &[&Obj]| {
        rows.iter()
            .map(|r| r["name"].to_string())
            .collect::<Vec<_>>()
    };
    let same_rows = names(&expected) == names(&executed);
    out.check(
        same_rows,
        format!(
            "matrix: executed rows {:?} differ from the baseline's rows {:?}",
            names(&executed),
            names(&expected)
        ),
    );
    if !same_rows {
        return false;
    }
    for (b, f) in expected.iter().zip(&executed) {
        let row = format!("matrix/{}", f["name"].str("name").expect("validated"));
        out.check(
            f["passed"] == Json::Bool(true),
            format!("{row}: invariant failure(s): {}", f["failures"]),
        );
        let identity = |r: &Obj| format!("{}/{}", r["app"], r["vendor"]);
        out.check(
            identity(b) == identity(f),
            format!(
                "{row}: identity drift (app/vendor {} vs baseline {})",
                identity(f),
                identity(b)
            ),
        );
    }
    true
}

/// `BENCH_figs.json` — the `figs` bin ([`crate::figs`]): the paper's
/// Figs. 2–6 and the ablations at the 4 × 12 testbed shape, noise off, as
/// one point per row. Every number is virtual time, so every one is held
/// to the baseline exactly — the golden test's coarse twin — and the
/// §5.1–5.3 claims are also held inside the paper's bands, whatever the
/// baseline says.
pub const FIGS: Report = Report {
    name: "figs",
    root: &[
        field("bench", Ty::Tag(&["figs"]), &[]),
        field("sweep", Ty::Tag(&["default", "full"]), &[Exact]),
    ],
    sections: &[
        Section {
            key: "points",
            id: &[("figure", ""), ("series", ""), ("x", "")],
            unpaired: (Fail, Fail),
            fields: &[
                field("figure", Ty::Str, &[]),
                field("series", Ty::Str, &[]),
                field("x", NonNegative, &[]),
                field("y", Any, &[Exact]).bare(),
                field("unit", Ty::Str, &[]),
            ],
            derived: &[],
        },
        Section {
            key: "claims",
            id: &[("vendor", "")],
            unpaired: (Fail, Fail),
            fields: &[
                field("vendor", Ty::Str, &[]),
                // Paper: max 10.9 % at 1 byte for alltoall…
                field("alltoall_1b_pct", Any, &[Exact, Band(0.0, 25.0)]),
                // …under 2 % either way at the largest message.
                field(
                    "alltoall_large_pct",
                    Any,
                    &[Exact, Band(ABOVE_MINUS_2, 2.0)],
                ),
                field("alltoall_max_pct", Any, &[Exact, Band(f64::MIN, 30.0)]),
                // Paper: up to 17.2 % for bcast / allreduce.
                field("bcast_max_pct", Any, &[Exact, Band(f64::MIN, 30.0)]),
                field("allreduce_max_pct", Any, &[Exact, Band(f64::MIN, 30.0)]),
                field("bcast_allreduce_max_pct", Any, &[Exact]),
                field("bcast_1b_pct", Any, &[Exact]),
                field("bcast_1b_modern_pct", Any, &[Exact]),
                // Fig. 5: CoMD ≈ 0–5 %, wave_mpi ≈ 0 %; interposition
                // cannot be free.
                field("comd_pct", Any, &[Exact, Band(0.0, 10.0)]),
                field("wave_pct", Any, &[Exact, Band(0.0, 5.0)]),
            ],
            derived: &[
                // Overhead shrinks with message size.
                Above(
                    "alltoall_1b_over_large",
                    "alltoall_1b_pct",
                    "alltoall_large_pct",
                ),
                // Bcast and allreduce send fewer messages, so the fixed
                // interposition cost is a larger share of one of them.
                Above(
                    "bcast_or_allreduce_over_alltoall",
                    "bcast_allreduce_max_pct",
                    "alltoall_max_pct",
                ),
                // §5.1: the small-message overhead is mostly the FSGSBASE
                // syscall of the split process on pre-5.9 kernels.
                Above("fsgsbase_saving", "bcast_1b_pct", "bcast_1b_modern_pct"),
                // §5.1: micro-benchmarks are the worst case.
                Above("micro_over_app", "bcast_1b_pct", "wave_pct"),
            ],
        },
        Section {
            key: "restart",
            id: &[],
            unpaired: (Ignore, Ignore),
            fields: &[
                // Fig. 6: the restarted curve tracks launch-with-MPICH (the
                // largest relative deviation over the sizes).
                field("mpich_dev_pct", NonNegative, &[Exact, Band(0.0, 5.0)]),
                // Persisting the checkpoint as a delta chain and restarting
                // from it moves no latency at all (the largest gap to the
                // restart from memory).
                field("store_gap_us", Any, &[Exact, Band(0.0, f64::MIN_POSITIVE)]),
            ],
            derived: &[],
        },
    ],
    validate: None,
    rule: None,
};

/// The least `f64` above −2: makes a band's closed lower end open.
const ABOVE_MINUS_2: f64 = -1.9999999999999998;

// ---------------------------------------------------------------------------
// The generic reader and comparison
// ---------------------------------------------------------------------------

/// A validated numeric field.
fn number(obj: &Obj, key: &str) -> f64 {
    obj[key].num(key).expect("validated")
}

/// The objects of a validated section: the rows of an array, or the one
/// object itself.
fn rows_of<'j>(doc: &'j Obj, key: &str) -> Vec<&'j Obj> {
    let rows = match &doc[key] {
        Json::Arr(rows) => rows.iter().collect(),
        object => vec![object],
    };
    rows.into_iter()
        .map(|r| r.obj(key).expect("validated"))
        .collect()
}

/// `value` is an object holding exactly `fields` plus `sections` (a closed
/// schema), each field of its type.
fn check_object(
    value: &Json,
    what: &str,
    fields: &[Field],
    sections: &[Section],
) -> Result<(), GateError> {
    let obj = value.obj(what)?;
    let known =
        |key: &str| fields.iter().any(|f| f.key == key) || sections.iter().any(|s| s.key == key);
    if let Some(key) = obj.keys().find(|key| !known(key)) {
        return Err(GateError::Schema(format!(
            "{what}: unknown key \"{key}\" (strict schema)"
        )));
    }
    for field in fields {
        let at = format!("{what}.{}", field.key);
        let value = obj
            .get(field.key)
            .ok_or_else(|| GateError::Schema(format!("{what}: missing key \"{}\"", field.key)))?;
        let ok = match field.ty {
            Positive => value.num(&at)? > 0.0,
            NonNegative => value.num(&at)? >= 0.0,
            Any => value.num(&at).is_ok(),
            Ty::Str => !value.str(&at)?.is_empty(),
            Ty::Tag(allowed) => allowed.contains(&value.str(&at)?),
            Ty::Bool => matches!(value, Json::Bool(_)),
            Ty::Strs => value.arr(&at)?.iter().all(|s| s.str(&at).is_ok()),
        };
        if !ok {
            return Err(GateError::Schema(format!(
                "{at}: {value} is not {:?}",
                field.ty
            )));
        }
    }
    Ok(())
}

/// Strictly parse one report: valid JSON, exactly the table's keys, every
/// value of its type and in its domain, every row array non-empty.
pub fn read(report: &Report, text: &str) -> Result<Json, GateError> {
    let doc = parse_json(text)?;
    check_object(&doc, "top level", report.root, report.sections)?;
    let root = doc.obj("top level")?;
    for s in report.sections {
        let value = root
            .get(s.key)
            .ok_or_else(|| GateError::Schema(format!("top level: missing key \"{}\"", s.key)))?;
        if s.id.is_empty() {
            check_object(value, s.key, s.fields, &[])?;
            continue;
        }
        let rows = value.arr(s.key)?;
        if rows.is_empty() {
            return Err(GateError::Schema(format!("{}: empty", s.key)));
        }
        for (i, row) in rows.iter().enumerate() {
            check_object(row, &format!("{}[{i}]", s.key), s.fields, &[])?;
        }
    }
    if let Some(validate) = report.validate {
        validate(root)?;
    }
    Ok(doc)
}

/// What the comparison concluded.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Hard failures: gated metrics out of bounds.
    pub regressions: Vec<String>,
    /// Soft findings: wall-clock drift, unpaired rows of a capped sweep.
    pub warnings: Vec<String>,
    /// Gates that held (for the log).
    pub passed: usize,
}

impl GateOutcome {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Count a gate that held, or record why it did not.
    fn check(&mut self, held: bool, otherwise: String) {
        if held {
            self.passed += 1;
        } else {
            self.regressions.push(otherwise);
        }
    }

    fn unpaired(&mut self, sev: Sev, msg: String) {
        match sev {
            Ignore => {}
            Sev::Warn => self.warnings.push(msg),
            Fail => self.regressions.push(msg),
        }
    }
}

fn apply_gates(out: &mut GateOutcome, what: &str, gates: &[Gate], base: &Json, fresh: &Json) {
    let (b, f) = match (base, fresh) {
        (Json::Num(b), Json::Num(f)) => (*b, *f),
        _ => (f64::NAN, f64::NAN),
    };
    let beyond = |sign: char, by: f64| {
        let (by, tolerance) = (by * 100.0, TOLERANCE * 100.0);
        format!("{what}: {f:.6} vs baseline {b:.6} ({sign}{by:.1}% > {tolerance:.0}% tolerance)")
    };
    for gate in gates {
        match *gate {
            Exact => out.check(
                base == fresh,
                format!("{what}: {fresh} vs baseline {base} (deterministic; must match)"),
            ),
            Upper => out.check(f <= b * (1.0 + TOLERANCE), beyond('+', f / b - 1.0)),
            Lower => out.check(f >= b * (1.0 - TOLERANCE), beyond('-', 1.0 - f / b)),
            Warn if f > b * (1.0 + TOLERANCE) => out.warnings.push(format!(
                "{what}: {f:.3} vs baseline {b:.3} (wall-clock; not gated)"
            )),
            Drift if f != b => out.warnings.push(format!(
                "{what}: {f} vs baseline {b} (observation; not gated)"
            )),
            Warn | Drift => {}
            Band(lo, hi) => out.check(
                lo <= f && f < hi,
                format!("{what}: {f} is outside [{lo}, {hi})"),
            ),
        }
    }
}

/// Gate one object's derived metrics, then its fields, in table order.
fn compare_object(out: &mut GateOutcome, prefix: &str, s: &Section, base: &Obj, fresh: &Obj) {
    for &Above(name, a, b) in s.derived {
        out.check(
            number(fresh, a) > number(fresh, b),
            format!(
                "{prefix}/{name}: {a} {} is not above {b} {}",
                fresh[a], fresh[b]
            ),
        );
    }
    for f in s.fields {
        let what = match f.bare {
            true => prefix.to_string(),
            false => format!("{prefix}/{}", f.key),
        };
        apply_gates(out, &what, f.gates, &base[f.key], &fresh[f.key]);
    }
}

/// Compare a fresh report against the committed baseline, both already
/// through [`read`].
pub fn compare(report: &Report, out: &mut GateOutcome, base: &Json, fresh: &Json) {
    let (base, fresh) = (
        base.obj("top level").expect("validated"),
        fresh.obj("top level").expect("validated"),
    );
    let root = Section {
        key: "",
        id: &[],
        unpaired: (Ignore, Ignore),
        fields: report.root,
        derived: &[],
    };
    compare_object(out, report.name, &root, base, fresh);
    if report.rule.is_some_and(|rule| !rule(out, base, fresh)) {
        return;
    }
    for s in report.sections {
        let prefix = match report.sections.len() {
            1 => report.name.to_string(),
            _ => format!("{}/{}", report.name, s.key),
        };
        let (base_rows, fresh_rows) = (rows_of(base, s.key), rows_of(fresh, s.key));
        let same = |a: &Obj, b: &Obj| s.id.iter().all(|(k, _)| a[*k] == b[*k]);
        // `prefix/64r/MPICH` for a row, `prefix` for a single object.
        let named = |row: &Obj| {
            s.id.iter()
                .fold(prefix.clone(), |name, (k, suffix)| match &row[*k] {
                    Json::Str(s) => format!("{name}/{s}{suffix}"),
                    other => format!("{name}/{other}{suffix}"),
                })
        };
        for b in &base_rows {
            match fresh_rows.iter().find(|f| same(b, f)) {
                Some(f) => compare_object(out, &named(b), s, b, f),
                None => out.unpaired(
                    s.unpaired.0,
                    format!("{prefix}: no fresh row for {} (sweep shrank?)", named(b)),
                ),
            }
        }
        for f in fresh_rows
            .iter()
            .filter(|f| !base_rows.iter().any(|b| same(b, f)))
        {
            let hint = "has no baseline yet (run with --write-baselines)";
            out.unpaired(s.unpaired.1, format!("{prefix}: {} {hint}", named(f)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let doc = parse_json(r#"{"a": [1, -2.5, 3e2], "b": {"c": true, "d": null}, "e": "x\n"}"#)
            .unwrap();
        let top = doc.obj("t").unwrap();
        let a = top["a"].arr("a").unwrap();
        assert_eq!(a[0].num("0").unwrap(), 1.0);
        assert_eq!(a[1].num("1").unwrap(), -2.5);
        assert_eq!(a[2].num("2").unwrap(), 300.0);
        assert_eq!(top["b"].obj("b").unwrap()["c"], Json::Bool(true));
        assert_eq!(top["e"].str("e").unwrap(), "x\n");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": nul}",
            "{\"a\": 1e}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn rejects_nesting_beyond_the_bound_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let objects = "{\"a\": ".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        for hostile in [nested(MAX_DEPTH + 1), objects, "[".repeat(1 << 20)] {
            match parse_json(&hostile) {
                Err(GateError::Parse { msg, .. }) => assert!(msg.contains("nested deeper")),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn display_reads_back_to_an_equal_value() {
        let text = r#"{"a": [1, -2.5, 300], "b": {"c": true, "d": null}, "e": "x\n\"q\" → ∞"}"#;
        let doc = parse_json(text).unwrap();
        assert_eq!(parse_json(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn utf8_strings_roundtrip() {
        let doc = parse_json("{\"k\": \"héllo → ∞\"}").unwrap();
        assert_eq!(doc.obj("t").unwrap()["k"].str("k").unwrap(), "héllo → ∞");
    }

    fn ckpt_json_full(
        delta: u64,
        hashed_dirty: u64,
        tier_shipped: u64,
        sync_s: f64,
        async_s: f64,
    ) -> String {
        format!(
            "{{\"bench\": \"ckpt_store\", \"workloads\": [\
             {{\"name\": \"wave_mpi\", \"epochs\": 4, \"full_base_bytes\": 1000, \
             \"delta_bytes_avg\": {delta}, \"delta_raw_bytes_avg\": 800, \
             \"hashed_dirty_avg\": {hashed_dirty}, \"hashed_full_avg\": 1200, \
             \"image_bytes\": 1200, \"tier_shipped_bytes_avg\": {tier_shipped}, \
             \"commit_wall_ms\": 2.5, \
             \"sync_makespan_s\": {sync_s}, \"async_makespan_s\": {async_s}}}]}}"
        )
    }

    fn ckpt_json_ext(delta: u64, hashed_dirty: u64, sync_s: f64, async_s: f64) -> String {
        ckpt_json_full(delta, hashed_dirty, 600, sync_s, async_s)
    }

    fn ckpt_json(delta: u64, sync_s: f64, async_s: f64) -> String {
        ckpt_json_ext(delta, 400, sync_s, async_s)
    }

    #[test]
    fn ckpt_schema_accepts_wellformed() {
        // Against itself: seven byte counts and two makespans hold.
        let r = read(&CKPT, &ckpt_json(500, 2.0, 1.5)).unwrap();
        let mut out = GateOutcome::default();
        compare(&CKPT, &mut out, &r, &r);
        assert!(out.ok() && out.warnings.is_empty(), "{out:?}");
        assert_eq!(out.passed, 9);
    }

    #[test]
    fn ckpt_schema_rejects_missing_and_unknown_keys() {
        let missing = "{\"bench\": \"ckpt_store\", \"workloads\": [{\"name\": \"w\"}]}";
        assert!(read(&CKPT, missing).is_err());
        let unknown = ckpt_json(500, 2.0, 1.5).replace("\"epochs\"", "\"epochz\"");
        assert!(read(&CKPT, &unknown).is_err());
        let wrong_bench = ckpt_json(500, 2.0, 1.5).replace("ckpt_store", "other");
        assert!(read(&CKPT, &wrong_bench).is_err());
    }

    #[test]
    fn ckpt_schema_rejects_nonsense_numbers() {
        assert!(read(&CKPT, &ckpt_json(500, -2.0, 1.5)).is_err());
        let zero_base =
            ckpt_json(500, 2.0, 1.5).replace("\"full_base_bytes\": 1000", "\"full_base_bytes\": 0");
        assert!(read(&CKPT, &zero_base).is_err());
    }

    #[test]
    fn byte_counts_gate_exactly_and_makespans_beyond_tolerance() {
        let base = read(&CKPT, &ckpt_json(500, 2.0, 1.5)).unwrap();
        let regressions = |fresh: &str| {
            let mut out = GateOutcome::default();
            compare(&CKPT, &mut out, &base, &read(&CKPT, fresh).unwrap());
            out.regressions
        };
        // Makespans within tolerance, every byte count equal: passes.
        assert_eq!(regressions(&ckpt_json(500, 2.2, 1.6)), Vec::<String>::new());
        // One stored byte more or less per delta epoch: fails.
        for delta in [499, 501] {
            let r = regressions(&ckpt_json(delta, 2.0, 1.5));
            assert!(r.len() == 1 && r[0].contains("delta_bytes_avg"), "{r:?}");
        }
        // Makespan regressed 30%: fails.
        let r = regressions(&ckpt_json(500, 2.6, 1.5));
        assert!(r.len() == 1 && r[0].contains("sync_makespan_s"), "{r:?}");
        // Dirty tracking hashed one byte more: fails.
        let r = regressions(&ckpt_json_ext(500, 401, 2.0, 1.5));
        assert!(r.len() == 1 && r[0].contains("hashed_dirty_avg"), "{r:?}");
        // The tier shipped one byte fewer: fails too — a drift either way.
        let r = regressions(&ckpt_json_full(500, 400, 599, 2.0, 1.5));
        assert!(
            r.len() == 1 && r[0].contains("tier_shipped_bytes_avg"),
            "{r:?}"
        );
    }

    #[test]
    fn commit_wall_clock_drift_warns_but_never_gates() {
        let base = read(&CKPT, &ckpt_json(500, 2.0, 1.5)).unwrap();
        let slow_machine =
            ckpt_json(500, 2.0, 1.5).replace("\"commit_wall_ms\": 2.5", "\"commit_wall_ms\": 50.0");
        let fresh = read(&CKPT, &slow_machine).unwrap();
        let mut out = GateOutcome::default();
        compare(&CKPT, &mut out, &base, &fresh);
        assert!(out.ok(), "{:?}", out.regressions);
        assert!(out.warnings.iter().any(|w| w.contains("commit_wall_ms")));
    }

    fn scale_json(virt: f64, max_ranks: u64) -> String {
        format!(
            "{{\"bench\": \"scale\", \"stripes\": 8, \"failover_recovery_rounds\": 4, \
             \"rendezvous_wallclock\": [\
             {{\"ranks\": 64, \"flat_ms\": 1.0, \"tree_ms\": 1.1}}, \
             {{\"ranks\": {max_ranks}, \"flat_ms\": 40.0, \"tree_ms\": 12.0}}], \
             \"p2p_drain\": [{{\"ranks\": 64, \"vendor\": \"MPICH\", \"virt_makespan_s\": {virt}}}], \
             \"allreduce\": [{{\"ranks\": 64, \"vendor\": \"MPICH\", \"virt_makespan_s\": {virt}}}], \
             \"ckpt_rendezvous\": [{{\"ranks\": 64, \"vendor\": \"MPICH\", \"virt_makespan_s\": {virt}}}], \
             \"cluster\": {{\"tenants\": 4, \"epochs_total\": 12, \
             \"fairness_spread\": 0.04, \"wall_ms\": 5.0}}}}"
        )
    }

    #[test]
    fn scale_schema_and_gate() {
        let base = read(&SCALE, &scale_json(1.0, 1024)).unwrap();
        let fresh = read(&SCALE, &scale_json(1.05, 1024)).unwrap();
        let mut out = GateOutcome::default();
        compare(&SCALE, &mut out, &base, &fresh);
        assert!(out.ok(), "{:?}", out.regressions);
        // 30% virtual-time regression trips the gate.
        let slow = read(&SCALE, &scale_json(1.3, 1024)).unwrap();
        let mut out = GateOutcome::default();
        compare(&SCALE, &mut out, &base, &slow);
        assert!(!out.ok());
        // A fresh report whose largest world shrank below 512 fails hard.
        let small = read(&SCALE, &scale_json(1.0, 256)).unwrap();
        let mut out = GateOutcome::default();
        compare(&SCALE, &mut out, &base, &small);
        assert!(!out.ok());
        assert!(out.regressions.iter().any(|r| r.contains(">= 512")));
    }

    #[test]
    fn failover_battery_count_gates_exactly() {
        let base = read(&SCALE, &scale_json(1.0, 1024)).unwrap();
        // Any drift in the deterministic takeover count trips the gate.
        for wrong in ["3", "5", "0"] {
            let drifted = scale_json(1.0, 1024).replace(
                "\"failover_recovery_rounds\": 4",
                &format!("\"failover_recovery_rounds\": {wrong}"),
            );
            let fresh = read(&SCALE, &drifted).unwrap();
            let mut out = GateOutcome::default();
            compare(&SCALE, &mut out, &base, &fresh);
            assert!(!out.ok(), "count {wrong} must fail the gate");
            assert!(out
                .regressions
                .iter()
                .any(|r| r.contains("failover_recovery_rounds")));
        }
        // A report missing the metric fails the schema outright.
        let missing = scale_json(1.0, 1024).replace("\"failover_recovery_rounds\": 4, ", "");
        assert!(read(&SCALE, &missing).is_err());
    }

    #[test]
    fn cluster_saturation_gates_counts_exactly_and_fairness_at_tolerance() {
        let base = read(&SCALE, &scale_json(1.0, 1024)).unwrap();
        // The deterministic counts must match exactly.
        for (from, to, what) in [
            ("\"tenants\": 4", "\"tenants\": 5", "cluster/tenants"),
            (
                "\"epochs_total\": 12",
                "\"epochs_total\": 11",
                "cluster/epochs_total",
            ),
        ] {
            let drifted = scale_json(1.0, 1024).replace(from, to);
            let fresh = read(&SCALE, &drifted).unwrap();
            let mut out = GateOutcome::default();
            compare(&SCALE, &mut out, &base, &fresh);
            assert!(!out.ok(), "{what} drift must fail the gate");
            assert!(out.regressions.iter().any(|r| r.contains(what)));
        }
        // Fairness spread within tolerance either way: passes.
        for close in ["0.037", "0.045"] {
            let near = scale_json(1.0, 1024).replace(
                "\"fairness_spread\": 0.04",
                &format!("\"fairness_spread\": {close}"),
            );
            let fresh = read(&SCALE, &near).unwrap();
            let mut out = GateOutcome::default();
            compare(&SCALE, &mut out, &base, &fresh);
            assert!(out.ok(), "{close}: {:?}", out.regressions);
        }
        // Beyond tolerance in either direction: fails.
        for far in ["0.06", "0.02"] {
            let drifted = scale_json(1.0, 1024).replace(
                "\"fairness_spread\": 0.04",
                &format!("\"fairness_spread\": {far}"),
            );
            let fresh = read(&SCALE, &drifted).unwrap();
            let mut out = GateOutcome::default();
            compare(&SCALE, &mut out, &base, &fresh);
            assert!(!out.ok(), "spread {far} must fail the gate");
            assert!(out
                .regressions
                .iter()
                .any(|r| r.contains("fairness_spread")));
        }
        // Slow machine: cluster wall tripled — warns, never gates.
        let slow = scale_json(1.0, 1024).replace("\"wall_ms\": 5.0", "\"wall_ms\": 15.0");
        let fresh = read(&SCALE, &slow).unwrap();
        let mut out = GateOutcome::default();
        compare(&SCALE, &mut out, &base, &fresh);
        assert!(out.ok(), "{:?}", out.regressions);
        assert!(out.warnings.iter().any(|w| w.contains("cluster/wall_ms")));
        // Schema: the section is mandatory, closed, and positive.
        let missing = scale_json(1.0, 1024).replace(
            ", \"cluster\": {\"tenants\": 4, \"epochs_total\": 12, \
             \"fairness_spread\": 0.04, \"wall_ms\": 5.0}",
            "",
        );
        assert!(read(&SCALE, &missing).is_err());
        let unknown = scale_json(1.0, 1024).replace("\"wall_ms\"", "\"wall_mz\"");
        assert!(read(&SCALE, &unknown).is_err());
        let zero_spread =
            scale_json(1.0, 1024).replace("\"fairness_spread\": 0.04", "\"fairness_spread\": 0");
        assert!(read(&SCALE, &zero_spread).is_err());
    }

    fn telemetry_json(events_per_round: f64, rounds: u64, emit_ns: f64) -> String {
        format!(
            "{{\"bench\": \"telemetry\", \"events_per_round\": {events_per_round}, \
             \"rounds\": {rounds}, \"emit_wall_ns\": {emit_ns}, \
             \"events_per_sec_wall\": 50000000.0}}"
        )
    }

    #[test]
    fn telemetry_schema_accepts_wellformed_and_rejects_malformed() {
        assert!(read(&TELEMETRY, &telemetry_json(20.0, 8, 25.0)).is_ok());
        let wrong_bench = telemetry_json(20.0, 8, 25.0).replace("telemetry", "other");
        assert!(read(&TELEMETRY, &wrong_bench).is_err());
        let missing = telemetry_json(20.0, 8, 25.0).replace("\"rounds\": 8, ", "");
        assert!(read(&TELEMETRY, &missing).is_err());
        let unknown = telemetry_json(20.0, 8, 25.0).replace("\"rounds\"", "\"roundz\"");
        assert!(read(&TELEMETRY, &unknown).is_err());
        assert!(read(&TELEMETRY, &telemetry_json(0.0, 8, 25.0)).is_err());
    }

    #[test]
    fn telemetry_events_per_round_gates_both_directions() {
        let base = read(&TELEMETRY, &telemetry_json(20.0, 8, 25.0)).unwrap();
        // Within tolerance either way: passes.
        for close in [18.0, 22.0] {
            let fresh = read(&TELEMETRY, &telemetry_json(close, 8, 25.0)).unwrap();
            let mut out = GateOutcome::default();
            compare(&TELEMETRY, &mut out, &base, &fresh);
            assert!(out.ok(), "{close}: {:?}", out.regressions);
        }
        // Instrumentation fell off a path (-25%): fails.
        let lost = read(&TELEMETRY, &telemetry_json(15.0, 8, 25.0)).unwrap();
        let mut out = GateOutcome::default();
        compare(&TELEMETRY, &mut out, &base, &lost);
        assert!(!out.ok());
        // Control plane got chatty (+30%): fails.
        let chatty = read(&TELEMETRY, &telemetry_json(26.0, 8, 25.0)).unwrap();
        let mut out = GateOutcome::default();
        compare(&TELEMETRY, &mut out, &base, &chatty);
        assert!(!out.ok());
        // The deterministic round count must match exactly.
        let drifted = read(&TELEMETRY, &telemetry_json(20.0, 9, 25.0)).unwrap();
        let mut out = GateOutcome::default();
        compare(&TELEMETRY, &mut out, &base, &drifted);
        assert!(!out.ok());
        assert!(out.regressions.iter().any(|r| r.contains("rounds")));
        // Slow machine: emit cost tripled — warns, never gates.
        let slow = read(&TELEMETRY, &telemetry_json(20.0, 8, 75.0)).unwrap();
        let mut out = GateOutcome::default();
        compare(&TELEMETRY, &mut out, &base, &slow);
        assert!(out.ok(), "{:?}", out.regressions);
        assert!(out.warnings.iter().any(|w| w.contains("emit_wall_ns")));
    }

    fn matrix_row(name: &str, passed: bool, rounds: u64, kills: u64) -> String {
        let failures = if passed { "" } else { "\"chain torn\"" };
        format!(
            "{{\"name\": \"{name}\", \"app\": \"ring\", \"vendor\": \"MPICH\", \
             \"passed\": {passed}, \"recovery_rounds\": {rounds}, \"kills\": {kills}, \
             \"epochs\": 3, \"put_retries\": 0, \"stalls\": 0, \"elections\": 0, \
             \"failures\": [{failures}]}}"
        )
    }

    fn matrix_json_doc(rows: &[String]) -> String {
        format!(
            "{{\"spec_scenarios\": 24, \"scenarios\": [{}]}}",
            rows.join(", ")
        )
    }

    fn matrix_base_text() -> String {
        matrix_json_doc(&[
            matrix_row("a-storm", true, 1, 1),
            matrix_row("b-quiet", true, 0, 0),
            matrix_row("c-leader", true, 0, 0),
        ])
    }

    fn matrix_base() -> Json {
        read(&MATRIX, &matrix_base_text()).unwrap()
    }

    #[test]
    fn matrix_schema_accepts_wellformed_and_rejects_malformed() {
        assert!(read(&MATRIX, &matrix_base_text()).is_ok());
        // passed contradicting the failure list is a schema error.
        let lie = matrix_json_doc(&[matrix_row("a", true, 0, 0)])
            .replace("\"failures\": []", "\"failures\": [\"broken\"]");
        assert!(read(&MATRIX, &lie).is_err());
        // Unknown keys, duplicate names, empty rows.
        let rows = vec![matrix_row("a", true, 0, 0)];
        let unknown = matrix_json_doc(&rows).replace("\"kills\"", "\"killz\"");
        assert!(read(&MATRIX, &unknown).is_err());
        let suite = matrix_json_doc(&rows).replace("{\"spec", "{\"suite\": \"full\", \"spec");
        assert!(read(&MATRIX, &suite).is_err());
        let dup = vec![matrix_row("a", true, 0, 0), matrix_row("a", true, 0, 0)];
        assert!(read(&MATRIX, &matrix_json_doc(&dup)).is_err());
        assert!(read(&MATRIX, "{\"spec_scenarios\": 24, \"scenarios\": []}").is_err());
        // More executed rows than the spec declares is a schema error.
        let overfull = matrix_json_doc(&rows).replace("24", "0.5");
        assert!(read(&MATRIX, &overfull).is_err());
    }

    #[test]
    fn matrix_gate_requires_exact_rows_and_pass_states() {
        let base = matrix_base();
        // A re-run that matches exactly passes.
        let fresh = matrix_base();
        let mut out = GateOutcome::default();
        compare(&MATRIX, &mut out, &base, &fresh);
        assert!(out.ok(), "{:?}", out.regressions);
        let gate = |rows: &[String]| {
            let fresh = read(&MATRIX, &matrix_json_doc(rows)).unwrap();
            let mut out = GateOutcome::default();
            compare(&MATRIX, &mut out, &base, &fresh);
            out
        };
        // A failed scenario is a regression naming its failures.
        let out = gate(&[
            matrix_row("a-storm", false, 1, 1),
            matrix_row("b-quiet", true, 0, 0),
            matrix_row("c-leader", true, 0, 0),
        ]);
        assert!(!out.ok());
        assert!(out.regressions.iter().any(|r| r.contains("chain torn")));
        // A missing row fails the row-set check.
        let out = gate(&[
            matrix_row("a-storm", true, 1, 1),
            matrix_row("c-leader", true, 0, 0),
        ]);
        assert!(out.regressions[0].starts_with("matrix: "), "{out:?}");
        // Restart rounds are deterministic and must match exactly.
        let out = gate(&[
            matrix_row("a-storm", true, 2, 1),
            matrix_row("b-quiet", true, 0, 0),
            matrix_row("c-leader", true, 0, 0),
        ]);
        assert!(!out.ok());
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("recovery_rounds")));
        // A row that changes its app is identity drift.
        let out = gate(&[
            matrix_row("a-storm", true, 1, 1).replace("ring", "wave"),
            matrix_row("b-quiet", true, 0, 0),
            matrix_row("c-leader", true, 0, 0),
        ]);
        assert!(out.regressions.iter().any(|r| r.contains("identity drift")));
        // Spec shrinking below the floor fails even if rows match.
        let small = read(&MATRIX, &matrix_base_text().replace("24", "12")).unwrap();
        let mut out = GateOutcome::default();
        compare(&MATRIX, &mut out, &small, &small);
        assert!(!out.ok());
        assert!(out.regressions.iter().any(|r| r.contains("outside [24")));
        // Observation drift (epochs) warns but never gates.
        let fresh = read(
            &MATRIX,
            &matrix_base_text().replacen("\"epochs\": 3", "\"epochs\": 4", 1),
        )
        .unwrap();
        let mut out = GateOutcome::default();
        compare(&MATRIX, &mut out, &base, &fresh);
        assert!(out.ok(), "{:?}", out.regressions);
        assert!(out.warnings.iter().any(|w| w.contains("epochs")));
    }

    #[test]
    fn tree_losing_to_flat_at_max_ranks_fails_the_gate() {
        let base = read(&SCALE, &scale_json(1.0, 1024)).unwrap();
        // Same-run shape check: tree 60 ms vs flat 40 ms at 1024 ranks is
        // beyond the headroom — the topology regressed, whatever the
        // machine.
        let inverted = scale_json(1.0, 1024).replace("\"tree_ms\": 12.0", "\"tree_ms\": 60.0");
        let fresh = read(&SCALE, &inverted).unwrap();
        let mut out = GateOutcome::default();
        compare(&SCALE, &mut out, &base, &fresh);
        assert!(!out.ok());
        assert!(out
            .regressions
            .iter()
            .any(|r| r.contains("lost to the flat barrier")));
        // Tree merely within the headroom (44 ms vs flat 40 ms) passes.
        let close = scale_json(1.0, 1024).replace("\"tree_ms\": 12.0", "\"tree_ms\": 44.0");
        let fresh = read(&SCALE, &close).unwrap();
        let mut out = GateOutcome::default();
        compare(&SCALE, &mut out, &base, &fresh);
        assert!(out.ok(), "{:?}", out.regressions);
    }

    /// The committed figures with one number of one `claims` row (by
    /// vendor) or of the `restart` object replaced.
    fn figs_with(section: &str, vendor: Option<&str>, key: &str, value: f64) -> Json {
        let mut doc =
            parse_json(include_str!("../../../benches/baselines/BENCH_figs.json")).unwrap();
        let Json::Obj(root) = &mut doc else { panic!() };
        let obj = match (root.get_mut(section).unwrap(), vendor) {
            (Json::Obj(obj), None) => obj,
            (Json::Arr(rows), Some(vendor)) => rows
                .iter_mut()
                .find_map(|row| match row {
                    Json::Obj(row) if row["vendor"] == Json::Str(vendor.into()) => Some(row),
                    _ => None,
                })
                .unwrap(),
            _ => panic!("no such section"),
        };
        *obj.get_mut(key).unwrap() = Json::Num(value);
        read(&FIGS, &doc.to_string()).unwrap()
    }

    #[test]
    fn figs_gate_on_any_changed_number() {
        let committed = include_str!("../../../benches/baselines/BENCH_figs.json");
        let base = read(&FIGS, committed).unwrap();
        let mut out = GateOutcome::default();
        compare(&FIGS, &mut out, &base, &base);
        assert!(out.ok() && out.warnings.is_empty(), "{out:?}");
        // The last digit of one latency.
        let moved = committed.replacen("308.9923611111111", "308.9923611111112", 1);
        assert_ne!(moved, committed);
        let mut out = GateOutcome::default();
        compare(&FIGS, &mut out, &base, &read(&FIGS, &moved).unwrap());
        let name = "figs/points/fig2_alltoall/MPICH native/1: ";
        assert!(
            out.regressions.len() == 1 && out.regressions[0].starts_with(name),
            "{out:?}"
        );
        // A point dropped, a point added.
        let line = committed.lines().nth(4).unwrap();
        let dropped = read(&FIGS, &committed.replacen(line, "", 1)).unwrap();
        for (b, f) in [(&base, &dropped), (&dropped, &base)] {
            let mut out = GateOutcome::default();
            compare(&FIGS, &mut out, b, f);
            assert_eq!(out.regressions.len(), 1, "{out:?}");
        }
    }

    #[test]
    fn figs_gate_on_each_of_the_papers_bands() {
        // A baseline refreshed from a model that left the paper's bands
        // agrees with itself, so only the bands can object. Committed:
        // MPICH alltoall 1.65 % at 1 B, 0.14 % at 64 KiB, 3.3 % at most;
        // bcast 3.26 % at 1 B (0.91 % on a modern kernel), 5.0 % at most;
        // allreduce 3.1 % at most; CoMD 1.47 %, wave_mpi 1.45 %.
        fn claims(
            key: &'static str,
            value: f64,
            broken: &'static str,
        ) -> (
            &'static str,
            Option<&'static str>,
            &'static str,
            f64,
            &'static str,
        ) {
            ("claims", Some("MPICH"), key, value, broken)
        }
        for (section, vendor, key, value, broken) in [
            claims("alltoall_1b_pct", 25.0, "alltoall_1b_pct"),
            claims("alltoall_1b_pct", -0.1, "alltoall_1b_pct"),
            claims("alltoall_1b_pct", 0.1, "alltoall_1b_over_large"),
            claims("alltoall_large_pct", 2.0, "alltoall_large_pct"),
            claims("alltoall_large_pct", -2.0, "alltoall_large_pct"),
            claims("alltoall_max_pct", 30.0, "alltoall_max_pct"),
            claims("bcast_max_pct", 30.0, "bcast_max_pct"),
            claims("allreduce_max_pct", 30.0, "allreduce_max_pct"),
            claims(
                "bcast_allreduce_max_pct",
                3.2,
                "bcast_or_allreduce_over_alltoall",
            ),
            claims("bcast_1b_modern_pct", 3.3, "fsgsbase_saving"),
            claims("comd_pct", 10.0, "comd_pct"),
            claims("comd_pct", -0.1, "comd_pct"),
            claims("wave_pct", 5.0, "wave_pct"),
            claims("wave_pct", -0.1, "wave_pct"),
            claims("wave_pct", 3.3, "micro_over_app"),
            ("restart", None, "mpich_dev_pct", 5.0, "mpich_dev_pct"),
            ("restart", None, "store_gap_us", 1e-9, "store_gap_us"),
        ] {
            let doc = figs_with(section, vendor, key, value);
            let mut out = GateOutcome::default();
            compare(&FIGS, &mut out, &doc, &doc);
            let named = |r: &String| r.split(": ").next().unwrap().ends_with(broken);
            assert!(
                out.regressions.iter().any(named),
                "{key} = {value}: {out:?}"
            );
        }
        // Inside every band, at their edges: nothing objects.
        for (key, value) in [
            ("alltoall_1b_pct", 24.9),
            ("comd_pct", 0.0),
            ("wave_pct", 0.0),
        ] {
            let doc = figs_with("claims", Some("MPICH"), key, value);
            let mut out = GateOutcome::default();
            compare(&FIGS, &mut out, &doc, &doc);
            assert!(out.ok(), "{key} = {value}: {out:?}");
        }
    }
}
