//! `stoolint` battery: per-rule fixtures (violating, suppressed, and
//! clean forms) with exact spans, manifest checking, exit-code
//! semantics, and — the self-enforcing acceptance test — a clean run
//! over this very repository.

use mpi_stool::sanity::lint::{default_rules, lint_manifest, lint_source, lint_tree};

fn findings_for(path: &str, source: &str) -> Vec<(String, u32, u32)> {
    lint_source(path, source, &default_rules())
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line, f.col))
        .collect()
}

// -------------------------------------------------------------------------
// no-eprintln
// -------------------------------------------------------------------------

#[test]
fn no_eprintln_fires_with_exact_span() {
    let src = "fn f() {\n    eprintln!(\"boom\");\n}\n";
    assert_eq!(
        findings_for("crates/foo/src/a.rs", src),
        vec![("no-eprintln".to_string(), 2, 5)]
    );
}

#[test]
fn no_eprintln_suppressed_by_lint_allow() {
    let src = "fn f() {\n    // lint:allow(no-eprintln) — gate output\n    eprintln!(\"ok\");\n}\n";
    assert!(findings_for("crates/foo/src/a.rs", src).is_empty());
}

#[test]
fn no_eprintln_ignores_strings_and_test_mods() {
    // The macro name inside a string literal is not an invocation.
    let in_string = "fn f() { let s = \"eprintln!(no)\"; }\n";
    assert!(findings_for("crates/foo/src/a.rs", in_string).is_empty());

    // `#[cfg(test)] mod` bodies are exempt (skip_tests rule).
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { eprintln!(\"t\"); }\n}\n";
    assert!(findings_for("crates/foo/src/a.rs", in_test).is_empty());
}

// -------------------------------------------------------------------------
// no-sleep-poll
// -------------------------------------------------------------------------

#[test]
fn no_sleep_poll_flags_raw_os_sleep_only() {
    // A raw OS sleep on a hot path fires...
    let raw = "fn f(d: Duration) {\n    std::thread::sleep(d);\n}\n";
    assert_eq!(
        findings_for("crates/simnet/src/x.rs", raw),
        vec![("no-sleep-poll".to_string(), 2, 10)]
    );

    // ...but a method named `sleep` does not: `c.sleep(d)` is a method
    // call, not the `thread::sleep` path.
    let via_clock = "fn f(c: &dyn Clock, d: Duration) {\n    c.sleep(d);\n}\n";
    assert!(findings_for("crates/simnet/src/x.rs", via_clock).is_empty());

    // The rule is scoped to the simnet/dmtcp hot paths.
    let elsewhere = "fn f(d: Duration) {\n    std::thread::sleep(d);\n}\n";
    assert!(findings_for("crates/bench/src/x.rs", elsewhere).is_empty());
}

#[test]
fn no_sleep_poll_flags_spinning() {
    let spin = "fn f() {\n    std::hint::spin_loop();\n}\n";
    assert_eq!(
        findings_for("crates/dmtcp/src/x.rs", spin),
        vec![("no-sleep-poll".to_string(), 2, 10)]
    );
}

// -------------------------------------------------------------------------
// no-alloc-in-emit
// -------------------------------------------------------------------------

#[test]
fn no_alloc_in_emit_is_region_scoped() {
    let src = "\
fn emit(&self, v: u64) {
    let label = format!(\"pre\"); // fine: outside the region
    // lint:region-start(no-alloc-in-emit)
    self.buf.push(v);
    // lint:region-end(no-alloc-in-emit)
    self.done.push(label); // fine again: region closed
}
";
    assert_eq!(
        findings_for("crates/simnet/src/t.rs", src),
        vec![("no-alloc-in-emit".to_string(), 4, 14)]
    );
}

// -------------------------------------------------------------------------
// guard-across-barrier
// -------------------------------------------------------------------------

#[test]
fn guard_across_barrier_receiver_evaluated_first_form() {
    // The PR 6 deadlock, verbatim shape: the lock guard (receiver) is
    // evaluated before `session.finish()` parks in the barrier.
    let src = "fn f() {\n    results.lock().unwrap().push(session.finish());\n}\n";
    let hits = findings_for("tests/battery.rs", src);
    assert_eq!(hits, vec![("guard-across-barrier".to_string(), 2, 42)]);
}

#[test]
fn guard_across_barrier_live_let_binding_form() {
    let src = "\
fn f() {
    let st = slots.lock().unwrap();
    session.finish();
}
";
    let hits = findings_for("crates/dmtcp/src/x.rs", src);
    assert_eq!(hits, vec![("guard-across-barrier".to_string(), 3, 13)]);
}

#[test]
fn guard_across_barrier_clean_forms_pass() {
    // Bind the outcome first, lock second: the fixed PR 6 shape.
    let fixed =
        "fn f() {\n    let out = session.finish();\n    results.lock().unwrap().push(out);\n}\n";
    assert!(findings_for("tests/battery.rs", fixed).is_empty());

    // An explicit drop releases the guard before the barrier.
    let dropped = "\
fn f() {
    let st = slots.lock().unwrap();
    drop(st);
    session.finish();
}
";
    assert!(findings_for("crates/dmtcp/src/x.rs", dropped).is_empty());

    // A scope-bounded guard is dead by the time the barrier runs.
    let scoped = "\
fn f() {
    {
        let st = slots.lock().unwrap();
        st.len();
    }
    session.finish();
}
";
    assert!(findings_for("crates/dmtcp/src/x.rs", scoped).is_empty());
}

// -------------------------------------------------------------------------
// one-persistence-path
// -------------------------------------------------------------------------

const PERSIST: &str = "\
fn save(p: &Path, q: &Path, b: &[u8]) {
    std::fs::write(p, b).unwrap();
    let f = File::create(p);
    std::fs::rename(p, q);
}
";

#[test]
fn one_persistence_path_fires_outside_the_store() {
    let rule = "one-persistence-path".to_string();
    for path in [
        "crates/dmtcp/src/image.rs",
        "crates/mana/src/ckpt.rs",
        "crates/core/src/session.rs",
    ] {
        assert_eq!(
            findings_for(path, PERSIST),
            vec![
                (rule.clone(), 2, 10),
                (rule.clone(), 3, 13),
                (rule.clone(), 4, 10)
            ],
            "{path}"
        );
    }
    // Tooling and benches are outside the rule's scope.
    assert!(findings_for("crates/bench/src/gate.rs", PERSIST).is_empty());
}

const READS: &str = "\
fn load(p: &Path) {
    let f = File::open(p);
    let b = std::fs::read(p);
    std::fs::read_dir(p);
    std::fs::remove_file(p);
    std::fs::remove_dir_all(p);
    std::fs::metadata(p);
}
";

#[test]
fn one_persistence_path_fires_in_the_store_on_reads_and_removals_too() {
    let rule = "one-persistence-path".to_string();
    let at = |spots: &[(u32, u32)]| -> Vec<(String, u32, u32)> {
        spots.iter().map(|&(l, c)| (rule.clone(), l, c)).collect()
    };
    for path in [
        "crates/dmtcp/src/store/delta.rs",
        "crates/dmtcp/src/store/hydrate.rs",
        "crates/core/src/session.rs",
    ] {
        assert_eq!(
            findings_for(path, PERSIST),
            at(&[(2, 10), (3, 13), (4, 10)]),
            "{path}"
        );
        assert_eq!(
            findings_for(path, READS),
            at(&[(2, 13), (3, 18), (4, 10), (5, 10), (6, 10), (7, 10)]),
            "{path}"
        );
    }
}

#[test]
fn one_persistence_path_is_silent_in_the_tier() {
    assert!(findings_for("crates/dmtcp/src/tier.rs", PERSIST).is_empty());
    assert!(findings_for("crates/dmtcp/src/tier.rs", READS).is_empty());
}

#[test]
fn one_persistence_path_is_silent_in_a_test_module() {
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{PERSIST}}}\n");
    assert!(findings_for("crates/dmtcp/src/coordinator.rs", &in_test).is_empty());
}

// -------------------------------------------------------------------------
// one-run-path
// -------------------------------------------------------------------------

const WIRING: &str = "\
fn wire(p: &StorePolicy, t: &SharedTier) {
    let mut s = p.open_store_scripted(&[], &[]).unwrap();
    s.attach_shared_tier(t, \"ns\");
    let w = SharedStoreWriter::spawn_stores(vec![s]);
    World::run_plan(spec, fabric, eps, plan, f);
}
";

#[test]
fn one_run_path_fires_in_core_outside_the_session() {
    let rule = "one-run-path".to_string();
    assert_eq!(
        findings_for("crates/core/src/cluster.rs", WIRING),
        vec![
            (rule.clone(), 2, 19),
            (rule.clone(), 3, 7),
            (rule.clone(), 4, 13),
            (rule.clone(), 5, 5)
        ]
    );
    // Other crates build their own stores and worlds.
    assert!(findings_for("crates/dmtcp/src/store/writer.rs", WIRING).is_empty());
    assert!(findings_for("crates/simnet/src/world.rs", WIRING).is_empty());
}

#[test]
fn one_run_path_is_silent_in_the_session_and_in_a_test_module() {
    assert!(findings_for("crates/core/src/session.rs", WIRING).is_empty());
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{WIRING}}}\n");
    assert!(findings_for("crates/core/src/cluster.rs", &in_test).is_empty());
}

// -------------------------------------------------------------------------
// no-free-running-harness
// -------------------------------------------------------------------------

const FREE_RUNNING: &str = "\
fn drive(done: &AtomicBool) {
    while !done.load(SeqCst) {
        std::thread::yield_now();
    }
    thread::sleep(Duration::from_millis(2));
}
";

#[test]
fn no_free_running_harness_fires_in_integration_tests() {
    let rule = "no-free-running-harness".to_string();
    for path in [
        "tests/coordinator_stress.rs",
        "crates/mana/tests/ckpt_restart.rs",
    ] {
        assert_eq!(
            findings_for(path, FREE_RUNNING),
            vec![(rule.clone(), 3, 14), (rule.clone(), 5, 5)],
            "{path}"
        );
    }
    // Library code and benches are other rules' business.
    assert!(findings_for("crates/apps/src/wave.rs", FREE_RUNNING).is_empty());
    assert!(findings_for("crates/bench/benches/scale.rs", FREE_RUNNING).is_empty());
}

#[test]
fn no_free_running_harness_suppressed_wait_names_its_condition() {
    let src = "\
fn wait(done: &AtomicBool) {
    while !done.load(SeqCst) {
        // lint:allow(no-free-running-harness) — waits until the peer sets done
        std::thread::yield_now();
    }
}
";
    assert!(findings_for("tests/battery.rs", src).is_empty());
}

#[test]
fn no_free_running_harness_clean_forms_pass() {
    // A barrier or a virtual-clock sleep is not the OS schedule.
    let clean = "\
fn step(gate: &Barrier, app: &mut AppCtx) {
    gate.wait();
    app.sleep(VirtualTime::from_millis(1));
}
";
    assert!(findings_for("tests/battery.rs", clean).is_empty());
}

// -------------------------------------------------------------------------
// one-payload-path
// -------------------------------------------------------------------------

#[test]
fn one_payload_path_fires_in_an_algorithm_and_nowhere_else() {
    let send = "\
fn f(p: &mut P, buf: &[u8]) {
    p.coll_send(info, 1, TAG, Bytes::copy_from_slice(buf))?;
}
";
    let rule = "one-payload-path".to_string();
    assert_eq!(
        findings_for("crates/simnet/src/mpi/algos.rs", send),
        vec![(rule, 2, 31)]
    );
    // The pool itself, the transport below it and a test module may.
    assert!(findings_for("crates/simnet/src/mpi/process.rs", send).is_empty());
    assert!(findings_for("crates/simnet/src/fabric.rs", send).is_empty());
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{send}}}\n");
    assert!(findings_for("crates/simnet/src/mpi/algos.rs", &in_test).is_empty());
    // A payload moved in from a `Vec` bypasses the pool as well.
    let moved = "\
fn f(p: &mut P, acc: Vec<u8>) {
    p.xsend(info, true, 0, TAG, Bytes::from(acc))?;
}
";
    assert_eq!(
        findings_for("crates/simnet/src/mpi/coll.rs", moved),
        vec![("one-payload-path".to_string(), 2, 33)]
    );
    assert!(findings_for("crates/simnet/src/mpi/process.rs", moved).is_empty());
}

// -------------------------------------------------------------------------
// shims-only-deps (manifests)
// -------------------------------------------------------------------------

#[test]
fn shims_only_deps_flags_registry_dependencies() {
    let bad = "\
[package]
name = \"x\"

[dependencies]
serde = \"1\"
";
    let hits = lint_manifest("crates/x/Cargo.toml", bad);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rule, "shims-only-deps");
    assert_eq!(hits[0].line, 5);

    let good = "\
[package]
name = \"x\"

[dependencies]
simnet = { workspace = true }
loom = { path = \"../../shims/loom\" }

[dependencies.tracing]
path = \"../tracing\"
";
    assert!(lint_manifest("crates/x/Cargo.toml", good).is_empty());
}

// -------------------------------------------------------------------------
// Exit codes + whole-tree acceptance
// -------------------------------------------------------------------------

#[test]
fn exit_codes_mirror_benchgate_semantics() {
    let dir = std::env::temp_dir().join(format!("stoolint-fixture-{}", std::process::id()));
    let src_dir = dir.join("crates/seeded/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "fn f() {\n    eprintln!(\"seeded violation\");\n}\n",
    )
    .unwrap();

    let report = lint_tree(&dir).unwrap();
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.exit_code(), 2, "violations exit 2");

    std::fs::write(src_dir.join("lib.rs"), "fn f() {}\n").unwrap();
    let report = lint_tree(&dir).unwrap();
    assert!(report.findings.is_empty());
    assert_eq!(report.exit_code(), 0, "clean tree exits 0");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lines_by_crate_counts_code_lines_outside_test_modules() {
    let dir = std::env::temp_dir().join(format!("stoolint-lines-{}", std::process::id()));
    let lib = "//! A doc comment.\n\nfn f() {}\nfn g() {} // trailing comment\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
    for krate in ["crates/seeded/src", "crates/seeded/tests", "src"] {
        std::fs::create_dir_all(dir.join(krate)).unwrap();
        std::fs::write(dir.join(krate).join("lib.rs"), lib).unwrap();
    }

    let report = lint_tree(&dir).unwrap();
    let counted: Vec<(&str, usize)> = report
        .lines_by_crate
        .iter()
        .map(|(name, lines)| (name.as_str(), *lines))
        .collect();
    assert_eq!(
        counted,
        [("crates/seeded", 2), ("src", 2)],
        "two code lines per library; a crate's tests/ is not library code"
    );
    assert!(report
        .to_json()
        .contains("\"lines_by_crate\":{\"crates/seeded\":2,\"src\":2}"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The size ratchet: the tree's library total may not exceed the
/// committed `benches/baselines/lines_by_crate.json` (ROADMAP aim 2 —
/// the number goes down, or a PR says why not by raising the file;
/// docs/ci.md has the one-liner that rewrites it).
#[test]
fn library_line_count_does_not_exceed_the_committed_ceiling() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed =
        std::fs::read_to_string(root.join("benches/baselines/lines_by_crate.json")).unwrap();
    // One flat `{"crate": lines, …}` object, as `stoolint` prints it:
    // every colon is followed by a count.
    let ceiling: usize = committed
        .split(':')
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits
                .parse::<usize>()
                .expect("a line count after each colon")
        })
        .sum();
    let counted = lint_tree(root).unwrap().lines_by_crate;
    let total: usize = counted.values().sum();
    assert!(
        total <= ceiling,
        "library code grew to {total} lines, the committed ceiling is {ceiling}: {counted:?}"
    );
}

/// The acceptance criterion, self-enforced: the repository this test
/// ships in must lint clean. A PR that reintroduces a banned pattern
/// fails here even before CI runs the binary.
#[test]
fn this_repository_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_tree(root).unwrap();
    assert!(
        report.findings.is_empty(),
        "stoolint must pass on the shipped tree:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.exit_code(), 0);
}
