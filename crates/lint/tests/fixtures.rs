//! Fixture-workspace integration tests.
//!
//! `tests/fixtures/` holds three mini-workspaces the main lint walk
//! skips (see `skip_dir`): `ws_dirty` seeds at least one violation per
//! rule (and per meta-rule), `ws_clean` exercises every scoping
//! exemption, `ws_pragma` suppresses real violations with justified
//! pragmas in both placements. `tests/fixtures/examples/` holds the
//! good/bad pair behind each `--explain RULE`, linted here through
//! `lint_source` so a doc example that stops (or starts) firing its
//! rule fails the build. On top of those, the self-check lints the
//! *actual* workspace — the tree this file is checked into must be
//! clean, with its justified-pragma count pinned exactly — and the
//! CLI's exit codes and `--json` artifact are pinned via the built
//! binary.

use soc_lint::items::{FileItems, ItemKind};
use soc_lint::lexer::{SourceFile, TokenKind};
use soc_lint::{lint_source, lint_workspace, LintReport};
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> LintReport {
    lint_workspace(&fixture_root(name)).expect("fixture workspace lints")
}

fn render(r: &LintReport) -> String {
    r.findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_finding(r: &LintReport, rule: &str, path: &str, line: u32) {
    assert!(
        r.findings
            .iter()
            .any(|f| f.rule == rule && f.path == path && f.line == line),
        "expected [{rule}] at {path}:{line}; findings were:\n{}",
        render(r)
    );
}

#[test]
fn dirty_fixture_fires_every_rule() {
    let r = lint_fixture("ws_dirty");
    let lib = "crates/engine/src/lib.rs";
    // no-wall-clock: both the Instant::now and SystemTime forms.
    assert_finding(&r, "no-wall-clock", lib, 6);
    assert_finding(&r, "no-wall-clock", lib, 7);
    // no-unordered-iter: method call and for-in loop.
    assert_finding(&r, "no-unordered-iter", lib, 12);
    assert_finding(&r, "no-unordered-iter", lib, 14);
    assert_finding(&r, "no-unstable-sort", lib, 22);
    // rng-stream-discipline: ad-hoc seeding and entropy RNG.
    assert_finding(&r, "rng-stream-discipline", lib, 26);
    assert_finding(&r, "rng-stream-discipline", lib, 27);
    // env-knob-registry, read side: a direct env::var of an SOC_ name is
    // two findings — the bypass of knobs::raw and the missing declaration.
    assert_finding(&r, "env-knob-registry", lib, 32);
    assert_eq!(
        r.findings
            .iter()
            .filter(|f| f.rule == "env-knob-registry" && f.path == lib && f.line == 32)
            .count(),
        2,
        "direct undeclared read is both a bypass and an undeclared knob"
    );
    // env-knob-registry, declaration side.
    let knobs = "crates/types/src/knobs.rs";
    assert_finding(&r, "env-knob-registry", knobs, 5); // no README table
    assert_finding(&r, "env-knob-registry", knobs, 9); // duplicate + undocumented
    assert_finding(&r, "env-knob-registry", knobs, 13); // not SOC_UPPER_SNAKE

    // fingerprint-coverage: unencoded field + missing exclusion list.
    let report = "crates/soc/src/report.rs";
    assert_finding(&r, "fingerprint-coverage", report, 1);
    assert_finding(&r, "fingerprint-coverage", report, 8);
    // ignored-test-wiring: no ci.yml exists to run the suite.
    assert_finding(
        &r,
        "ignored-test-wiring",
        "crates/engine/tests/ignored.rs",
        4,
    );
    // no-shared-mut-state: static mut and thread_local! — and not the
    // RefCell inside the latter.
    let shard = "crates/engine/src/shard_state.rs";
    assert_finding(&r, "no-shared-mut-state", shard, 4);
    assert_finding(&r, "no-shared-mut-state", shard, 6);
    // float-reduce-order: unordered sum, unresolvable callee, float-seeded
    // fold, += accumulation fed by an unordered loop source.
    let float = "crates/engine/src/float.rs";
    assert_finding(&r, "float-reduce-order", float, 4);
    assert_finding(&r, "float-reduce-order", float, 8);
    assert_finding(&r, "float-reduce-order", float, 12);
    assert_finding(&r, "float-reduce-order", float, 18);
    // rng-stream-ownership, declaration side: unowned variant (flagged at
    // the variant), duplicate entry, empty owner, phantom variant name.
    let rng = "crates/simcore/src/rng.rs";
    assert_finding(&r, "rng-stream-ownership", rng, 7);
    assert_finding(&r, "rng-stream-ownership", rng, 13);
    assert_finding(&r, "rng-stream-ownership", rng, 14);
    assert_finding(&r, "rng-stream-ownership", rng, 15);
    // rng-stream-ownership, use side: drawing another crate's stream and
    // drawing a test-only stream from sim code.
    let other = "crates/other/src/lib.rs";
    assert_finding(&r, "rng-stream-ownership", other, 5);
    assert_finding(&r, "rng-stream-ownership", other, 9);
    // Meta-rules: malformed, unknown-rule, unused.
    let bad = "crates/engine/src/bad_pragmas.rs";
    assert_finding(&r, "malformed-pragma", bad, 4); // missing -- reason
    assert_finding(&r, "malformed-pragma", bad, 9); // typo'd keyword
    assert_finding(&r, "unknown-rule", bad, 12);
    assert_finding(&r, "unused-pragma", bad, 12); // unknown rule suppresses nothing
    assert_finding(&r, "unused-pragma", bad, 15);
    // Nothing unexpected beyond the seeded set.
    assert_eq!(r.findings.len(), 39, "findings were:\n{}", render(&r));
    assert_eq!(r.suppressed, 0);
    assert!(!r.clean());
}

/// The acceptance bar for suppression hygiene: a pragma without a
/// `-- reason` both fails to suppress the violation it targets *and*
/// is a finding itself.
#[test]
fn reasonless_pragma_does_not_suppress() {
    let r = lint_fixture("ws_dirty");
    let bad = "crates/engine/src/bad_pragmas.rs";
    assert_finding(&r, "malformed-pragma", bad, 4);
    assert_finding(&r, "no-unstable-sort", bad, 6);
}

#[test]
fn clean_fixture_is_clean() {
    let r = lint_fixture("ws_clean");
    assert!(r.clean(), "findings were:\n{}", render(&r));
    // bench wall clock, a sim-crate Cell, cfg(test) iteration and
    // thread_local!, testkit.rs seeding, tests/ tree (incl. a test-only
    // stream draw),
    // registry env::var site, owner-crate stream draws, float reductions
    // the item graph proves ordered: all exempt by scope or resolution,
    // none suppressed.
    assert_eq!(r.suppressed, 0);
    assert_eq!(r.files_scanned, 10);
}

#[test]
fn pragma_fixture_suppresses_with_justifications() {
    let r = lint_fixture("ws_pragma");
    assert!(r.clean(), "findings were:\n{}", render(&r));
    // wall clock, for-in iteration (standalone pragma), unstable sort and
    // ad-hoc seeding (trailing pragmas), static mut, an unordered float
    // sum (one pragma naming two rules), an unowned stream variant.
    assert_eq!(r.suppressed, 8);
    assert_eq!(r.pragma_sites, 7, "the 2-rule pragma is a single site");
    for rule in [
        "no-shared-mut-state",
        "rng-stream-ownership",
        "float-reduce-order",
    ] {
        assert!(
            r.suppressed_by_rule
                .iter()
                .any(|(r2, n)| *r2 == rule && *n >= 1),
            "expected a suppression for {rule}; got {:?}",
            r.suppressed_by_rule
        );
    }
}

/// The workspace this file is checked into must lint clean: every
/// surviving `HashMap` iteration, wall-clock read, unstable sort and
/// ad-hoc RNG seed carries a justified pragma, every knob is declared and documented, every stream has an
/// owner, every `#[ignore]` suite is wired into CI. The suppression count
/// is pinned *exactly*: adding a pragma anywhere in the tree must show up
/// here as a conscious diff.
#[test]
fn actual_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let r = lint_workspace(&root).expect("workspace lints");
    assert!(r.clean(), "workspace findings:\n{}", render(&r));
    assert!(
        r.files_scanned > 50,
        "walk saw only {} files",
        r.files_scanned
    );
    assert_eq!(
        r.suppressed, 6,
        "justified-pragma count changed; re-justify and re-pin (per rule: {:?})",
        r.suppressed_by_rule
    );
    assert_eq!(r.pragma_sites, 6, "one pragma per suppressed site");
}

/// The guard behind "adding an `RngStreams` variant without an owner
/// fails the lint's own tests": parse the *real* registry with the item
/// layer and check the declared owner map is exhaustive, duplicate-free
/// and phantom-free. The workspace self-check above already fails on
/// any of these via the rule; this additionally pins the item parser
/// actually seeing the real enum, so the rule cannot pass vacuously.
#[test]
fn real_stream_owner_map_is_exhaustive() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join(soc_lint::RNG_PATH)).expect("real rng.rs exists");
    let sf = SourceFile::parse(&text);
    let items = FileItems::parse(&sf);
    let en = items
        .find(ItemKind::Enum, "RngStreams")
        .expect("item parser resolves the real RngStreams enum");
    assert!(
        en.variants.len() >= 10,
        "expected the full stream set, got {:?}",
        en.variants.iter().map(|v| &v.name).collect::<Vec<_>>()
    );
    let owners = soc_lint::shard::stream_owners(&sf);
    assert!(owners.declared, "STREAM_OWNERS missing from the registry");
    for v in &en.variants {
        assert_eq!(
            owners
                .entries
                .iter()
                .filter(|(n, _, _)| n == &v.name)
                .count(),
            1,
            "RngStreams::{} needs exactly one STREAM_OWNERS entry",
            v.name
        );
    }
    for (name, owner, _) in &owners.entries {
        assert!(
            en.variants.iter().any(|v| &v.name == name),
            "STREAM_OWNERS names phantom variant {name}"
        );
        assert!(!owner.is_empty(), "empty owner for {name}");
    }
}

/// Lexer edge cases, table-driven: each source must lex without losing
/// real tokens to comment/string confusion, leaking string contents as
/// code, or minting phantom pragmas.
#[test]
fn lexer_edge_cases() {
    struct Case {
        name: &'static str,
        src: &'static str,
        /// Idents that must survive lexing as code.
        want_idents: &'static [&'static str],
        /// Idents that must NOT appear (swallowed by strings/comments).
        not_idents: &'static [&'static str],
        /// Expected number of parsed pragmas.
        pragmas: usize,
    }
    let cases = [
        Case {
            name: "raw string",
            src: r###"fn f() { let s = r#"no code "quotes" here: Instant::now()"#; use_it(s); }"###,
            want_idents: &["use_it"],
            not_idents: &["Instant", "now", "quotes"],
            pragmas: 0,
        },
        Case {
            name: "raw string with more hashes",
            src: "fn f() -> &'static str { r##\"aa \"# bb\"## }",
            want_idents: &["f"],
            not_idents: &["aa", "bb"],
            pragmas: 0,
        },
        Case {
            name: "nested block comments",
            src: "fn g() { /* outer /* inner SystemTime */ still comment */ real(); }",
            want_idents: &["real"],
            not_idents: &["SystemTime", "inner", "still"],
            pragmas: 0,
        },
        Case {
            name: "pragma inside a string is not a pragma",
            src: "fn h() { let s = \"// soc-lint: allow(no-wall-clock) -- fake\"; emit(s); }",
            want_idents: &["emit"],
            not_idents: &[],
            pragmas: 0,
        },
        Case {
            name: "pragma inside a block comment is not a pragma",
            src: "/* soc-lint: allow(no-wall-clock) -- commented out */\nfn i() {}",
            want_idents: &["i"],
            not_idents: &[],
            pragmas: 0,
        },
        Case {
            name: "real pragma next to a string decoy",
            src: "// soc-lint: allow(no-unstable-sort) -- keys unique\nfn j() { s(\"// soc-lint: allow(no-wall-clock) -- decoy\"); }",
            want_idents: &["j", "s"],
            not_idents: &[],
            pragmas: 1,
        },
        Case {
            name: "byte and escaped strings",
            src: r#"fn k() { let b = b"Instant"; let e = "esc \" Instant::now"; keep(b, e); }"#,
            want_idents: &["keep"],
            not_idents: &["Instant"],
            pragmas: 0,
        },
    ];
    for c in cases {
        let sf = SourceFile::parse(c.src);
        let idents: Vec<&str> = sf
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        for w in c.want_idents {
            assert!(
                idents.contains(w),
                "[{}] missing ident {w}: {idents:?}",
                c.name
            );
        }
        for n in c.not_idents {
            assert!(
                !idents.contains(n),
                "[{}] leaked ident {n}: {idents:?}",
                c.name
            );
        }
        assert_eq!(sf.pragmas.len(), c.pragmas, "[{}] pragma count", c.name);
    }
}

/// Every rule's `--explain` example pair is linted for real: the bad
/// side fires its rule, the good side does not — so the examples can
/// never rot. Also pins exactly one explanation bundle per registered
/// rule.
#[test]
fn explain_examples_are_live() {
    let explained: Vec<&str> = soc_lint::explain::EXPLAINS.iter().map(|e| e.rule).collect();
    for (rule, _) in soc_lint::RULES {
        assert!(explained.contains(rule), "no --explain entry for {rule}");
    }
    assert_eq!(explained.len(), soc_lint::RULES.len());
    for e in soc_lint::explain::EXPLAINS {
        let bad = lint_source(e.rel, e.bad);
        assert!(
            bad.findings.iter().any(|f| f.rule == e.rule),
            "[{}] bad example does not fire its rule; findings:\n{}",
            e.rule,
            render(&bad)
        );
        let good = lint_source(e.rel, e.good);
        assert!(
            good.findings.iter().all(|f| f.rule != e.rule),
            "[{}] good example fires its own rule; findings:\n{}",
            e.rule,
            render(&good)
        );
    }
}

/// The README's soc-lint rules table is generated from `RULES` and must
/// stay byte-identical — same mechanism as the env-knob table.
#[test]
fn readme_rules_table_matches_registry() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("workspace README");
    let table = soc_lint::markdown_rules_table();
    assert!(
        readme.contains(&table),
        "README soc-lint rules table out of date; regenerate with \
         soc_lint::markdown_rules_table():\n{table}"
    );
}

/// CI runs the binary, so pin its exit codes: non-zero (with
/// diagnostics and the per-rule summary on stdout) for a seeded
/// violation, zero for a clean tree.
#[test]
fn cli_exit_codes_gate_ci() {
    let dirty = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
        .arg("--root")
        .arg(fixture_root("ws_dirty"))
        .output()
        .expect("soc-lint runs");
    assert!(!dirty.status.success(), "dirty fixture must fail the build");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(stdout.contains("[no-wall-clock]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("crates/engine/src/lib.rs:6"),
        "stdout:\n{stdout}"
    );
    assert!(stdout.contains("per-rule summary:"), "stdout:\n{stdout}");

    let clean = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
        .arg("--root")
        .arg(fixture_root("ws_clean"))
        .output()
        .expect("soc-lint runs");
    assert!(clean.status.success(), "clean fixture must pass");
}

/// `--json PATH` writes machine-readable findings through the
/// hand-rolled `soc_sim::json` emitter; pin the shape by parsing it
/// back with the same module.
#[test]
fn cli_json_artifact_round_trips() {
    let out = std::env::temp_dir().join(format!("soc-lint-{}.json", std::process::id()));
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
        .arg("--root")
        .arg(fixture_root("ws_dirty"))
        .arg("--json")
        .arg(&out)
        .output()
        .expect("soc-lint runs");
    assert!(
        !run.status.success(),
        "dirty fixture still fails with --json"
    );
    let text = std::fs::read_to_string(&out).expect("json artifact written");
    std::fs::remove_file(&out).ok();
    let v = soc_sim::json::parse(&text).expect("artifact parses");
    assert_eq!(v.get("clean").and_then(|x| x.as_bool()), Some(false));
    assert_eq!(v.get("files_scanned").and_then(|x| x.as_u64()), Some(9));
    let findings = v
        .get("findings")
        .and_then(|x| x.as_array())
        .expect("findings array");
    assert_eq!(findings.len(), 39);
    assert!(findings.iter().any(|f| {
        f.get("rule").and_then(|x| x.as_str()) == Some("float-reduce-order")
            && f.get("path").and_then(|x| x.as_str()) == Some("crates/engine/src/float.rs")
    }));
    // The per-rule block names every registered + meta rule.
    let rules = v
        .get("rules")
        .and_then(|x| x.as_array())
        .expect("rules array");
    assert_eq!(
        rules.len(),
        soc_lint::RULES.len() + soc_lint::META_RULES.len()
    );
}

/// `--explain` renders rationale + both examples for every rule, and
/// rejects unknown rule names.
#[test]
fn cli_explain_renders_every_rule() {
    for (rule, _) in soc_lint::RULES {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
            .arg("--explain")
            .arg(rule)
            .output()
            .expect("soc-lint runs");
        assert!(out.status.success(), "--explain {rule} failed");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(rule), "--explain {rule} output:\n{text}");
        assert!(text.contains("bad (fires the rule)"), "{text}");
        assert!(text.contains("good (lints clean)"), "{text}");
    }
    let unknown = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
        .arg("--explain")
        .arg("no-such-rule")
        .output()
        .expect("soc-lint runs");
    assert!(!unknown.status.success());
}
