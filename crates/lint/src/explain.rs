//! `soc-lint --explain RULE`: rationale plus a minimal good/bad example
//! pair per rule. The examples are the *actual fixture files* under
//! `tests/fixtures/examples/<rule>/{good,bad}.rs`, pulled in with
//! `include_str!` and linted by the test suite through
//! [`crate::lint_source`] — so an example that stops (or starts) firing
//! its rule fails the build rather than rotting in the docs.

/// One rule's explanation bundle.
pub struct Explain {
    pub rule: &'static str,
    /// Why the rule exists, in terms of the invariant it protects.
    pub rationale: &'static str,
    /// Workspace-relative path the examples are linted under — the
    /// path-pinned rules (registry, report, rng, runner) need the right
    /// location to fire at all.
    pub rel: &'static str,
    /// Example that lints clean for this rule.
    pub good: &'static str,
    /// Example that fires this rule at least once.
    pub bad: &'static str,
}

/// One entry per [`crate::RULES`] row (tested for exact coverage).
pub const EXPLAINS: &[Explain] = &[
    Explain {
        rule: "no-wall-clock",
        rationale: "Wall time is never simulation state: a run's behaviour may depend only on \
                    its seed and scenario, or record/replay and the bitwise fingerprint pins \
                    break. Instant::now/SystemTime are allowed only in crates/bench, where \
                    measuring the host is the whole point.",
        rel: "crates/soc/src/example.rs",
        good: include_str!("../tests/fixtures/examples/no-wall-clock/good.rs"),
        bad: include_str!("../tests/fixtures/examples/no-wall-clock/bad.rs"),
    },
    Explain {
        rule: "no-unordered-iter",
        rationale: "HashMap/HashSet iteration order is arbitrary per process, so any sim-path \
                    loop over one feeds nondeterminism straight into the fingerprint. Keyed \
                    lookups are fine; iteration must use a BTree collection or sorted keys.",
        rel: "crates/soc/src/example.rs",
        good: include_str!("../tests/fixtures/examples/no-unordered-iter/good.rs"),
        bad: include_str!("../tests/fixtures/examples/no-unordered-iter/bad.rs"),
    },
    Explain {
        rule: "no-unstable-sort",
        rationale: "sort_unstable* reorders equal keys unpredictably with respect to input \
                    order. On a sim path that is only sound when keys are unique — which is \
                    exactly what a suppressing pragma's reason must state.",
        rel: "crates/soc/src/example.rs",
        good: include_str!("../tests/fixtures/examples/no-unstable-sort/good.rs"),
        bad: include_str!("../tests/fixtures/examples/no-unstable-sort/bad.rs"),
    },
    Explain {
        rule: "rng-stream-discipline",
        rationale: "Replay soundness requires every RNG to be derived as stream_rng(seed, \
                    RngStreams::..): entropy seeding breaks replay outright, and ad-hoc \
                    SmallRng seeding creates streams whose draws collide with declared ones.",
        rel: "crates/soc/src/example.rs",
        good: include_str!("../tests/fixtures/examples/rng-stream-discipline/good.rs"),
        bad: include_str!("../tests/fixtures/examples/rng-stream-discipline/bad.rs"),
    },
    Explain {
        rule: "env-knob-registry",
        rationale: "Every SOC_* environment knob must be declared and documented once in \
                    soc_types::knobs and read through it — undeclared knobs are invisible \
                    configuration that silently forks behaviour between machines.",
        rel: "crates/lint/src/example.rs",
        good: include_str!("../tests/fixtures/examples/env-knob-registry/good.rs"),
        bad: include_str!("../tests/fixtures/examples/env-knob-registry/bad.rs"),
    },
    Explain {
        rule: "fingerprint-coverage",
        rationale: "RunReport::fingerprint is the bitwise pin every optimisation axis is \
                    verified against. A field that is neither encoded nor listed in \
                    FINGERPRINT_EXCLUDED is a hole in that pin: exclusions are declarations, \
                    not comments.",
        rel: "crates/soc/src/report.rs",
        good: include_str!("../tests/fixtures/examples/fingerprint-coverage/good.rs"),
        bad: include_str!("../tests/fixtures/examples/fingerprint-coverage/bad.rs"),
    },
    Explain {
        rule: "ignored-test-wiring",
        rationale: "An #[ignore] suite that no CI job runs never runs anywhere. The nightly \
                    cron of .github/workflows/ci.yml must call `cargo tier2` (every ignored \
                    test of the workspace) or name the file's stem.",
        rel: "crates/soc/tests/slow_suite.rs",
        good: include_str!("../tests/fixtures/examples/ignored-test-wiring/good.rs"),
        bad: include_str!("../tests/fixtures/examples/ignored-test-wiring/bad.rs"),
    },
    Explain {
        rule: "no-shared-mut-state",
        rationale: "A run owns all of its state and stays on one thread, but a sweep worker runs \
                    many cells on that thread: static mut and thread_local! outlive the run that \
                    wrote them, so one cell's leftovers could steer the next. RefCell/Rc/Cell \
                    are not flagged — they are !Sync, and with nothing inside a run shared \
                    between threads the compiler is the check.",
        rel: "crates/soc/src/example.rs",
        good: include_str!("../tests/fixtures/examples/no-shared-mut-state/good.rs"),
        bad: include_str!("../tests/fixtures/examples/no-shared-mut-state/bad.rs"),
    },
    Explain {
        rule: "rng-stream-ownership",
        rationale: "STREAM_OWNERS in crates/simcore/src/rng.rs turns the stream-isolation \
                    convention into a checked contract: every RngStreams variant names its \
                    owning crate, and drawing a stream from anywhere else is a finding — the \
                    exact bug class behind the PR 3 stream re-pin.",
        rel: "crates/simcore/src/rng.rs",
        good: include_str!("../tests/fixtures/examples/rng-stream-ownership/good.rs"),
        bad: include_str!("../tests/fixtures/examples/rng-stream-ownership/bad.rs"),
    },
    Explain {
        rule: "float-reduce-order",
        rationale: "f64 addition is non-associative, so a sum's bits depend on term order, \
                    and a HashMap's iteration order differs from one process to the next: \
                    reductions on sim paths are allowed only over sources the item graph can \
                    prove deterministically ordered (slices, Vecs, ranges, BTree collections, \
                    structs built from those).",
        rel: "crates/soc/src/example.rs",
        good: include_str!("../tests/fixtures/examples/float-reduce-order/good.rs"),
        bad: include_str!("../tests/fixtures/examples/float-reduce-order/bad.rs"),
    },
];

/// Look up the explanation bundle for `rule`.
pub fn explain(rule: &str) -> Option<&'static Explain> {
    EXPLAINS.iter().find(|e| e.rule == rule)
}

/// Render `--explain` output for the CLI.
pub fn render(e: &Explain) -> String {
    let desc = crate::RULES
        .iter()
        .find(|(n, _)| *n == e.rule)
        .map(|(_, d)| *d)
        .unwrap_or("");
    format!(
        "{}\n  {}\n\nwhy\n  {}\n\nbad (fires the rule)\n{}\ngood (lints clean)\n{}",
        e.rule,
        desc,
        prose(e.rationale),
        code(e.bad.trim_end()),
        code(e.good.trim_end()),
    )
}

/// Collapse the multi-line string-literal whitespace in a rationale.
fn prose(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Indent an example verbatim, preserving its own indentation.
fn code(s: &str) -> String {
    let mut out = String::new();
    for line in s.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}
