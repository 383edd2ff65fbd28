//! Central registry of `SOC_*` environment knobs.
//!
//! Every runtime knob the workspace reads from the environment is
//! declared here — name, accepted values, default, and a doc line — and
//! read through [`raw`], the single `std::env::var` site for `SOC_*`
//! variables. `soc-lint`'s `env-knob-registry` rule enforces both halves
//! mechanically: a direct `env::var("SOC_…")` anywhere else is a finding,
//! and so is a `SOC_*` string literal naming a knob this table does not
//! declare. The README's env-knob table is checked against this registry
//! the same way.
//!
//! Reads are deliberately **per call, never process-cached**: the
//! equivalence suites flip these variables between runs inside one
//! process to A/B backends and drivers (see
//! `crates/bench/tests/route_equivalence.rs`). A `OnceLock` here would
//! freeze the first value and silently turn those bitwise-equivalence
//! tests into self-comparisons.

/// One declared environment knob.
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// Environment variable name (`SOC_UPPER_SNAKE`).
    pub name: &'static str,
    /// Accepted values, human-readable.
    pub values: &'static str,
    /// Effective default when unset.
    pub default: &'static str,
    /// What the knob does (one line; surfaced in the README table).
    pub doc: &'static str,
}

/// Every `SOC_*` knob the workspace reads, in table order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "SOC_ROUTE",
        values: "scan | cached",
        default: "cached",
        doc: "Next-hop router backend; scan recomputes the finger/greedy step every hop",
    },
    Knob {
        name: "SOC_SIM_EXEC",
        values: "serial | sharded",
        default: "serial",
        doc: "Windowed-executor driver; serial runs the shard windows inline, sharded runs them on worker threads (bitwise-identical)",
    },
    Knob {
        name: "SOC_SIM_SHARDS",
        values: "positive integer",
        default: "min(8, LAN count)",
        doc: "Shard-count override for the windowed executor; part of the simulated configuration, so it changes fingerprints (SOC_SIM_EXEC never does)",
    },
    Knob {
        name: "SOC_FAULT_DEFENSE",
        values: "off | on",
        default: "off",
        doc: "Blacklist/retry defence layer under injected faults; off is the undefended baseline",
    },
    Knob {
        name: "SOC_PROFILE",
        values: "off | on",
        default: "off",
        doc: "Per-phase runtime profiler in the scenario runner; observation-only, never fingerprinted",
    },
    Knob {
        name: "SOC_BENCH_THREADS",
        values: "positive integer",
        default: "available parallelism",
        doc: "Worker threads for the deterministic sweep fan-out in crates/bench",
    },
];

/// Registry entry for `name`, if declared.
pub fn get(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// Read a declared knob from the environment. This is the one place the
/// workspace touches `std::env::var` for `SOC_*` names; reading an
/// undeclared name is a bug (debug-asserted here, linted statically).
pub fn raw(name: &str) -> Option<String> {
    debug_assert!(
        get(name).is_some(),
        "undeclared SOC_ knob {name:?}: add it to soc_types::knobs::KNOBS"
    );
    std::env::var(name).ok()
}

/// The README "Environment knobs" table, regenerated from the registry
/// (tested against the checked-in README so the two cannot drift).
/// Literal `|` in a field (e.g. `scan | cached`) is escaped as `\|` so
/// it stays inside its markdown cell.
pub fn markdown_table() -> String {
    let cell = |s: &str| s.replace('|', "\\|");
    let mut out = String::from("| knob | values | default | effect |\n|---|---|---|---|\n");
    for k in KNOBS {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name,
            cell(k.values),
            cell(k.default),
            cell(k.doc)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_soc_upper_snake_and_unique() {
        for (i, k) in KNOBS.iter().enumerate() {
            assert!(k.name.starts_with("SOC_"), "{}", k.name);
            assert!(
                k.name
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'),
                "{}",
                k.name
            );
            assert!(!k.doc.is_empty() && !k.values.is_empty() && !k.default.is_empty());
            assert!(
                KNOBS[..i].iter().all(|p| p.name != k.name),
                "duplicate {}",
                k.name
            );
        }
    }

    #[test]
    fn raw_reads_declared_knobs() {
        // Whatever the environment holds, reading a declared knob must
        // not panic and must round-trip set values. Nothing in this test
        // binary acts on the knob, so borrowing a real one is harmless.
        let prev = raw("SOC_BENCH_THREADS");
        std::env::set_var("SOC_BENCH_THREADS", "knob-roundtrip");
        assert_eq!(raw("SOC_BENCH_THREADS").as_deref(), Some("knob-roundtrip"));
        match prev {
            Some(v) => std::env::set_var("SOC_BENCH_THREADS", v),
            None => std::env::remove_var("SOC_BENCH_THREADS"),
        }
    }

    #[test]
    fn markdown_table_lists_every_knob() {
        let t = markdown_table();
        for k in KNOBS {
            assert!(t.contains(k.name), "{} missing from table", k.name);
        }
    }

    #[test]
    fn readme_env_table_matches_registry() {
        // The README table is hand-checked-in; keep it bit-identical to
        // the generated one so docs can never drift from the registry.
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("workspace README");
        let table = markdown_table();
        assert!(
            readme.contains(&table),
            "README env-knob table out of date; regenerate with \
             soc_types::knobs::markdown_table():\n{table}"
        );
    }
}
