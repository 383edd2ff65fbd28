//! Central registry of `SOC_*` environment knobs.
//!
//! Every runtime knob the workspace reads from the environment is
//! declared here — name, accepted values, default, and a doc line — and
//! read through [`raw`], the single `std::env::var` site for `SOC_*`
//! variables. Parsers match on [`value`], the same read trimmed and
//! ASCII-lowercased, so `ON`, ` on ` and `on` are one setting; a value
//! outside a knob's accepted set selects its default there, and a `SOC_*`
//! variable no knob declares (a typo, a knob since removed) is read by
//! nothing, which is why a binary calls [`check_env`] first and refuses to
//! start on either.
//! The workspace `clippy.toml` disallows `std::env::var`, `var_os`,
//! `vars` and `vars_os`, so [`raw`] and `first_stray` are the two places
//! that carry an `#[expect]` for them; a read of an undeclared name trips
//! `raw`'s debug assertion. This module's tests check that every entry is
//! a unique, documented `SOC_UPPER_SNAKE` name, and that the README's
//! env-knob table matches the registry.
//!
//! Reads are deliberately **per call, never process-cached**: a test suite
//! flips `SOC_PROFILE` between runs inside one process (the off-vs-on pin
//! in `crates/bench/tests/profile_equivalence.rs`). A `OnceLock` here
//! would freeze the first value and silently turn that comparison into a
//! self-comparison.

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
/// undeclared name is a bug (debug-asserted here).
#[expect(clippy::disallowed_methods, reason = "the one read of a declared knob")]
pub fn raw(name: &str) -> Option<String> {
    debug_assert!(
        get(name).is_some(),
        "undeclared SOC_ knob {name:?}: add it to soc_types::knobs::KNOBS"
    );
    std::env::var(name).ok()
}

/// The first (in name order) `SOC_*` variable set in the environment that
/// [`KNOBS`] does not declare. Beside [`raw`] on purpose: these two are
/// the only places the workspace looks at the environment for `SOC_*`
/// names.
#[expect(
    clippy::disallowed_methods,
    reason = "the one scan for SOC_ variables no knob declares"
)]
fn first_stray() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("SOC_") && get(name).is_none())
        .min()
}

/// A declared knob's setting, normalised for matching: trimmed and
/// ASCII-lowercased. Every parser of an enumerated knob matches on this,
/// so they all agree on what `SOC_PROFILE=ON` means.
pub fn value(name: &str) -> Option<String> {
    raw(name).map(|v| v.trim().to_ascii_lowercase())
}

/// Is the normalised setting `v` one of `knob`'s accepted `values`
/// (alternatives split on ` | `; `positive integer` parsed)?
fn accepts(knob: &Knob, v: &str) -> bool {
    if knob.values == "positive integer" {
        v.parse::<u64>().is_ok_and(|n| n >= 1)
    } else {
        knob.values.split(" | ").any(|a| a == v)
    }
}

/// Validate every declared knob that is set in the environment against
/// its accepted `values`, and refuse any other set `SOC_*` variable. The
/// error names the knob, the offending value and the accepted set — or
/// the stray variable and the knobs that exist. A parser handed a value
/// it does not know falls back to the default, and a misspelt or removed
/// knob is read by nobody, so entry points call this before they run
/// anything.
pub fn check_env() -> Result<(), String> {
    for k in KNOBS {
        if let Some(v) = value(k.name).filter(|v| !accepts(k, v)) {
            return Err(format!("{}={v:?}: expected {}", k.name, k.values));
        }
    }
    if let Some(stray) = first_stray() {
        let declared: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        return Err(format!(
            "{stray}: not a knob; the knobs are {}",
            declared.join(", ")
        ));
    }
    Ok(())
}

/// The README "Environment knobs" table, regenerated from the registry
/// (tested against the checked-in README so the two cannot drift).
/// Literal `|` in a field (e.g. `off | on`) is escaped as `\|` so
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
    use std::sync::Mutex;

    /// The tests below that set `SOC_*` variables run on threads of one
    /// process; `check_env` reads all of them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Run `f` with `name` set to `v`, then restore what was there.
    fn with_var<T>(name: &str, v: &str, f: impl FnOnce() -> T) -> T {
        let prev = raw(name);
        std::env::set_var(name, v);
        let out = f();
        match prev {
            Some(p) => std::env::set_var(name, p),
            None => std::env::remove_var(name),
        }
        out
    }

    #[test]
    fn names_are_soc_upper_snake_and_unique() {
        for (i, k) in KNOBS.iter().enumerate() {
            assert!(
                k.name.len() > "SOC_".len() && k.name.starts_with("SOC_"),
                "{}",
                k.name
            );
            assert!(
                k.name
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'),
                "{}",
                k.name
            );
            for field in [k.doc, k.values, k.default] {
                assert!(!field.trim().is_empty(), "{} has a blank field", k.name);
            }
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
        // not panic and must round-trip set values — `value` being the
        // same read, normalised. Nothing in this test binary acts on the
        // knob, so borrowing a real one is harmless.
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        with_var("SOC_BENCH_THREADS", " Knob-Roundtrip\n", || {
            let raw = raw("SOC_BENCH_THREADS");
            assert_eq!(raw.as_deref(), Some(" Knob-Roundtrip\n"));
            let value = value("SOC_BENCH_THREADS");
            assert_eq!(value.as_deref(), Some("knob-roundtrip"));
        });
    }

    /// Each knob x {valid, wrong case, garbage}: a mistyped value is an
    /// error that names the knob, the value and what would have been
    /// accepted; case and surrounding blanks are not mistakes.
    #[test]
    fn check_env_accepts_every_case_and_names_what_it_rejects() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cases: [(&str, &[&str], &[&str]); 2] = [
            (
                "SOC_PROFILE",
                &["off", "on", "ON", " On"],
                &["1", "true", "enabled", "yes", ""],
            ),
            ("SOC_BENCH_THREADS", &["1", " 4 "], &["0", "-2", "four"]),
        ];
        assert_eq!(cases.len(), KNOBS.len(), "a knob has no validation case");
        for (name, good, bad) in cases {
            let knob = get(name).expect("declared");
            for v in good {
                with_var(name, v, || assert_eq!(check_env(), Ok(()), "{name}={v:?}"));
            }
            for v in bad {
                let err = with_var(name, v, check_env).expect_err("garbage is refused");
                assert_eq!(err, format!("{name}={v:?}: expected {}", knob.values));
            }
        }
        // A set `SOC_*` variable that is not a knob — a removed one, a
        // misspelt one — is refused by name, with the knobs that do exist.
        for (stray, v) in [
            ("SOC_SIM_EXEC", "sharded"),
            ("SOC_ROUTE", "cached"),
            ("SOC_PROFIL", "on"),
            ("SOC_FAULT_DEFENSE", "on"),
        ] {
            std::env::set_var(stray, v);
            let err = check_env().expect_err("a stray SOC_ variable is refused");
            std::env::remove_var(stray);
            assert_eq!(
                err,
                format!("{stray}: not a knob; the knobs are SOC_PROFILE, SOC_BENCH_THREADS")
            );
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
