//! Every tier-2 test of the workspace runs somewhere: the tier-2 tests are
//! the `mod tier2` blocks compiled under the `tier2` feature, the `tier2`
//! cargo alias runs all of them, and the CI cron job calls that alias. A
//! suite that no command runs would rot silently, so both halves are
//! checked here against the checked-in files. So is `cargo lint`: its lint
//! levels are the workspace's, every member inherits them, and it lints the
//! tier-2 tests too.

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The Rust files under `dir` (relative to the repo root), recursively.
fn rust_files(dir: &str, out: &mut Vec<String>) {
    let path = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(&path).unwrap_or_else(|e| panic!("{path}: {e}")) {
        let entry = entry.expect("a directory entry");
        let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            rust_files(&rel, out);
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// `cargo tier2` selects the tier-2 tests with a cargo feature and a test
/// name filter, not with a harness flag after `--`: a flag added after the
/// alias (`cargo tier2 --offline`) then reaches cargo. Every tier-2 test is
/// in a `mod tier2` compiled only under that feature, so a plain `cargo
/// test` builds none of them, and none is marked ignored instead.
#[test]
fn tier2_alias_runs_every_tier2_module() {
    let config = read(".cargo/config.toml");
    let alias = r#"tier2 = "test --release --workspace --features tier2 tier2::""#;
    assert!(
        config.lines().any(|l| l.trim() == alias),
        ".cargo/config.toml must define {alias}"
    );
    let mut files = Vec::new();
    for dir in ["src", "tests", "crates", "examples"] {
        rust_files(dir, &mut files);
    }
    let ignore = concat!("#[", "ignore");
    let (mut modules, mut gated) = (0, 0);
    for file in &files {
        let text = read(file);
        assert!(
            !text.contains(ignore),
            "{file}: a tier-2 test goes in `mod tier2`"
        );
        modules += text.matches("\nmod tier2 {").count();
        gated += text
            .matches("#[cfg(feature = \"tier2\")]\nmod tier2 {")
            .count();
    }
    assert!(modules >= 5, "found {modules} tier-2 modules");
    assert_eq!(gated, modules, "every `mod tier2` is gated on the feature");
}

/// `cargo lint` is plain clippy with no `--` tail, so a flag added after
/// it (`cargo lint --offline`) goes to cargo, never to clippy-driver; the
/// levels it enforces are `[workspace.lints]`, and every member manifest
/// opts into them. It turns the `tier2` feature on, so the tier-2 modules
/// are linted too.
#[test]
fn lint_levels_are_the_workspace_lints_of_every_member() {
    let config = read(".cargo/config.toml");
    assert!(
        config
            .lines()
            .any(|l| l.trim() == r#"lint = "clippy --workspace --all-targets --features tier2""#),
        ".cargo/config.toml must define lint = \"clippy --workspace --all-targets --features tier2\""
    );
    let root = read("Cargo.toml");
    for level in [
        "[workspace.lints.rust]\nwarnings = \"deny\"\nunsafe_code = \"deny\"\n",
        "[workspace.lints.clippy]\nallow_attributes = \"deny\"\n\
         allow_attributes_without_reason = \"deny\"\n",
    ] {
        assert!(root.contains(level), "Cargo.toml must declare\n{level}");
    }
    let mut members = vec!["Cargo.toml".to_string()];
    for dir in ["crates", "vendor"] {
        let path = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&path).unwrap_or_else(|e| panic!("{path}: {e}")) {
            let entry = entry.expect("a directory entry");
            if entry.path().is_dir() {
                let name = entry.file_name();
                members.push(format!("{dir}/{}/Cargo.toml", name.to_string_lossy()));
            }
        }
    }
    assert!(members.len() > 10, "found only {members:?}");
    for manifest in members {
        assert!(
            read(&manifest).contains("\n[lints]\nworkspace = true\n"),
            "{manifest} must inherit the workspace lints: [lints] workspace = true"
        );
    }
}

/// The jobs of a workflow: each job's key line (two-space indent under
/// `jobs:`) and the lines of its body.
fn jobs(ci: &str) -> Vec<Vec<&str>> {
    let body = ci.split_once("\njobs:\n").expect("ci.yml has jobs").1;
    let mut jobs: Vec<Vec<&str>> = Vec::new();
    for line in body.lines() {
        let is_key = line.starts_with("  ") && !line.starts_with("   ") && line.ends_with(':');
        match jobs.last_mut() {
            Some(job) if !is_key => job.push(line),
            _ => jobs.push(vec![line]),
        }
    }
    jobs
}

#[test]
fn ci_cron_job_runs_tier2() {
    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.lines().any(|l| l.trim_start().starts_with("- cron:")),
        "ci.yml has no schedule"
    );
    let cron: Vec<Vec<&str>> = jobs(&ci)
        .into_iter()
        .filter(|job| {
            job.iter()
                .any(|l| l.trim() == "if: github.event_name == 'schedule'")
        })
        .collect();
    assert_eq!(cron.len(), 1, "ci.yml must have one job the cron runs");
    assert!(
        cron[0].iter().any(|l| l.trim() == "run: cargo tier2"),
        "the CI cron job must run `cargo tier2`; it reads:\n{}",
        cron[0].join("\n")
    );
}
