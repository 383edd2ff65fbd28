//! Every `#[ignore]`d test of the workspace runs somewhere: the `tier2`
//! cargo alias runs all of them, and the CI cron job calls that alias. A
//! suite that no command runs would rot silently, so both halves are
//! checked here against the checked-in files. So is `cargo lint`: its lint
//! levels are the workspace's, and every member inherits them.

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn tier2_alias_runs_every_ignored_test() {
    let config = read(".cargo/config.toml");
    assert!(
        config
            .lines()
            .any(|l| l.trim() == r#"tier2 = "test --release --workspace -- --ignored""#),
        ".cargo/config.toml must define tier2 = \"test --release --workspace -- --ignored\""
    );
}

/// `cargo lint` is plain clippy with no `--` tail, so a flag added after
/// it (`cargo lint --offline`) goes to cargo, never to clippy-driver; the
/// levels it enforces are `[workspace.lints]`, and every member manifest
/// opts into them.
#[test]
fn lint_levels_are_the_workspace_lints_of_every_member() {
    let config = read(".cargo/config.toml");
    assert!(
        config
            .lines()
            .any(|l| l.trim() == r#"lint = "clippy --workspace --all-targets""#),
        ".cargo/config.toml must define lint = \"clippy --workspace --all-targets\""
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
