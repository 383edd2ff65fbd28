//! Every `#[ignore]`d test of the workspace runs somewhere: the `tier2`
//! cargo alias runs all of them, and the CI cron job calls that alias. A
//! suite that no command runs would rot silently, so both halves are
//! checked here against the checked-in files.

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
