//! # soc-lint
//!
//! A workspace-wide determinism-discipline static analysis pass, in the
//! house style of the hand-rolled JSON emitter and scenario format: no
//! crates.io (so no `syn`/`dylint`), just a comment/string-stripping
//! lexer ([`lexer`]) and two rule layers on top of it — token-pattern
//! rules ([`rules`]) and, since v2, item-graph rules ([`shard`]) written
//! against a per-file item tree ([`items`]) and a workspace
//! use/ownership graph ([`graph`]).
//!
//! Every data-structure replacement in this workspace is proven against
//! pinned fingerprints, and those pins hold only while the discipline is
//! enforced mechanically: `HashMap` iteration order differs from one
//! process to the next, and trace record → replay is bit-exact only while
//! every RNG stream has one owner. These rules encode the invariants that
//! previously lived in tests and prose: RNG stream isolation and
//! ownership, no unordered-collection iteration or order-sensitive float
//! reduction on fingerprint-feeding paths, no state that outlives its run
//! on a thread, no wall clock outside the bench harness, every
//! `SOC_*` knob documented, every fingerprint exclusion declared, every
//! `#[ignore]` suite wired into CI.
//!
//! Findings are suppressible only via a justified pragma on (or directly
//! above) the offending line:
//!
//! ```text
//! // soc-lint: allow(no-unstable-sort) -- one record per subject: keys are unique
//! ```
//!
//! A pragma without a `-- reason`, with an unknown rule name, or that
//! suppresses nothing is itself a finding — suppressions cannot rot.

pub mod explain;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod shard;

use graph::ItemGraph;
use items::FileItems;
use lexer::SourceFile;
use soc_sim::json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::{markdown_rules_table, META_RULES, RULES};
pub use shard::RNG_PATH;

/// One diagnostic: `path:line: [rule] message`.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-root-relative path, forward slashes.
    pub path: String,
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// A scanned file with everything the two rule layers need: its scope
/// classification, lexed token stream, and parsed item tree.
pub struct WorkspaceFile {
    pub info: FileInfo,
    pub src: SourceFile,
    pub items: FileItems,
}

/// Outcome of linting one workspace.
pub struct LintReport {
    /// Surviving findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by justified pragmas.
    pub suppressed: usize,
    /// Per-rule suppression counts (rules with ≥1 suppression only).
    pub suppressed_by_rule: Vec<(&'static str, usize)>,
    /// Distinct justified pragma comment lines that suppressed ≥1
    /// finding — the number CI pins exactly so pragma creep is loud.
    pub pragma_sites: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Surviving finding counts per rule (rules with ≥1 finding only).
    pub fn findings_by_rule(&self) -> Vec<(&'static str, usize)> {
        let mut by: BTreeMap<&'static str, usize> = BTreeMap::new();
        for f in &self.findings {
            *by.entry(f.rule).or_default() += 1;
        }
        by.into_iter().collect()
    }

    fn suppressed_for(&self, rule: &str) -> usize {
        self.suppressed_by_rule
            .iter()
            .find(|(r, _)| *r == rule)
            .map_or(0, |(_, n)| *n)
    }

    /// Machine-readable report through the workspace's hand-rolled JSON
    /// emitter (`soc_sim::json`, no serde) — uploaded as a CI artifact
    /// so lint deltas are diffable across PRs.
    pub fn to_json(&self) -> String {
        let by_rule = self.findings_by_rule();
        let count_for = |rule: &str| {
            by_rule
                .iter()
                .find(|(r, _)| *r == rule)
                .map_or(0, |(_, n)| *n)
        };
        let rules = RULES
            .iter()
            .map(|(name, _)| *name)
            .chain(META_RULES.iter().copied())
            .map(|name| {
                json::Obj::new()
                    .str("rule", name)
                    .u64("findings", count_for(name) as u64)
                    .u64("suppressed", self.suppressed_for(name) as u64)
                    .finish()
            });
        let findings = self.findings.iter().map(|f| {
            json::Obj::new()
                .str("rule", f.rule)
                .str("path", &f.path)
                .u64("line", f.line as u64)
                .str("msg", &f.msg)
                .finish()
        });
        json::Obj::new()
            .bool("clean", self.clean())
            .u64("files_scanned", self.files_scanned as u64)
            .u64("suppressed", self.suppressed as u64)
            .u64("pragma_sites", self.pragma_sites as u64)
            .raw("rules", &json::array(rules))
            .raw("findings", &json::array(findings))
            .finish()
    }
}

/// How a file's path slots it into the rule scopes.
pub struct FileInfo {
    /// Root-relative path with forward slashes.
    pub rel: String,
    /// `crates/<name>/..` crate, when under `crates/`.
    pub crate_name: Option<String>,
    /// Simulation-path code: every crate except the harness (`bench`) and
    /// this linter, plus the root facade `src/`. These crates feed
    /// `RunReport::fingerprint` and must stay bitwise deterministic.
    pub is_sim: bool,
    /// Test-only locations: `tests/`, `benches/`, `examples/` trees.
    pub is_test_path: bool,
    /// Deterministic-by-construction test harness files.
    pub is_testkit: bool,
}

impl FileInfo {
    pub fn classify(rel: &str) -> FileInfo {
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .map(|s| s.to_string());
        let is_sim = match crate_name.as_deref() {
            Some("bench") | Some("lint") => false,
            Some(_) => true,
            None => rel.starts_with("src/"),
        };
        let is_test_path = rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.starts_with("tests/")
            || rel.starts_with("examples/");
        let is_testkit = rel.ends_with("/testkit.rs");
        FileInfo {
            rel: rel.to_string(),
            crate_name,
            is_sim,
            is_test_path,
            is_testkit,
        }
    }
}

/// Directories never descended into: build output, VCS, the vendored
/// stand-in crates (external code by proxy), and the lint fixtures
/// (deliberately violation-riddled mini-workspaces).
fn skip_dir(rel: &str) -> bool {
    let last = rel.rsplit('/').next().unwrap_or(rel);
    last == "target" || last.starts_with('.') || rel == "vendor" || rel.ends_with("tests/fixtures")
}

fn walk(root: &Path, rel: &str, out: &mut Vec<String>) -> std::io::Result<()> {
    let dir = if rel.is_empty() {
        root.to_path_buf()
    } else {
        root.join(rel)
    };
    let mut entries: Vec<_> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    // Deterministic scan order: the linter's own output must not depend
    // on directory enumeration order.
    entries.sort();
    for name in entries {
        let child_rel = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        let path = root.join(&child_rel);
        if path.is_dir() {
            if !skip_dir(&child_rel) {
                walk(root, &child_rel, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(child_rel);
        }
    }
    Ok(())
}

fn load(rel: &str, text: &str) -> WorkspaceFile {
    let src = SourceFile::parse(text);
    let items = FileItems::parse(&src);
    WorkspaceFile {
        info: FileInfo::classify(rel),
        src,
        items,
    }
}

/// Run every rule over a prepared file set. `readme`/`ci` carry the two
/// non-Rust inputs some workspace rules correlate against.
fn run_rules(files: &[WorkspaceFile], readme: Option<&str>, ci: Option<&str>) -> LintReport {
    // Registry declarations first: the per-file knob check needs them.
    let registry = files.iter().find(|wf| wf.info.rel == rules::REGISTRY_PATH);
    let entries = registry
        .map(|wf| rules::registry_entries(&wf.src))
        .unwrap_or_default();
    let declared: BTreeSet<String> = entries.iter().map(|e| e.name.clone()).collect();

    // Item layer: the workspace graph and the declared RNG owner map.
    let item_graph = ItemGraph::build(files);
    let rng = files.iter().find(|wf| wf.info.rel == shard::RNG_PATH);
    let owners = rng
        .map(|wf| shard::stream_owners(&wf.src))
        .unwrap_or(shard::StreamOwners {
            entries: Vec::new(),
            declared: false,
        });

    let mut raw: Vec<Finding> = Vec::new();
    for wf in files {
        let (fi, sf) = (&wf.info, &wf.src);
        rules::no_wall_clock(fi, sf, &mut raw);
        rules::no_unordered_iter(fi, sf, &mut raw);
        rules::no_unstable_sort(fi, sf, &mut raw);
        rules::rng_stream_discipline(fi, sf, &mut raw);
        rules::env_knob_reads(fi, sf, &declared, &mut raw);
        rules::ignored_test_wiring(fi, sf, ci, &mut raw);
        if fi.rel == rules::REPORT_PATH {
            rules::fingerprint_coverage(fi, sf, &mut raw);
        }
        shard::no_shared_mut_state(wf, &mut raw);
        shard::rng_stream_ownership_uses(wf, &owners, &mut raw);
        shard::float_reduce_order(wf, &item_graph, files, &mut raw);
    }
    if let Some(wf) = registry {
        rules::env_knob_registry_decls(&wf.info, &entries, readme, &mut raw);
    }
    if let Some(wf) = rng {
        shard::rng_stream_ownership_decls(wf, &owners, &mut raw);
    }

    // Pragma application: a finding survives unless a well-formed,
    // justified pragma targets its exact (file, line, rule).
    let known: BTreeSet<&str> = RULES.iter().map(|(n, _)| *n).collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = 0usize;
    let mut suppressed_by: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new(); // (path, pragma line)

    for f in raw {
        let mut keep = true;
        if let Some(wf) = files.iter().find(|wf| wf.info.rel == f.path) {
            for p in &wf.src.pragmas {
                if !p.malformed
                    && !p.reason.is_empty()
                    && p.target_line == f.line
                    && p.rules.iter().any(|r| r == f.rule)
                {
                    keep = false;
                    suppressed += 1;
                    *suppressed_by.entry(f.rule).or_default() += 1;
                    used.insert((wf.info.rel.clone(), p.line));
                    break;
                }
            }
        }
        if keep {
            findings.push(f);
        }
    }

    // Pragma hygiene: malformed, unknown-rule and dead pragmas are
    // findings themselves — the suppression surface cannot rot silently.
    for wf in files {
        let fi = &wf.info;
        for p in &wf.src.pragmas {
            if p.malformed {
                findings.push(Finding {
                    rule: "malformed-pragma",
                    path: fi.rel.clone(),
                    line: p.line,
                    msg: "expected `// soc-lint: allow(<rule>) -- <reason>`".into(),
                });
                continue;
            }
            if p.reason.is_empty() {
                findings.push(Finding {
                    rule: "malformed-pragma",
                    path: fi.rel.clone(),
                    line: p.line,
                    msg: "pragma without a `-- <reason>` justification".into(),
                });
                continue;
            }
            for r in &p.rules {
                if !known.contains(r.as_str()) {
                    findings.push(Finding {
                        rule: "unknown-rule",
                        path: fi.rel.clone(),
                        line: p.line,
                        msg: format!("pragma names unknown rule `{r}`"),
                    });
                }
            }
            if !used.contains(&(fi.rel.clone(), p.line)) {
                findings.push(Finding {
                    rule: "unused-pragma",
                    path: fi.rel.clone(),
                    line: p.line,
                    msg: format!(
                        "pragma allow({}) suppresses nothing on line {}",
                        p.rules.join(", "),
                        p.target_line
                    ),
                });
            }
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    LintReport {
        findings,
        files_scanned: files.len(),
        suppressed,
        suppressed_by_rule: suppressed_by.into_iter().collect(),
        pragma_sites: used.len(),
    }
}

/// Lint the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut rel_paths = Vec::new();
    walk(root, "", &mut rel_paths)?;

    let mut files: Vec<WorkspaceFile> = Vec::with_capacity(rel_paths.len());
    for rel in &rel_paths {
        let text = std::fs::read_to_string(root.join(rel))?;
        files.push(load(rel, &text));
    }

    let readme = std::fs::read_to_string(root.join("README.md")).ok();
    let ci = std::fs::read_to_string(root.join(rules::CI_PATH)).ok();
    Ok(run_rules(&files, readme.as_deref(), ci.as_deref()))
}

/// Lint a single in-memory file as if it were the whole workspace at
/// path `rel` — the engine behind `--explain`'s good/bad example pairs
/// (and handy in tests). Workspace inputs (README, CI) are absent;
/// path-pinned rules still fire when `rel` matches their file.
pub fn lint_source(rel: &str, text: &str) -> LintReport {
    let files = vec![load(rel, text)];
    run_rules(&files, None, None)
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(|p| p.to_path_buf());
    }
    None
}
