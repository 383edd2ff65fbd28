//! The token-pattern half of the `soc-lint` rule set, plus the shared
//! [`RULES`] registry covering both layers. Each rule here is a
//! token-pattern pass over the lexed files (see [`crate::lexer`]); the
//! workspace-level rules (`env-knob-registry` declarations,
//! `fingerprint-coverage`, `ignored-test-wiring`) additionally correlate
//! across files. The item-graph shard-safety rules live in
//! [`crate::shard`].

use crate::lexer::{SourceFile, Token, TokenKind};
use crate::{FileInfo, Finding};
use std::collections::BTreeSet;

/// Rule names + one-line descriptions (`soc-lint --list-rules`, pragma
/// validation, README table).
pub const RULES: &[(&str, &str)] = &[
    (
        "no-wall-clock",
        "Instant::now/SystemTime only in crates/bench (wall time is never simulation state)",
    ),
    (
        "no-unordered-iter",
        "no HashMap/HashSet iteration on fingerprint-feeding paths (keyed lookup is fine)",
    ),
    (
        "no-unstable-sort",
        "sort_unstable* on sim paths needs a uniqueness justification",
    ),
    (
        "rng-stream-discipline",
        "RNGs come from stream_rng(seed, RngStreams::..); no from_entropy/ad-hoc seeding",
    ),
    (
        "env-knob-registry",
        "every SOC_* env knob is declared+documented in soc_types::knobs and read through it",
    ),
    (
        "fingerprint-coverage",
        "every RunReport field is encoded in fingerprint() or listed in FINGERPRINT_EXCLUDED",
    ),
    (
        "ignored-test-wiring",
        "every #[ignore] test file is wired into the CI nightly cron",
    ),
    (
        "no-shared-mut-state",
        "no static mut / thread_local! without a justification of why no run sees another's leftovers",
    ),
    (
        "rng-stream-ownership",
        "STREAM_OWNERS maps every RngStreams variant to its owning crate; drawing a stream elsewhere is a finding",
    ),
    (
        "float-reduce-order",
        "f64 sum/fold/+= reductions on sim paths only over sources the item graph proves deterministically ordered",
    ),
];

/// The `soc-lint` rules table for the README, regenerated (and
/// byte-tested, like the env-knob table) from [`RULES`].
pub fn markdown_rules_table() -> String {
    let mut out = String::from("| rule | checks |\n|---|---|\n");
    for (name, desc) in RULES {
        out.push_str(&format!("| `{name}` | {} |\n", desc.replace('|', "\\|")));
    }
    out
}

/// Engine-level diagnostics (not suppressible, not valid in `allow(..)`).
pub const META_RULES: &[&str] = &["malformed-pragma", "unused-pragma", "unknown-rule"];

/// Path of the central knob registry, relative to the workspace root.
pub const REGISTRY_PATH: &str = "crates/types/src/knobs.rs";

/// Path of the run-report module the fingerprint rule inspects.
pub const REPORT_PATH: &str = "crates/soc/src/report.rs";

/// Path of the CI workflow the ignored-test rule inspects.
pub const CI_PATH: &str = ".github/workflows/ci.yml";

fn finding(rule: &'static str, file: &FileInfo, line: u32, msg: String) -> Finding {
    Finding {
        rule,
        path: file.rel.clone(),
        line,
        msg,
    }
}

// ---------------------------------------------------------------------------
// no-wall-clock
// ---------------------------------------------------------------------------

/// Wall-clock reads are allowed only in `crates/bench` (harness timing).
/// Everything else must treat time as simulation state (`wall_ms`-style
/// diagnostics carry a pragma and a fingerprint exclusion).
pub fn no_wall_clock(file: &FileInfo, sf: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_name.as_deref() == Some("bench") {
        return;
    }
    let t = &sf.tokens;
    for i in 0..t.len() {
        if t[i].is_ident("SystemTime") {
            out.push(finding(
                "no-wall-clock",
                file,
                t[i].line,
                "SystemTime is wall-clock state; simulation time is `SimMillis`".into(),
            ));
        }
        if t[i].is_ident("Instant")
            && i + 3 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].is_ident("now")
        {
            out.push(finding(
                "no-wall-clock",
                file,
                t[i].line,
                "Instant::now outside crates/bench; wall time must stay out of sim state".into(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-unordered-iter
// ---------------------------------------------------------------------------

/// Methods whose results depend on `HashMap`/`HashSet` iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Tokens that may sit between `ident:` and its `HashMap`/`HashSet` type
/// (references, lifetimes, `mut`, `std::collections::` paths).
fn type_path_filler(t: &Token) -> bool {
    t.is_punct('&')
        || t.is_punct(':')
        || t.kind == TokenKind::Life
        || t.is_ident("mut")
        || t.is_ident("std")
        || t.is_ident("collections")
}

/// Pass A: identifiers bound to `HashMap`/`HashSet` in this file — via
/// `name: HashMap<..>` type ascription (fields, params, lets) or
/// `name = HashMap::new()`-style initialization.
fn unordered_idents(sf: &SourceFile) -> BTreeSet<String> {
    let t = &sf.tokens;
    let mut marked = BTreeSet::new();
    for i in 0..t.len() {
        if t[i].kind != TokenKind::Ident {
            continue;
        }
        let Some(next) = t.get(i + 1) else { continue };
        let ascription = next.is_punct(':');
        let init = next.is_punct('=') && !t.get(i + 2).is_some_and(|x| x.is_punct('='));
        if !ascription && !init {
            continue;
        }
        let mut j = i + 2;
        while j < t.len() && type_path_filler(&t[j]) {
            j += 1;
        }
        if j < t.len() && (t[j].is_ident("HashMap") || t[j].is_ident("HashSet")) {
            marked.insert(t[i].text.clone());
        }
    }
    marked
}

/// Iteration over an unordered collection on a fingerprint-feeding path.
/// Keyed ops (`get`, `insert`, `contains_key`, …) are fine; anything that
/// observes iteration order must iterate sorted keys, use `BTreeMap`, or
/// justify why order cannot matter.
pub fn no_unordered_iter(file: &FileInfo, sf: &SourceFile, out: &mut Vec<Finding>) {
    if !file.is_sim || file.is_test_path || file.is_testkit {
        return;
    }
    let marked = unordered_idents(sf);
    if marked.is_empty() {
        return;
    }
    let t = &sf.tokens;
    for i in 0..t.len() {
        if sf.in_test_region(i) {
            continue;
        }
        // `map.iter()` / `self.map.retain(..)` / ...
        if t[i].kind == TokenKind::Ident
            && marked.contains(&t[i].text)
            && i + 2 < t.len()
            && t[i + 1].is_punct('.')
            && t[i + 2].kind == TokenKind::Ident
            && ITER_METHODS.contains(&t[i + 2].text.as_str())
        {
            out.push(finding(
                "no-unordered-iter",
                file,
                t[i].line,
                format!(
                    "`{}.{}()` iterates an unordered Hash{{Map,Set}} on a sim path",
                    t[i].text,
                    t[i + 2].text
                ),
            ));
        }
        // `for x in &map {` / `for x in &mut self.map {`
        if t[i].is_ident("for") {
            let mut j = i + 1;
            let limit = (i + 40).min(t.len());
            while j < limit && !t[j].is_ident("in") && !t[j].is_punct('{') {
                j += 1;
            }
            if j >= limit || !t[j].is_ident("in") {
                continue;
            }
            j += 1;
            while j < t.len() && (t[j].is_punct('&') || t[j].is_ident("mut")) {
                j += 1;
            }
            if j + 1 < t.len() && t[j].is_ident("self") && t[j + 1].is_punct('.') {
                j += 2;
            }
            if j + 1 < t.len()
                && t[j].kind == TokenKind::Ident
                && marked.contains(&t[j].text)
                && t[j + 1].is_punct('{')
            {
                out.push(finding(
                    "no-unordered-iter",
                    file,
                    t[j].line,
                    format!(
                        "`for .. in {}` iterates an unordered Hash{{Map,Set}} on a sim path",
                        t[j].text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-unstable-sort
// ---------------------------------------------------------------------------

/// `sort_unstable*` reorders equal keys nondeterministically with respect
/// to input order; on a sim path that is only sound when keys are unique
/// — which is exactly what the pragma reason must state.
pub fn no_unstable_sort(file: &FileInfo, sf: &SourceFile, out: &mut Vec<Finding>) {
    if !file.is_sim || file.is_test_path || file.is_testkit {
        return;
    }
    for (i, t) in sf.tokens.iter().enumerate() {
        if sf.in_test_region(i) {
            continue;
        }
        if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "sort_unstable" | "sort_unstable_by" | "sort_unstable_by_key"
            )
        {
            out.push(finding(
                "no-unstable-sort",
                file,
                t.line,
                format!(
                    "`{}` on a sim path: use a stable sort, or justify key uniqueness",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// rng-stream-discipline
// ---------------------------------------------------------------------------

/// Ad-hoc RNG construction on sim paths (replay soundness requires every
/// stream to come from `stream_rng`), plus entropy seeding anywhere.
pub fn rng_stream_discipline(file: &FileInfo, sf: &SourceFile, out: &mut Vec<Finding>) {
    let t = &sf.tokens;
    for i in 0..t.len() {
        // Entropy/thread RNGs are forbidden everywhere (tests included):
        // a single entropy draw makes a trace unreplayable.
        if t[i].kind == TokenKind::Ident
            && matches!(t[i].text.as_str(), "from_entropy" | "thread_rng" | "OsRng")
        {
            out.push(finding(
                "rng-stream-discipline",
                file,
                t[i].line,
                format!("`{}`: entropy-seeded RNGs break record/replay", t[i].text),
            ));
            continue;
        }
        // Ad-hoc seeding only matters on non-test sim paths; unit tests,
        // testkits and benches seed locally by design.
        if !file.is_sim || file.is_test_path || file.is_testkit || sf.in_test_region(i) {
            continue;
        }
        if t[i].is_ident("SmallRng")
            && i + 3 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].kind == TokenKind::Ident
            && matches!(
                t[i + 3].text.as_str(),
                "seed_from_u64" | "from_seed" | "from_rng"
            )
        {
            out.push(finding(
                "rng-stream-discipline",
                file,
                t[i].line,
                "ad-hoc SmallRng seeding on a sim path: construct via stream_rng(seed, RngStreams::..)"
                    .into(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// env-knob-registry
// ---------------------------------------------------------------------------

fn is_knob_literal(s: &str) -> bool {
    s.len() > 4
        && s.starts_with("SOC_")
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Per-file half: direct `env::var("SOC_*")` reads outside the registry,
/// and `SOC_*` string literals naming knobs the registry never declared.
pub fn env_knob_reads(
    file: &FileInfo,
    sf: &SourceFile,
    declared: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    if file.rel == REGISTRY_PATH {
        return;
    }
    let t = &sf.tokens;
    for i in 0..t.len() {
        if t[i].is_ident("env")
            && i + 5 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].is_ident("var")
            && t[i + 4].is_punct('(')
            && t[i + 5].kind == TokenKind::Str
            && t[i + 5].text.starts_with("SOC_")
        {
            out.push(finding(
                "env-knob-registry",
                file,
                t[i].line,
                format!(
                    "direct env::var(\"{}\"): read SOC_ knobs via soc_types::knobs::raw",
                    t[i + 5].text
                ),
            ));
        }
        // The lint crate itself talks *about* knobs (fixtures, messages);
        // exempt it from the literal check, not from the read check above.
        if file.crate_name.as_deref() == Some("lint") {
            continue;
        }
        if t[i].kind == TokenKind::Str
            && is_knob_literal(&t[i].text)
            && !declared.contains(&t[i].text)
        {
            out.push(finding(
                "env-knob-registry",
                file,
                t[i].line,
                format!(
                    "undeclared knob \"{}\": declare + document it in soc_types::knobs::KNOBS",
                    t[i].text
                ),
            ));
        }
    }
}

/// One `Knob { name: "..", doc: ".." }` entry parsed from the registry.
pub struct KnobEntry {
    pub name: String,
    pub doc: String,
    pub line: u32,
}

/// Parse `Knob { .. }` struct literals out of the registry file.
pub fn registry_entries(sf: &SourceFile) -> Vec<KnobEntry> {
    let t = &sf.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < t.len() {
        if !(t[i].is_ident("Knob") && t[i + 1].is_punct('{')) {
            i += 1;
            continue;
        }
        let line = t[i].line;
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut name = None;
        let mut doc = None;
        while j < t.len() && depth > 0 {
            if t[j].is_punct('{') {
                depth += 1;
            } else if t[j].is_punct('}') {
                depth -= 1;
            } else if depth == 1
                && t[j].kind == TokenKind::Ident
                && j + 2 < t.len()
                && t[j + 1].is_punct(':')
                && t[j + 2].kind == TokenKind::Str
            {
                match t[j].text.as_str() {
                    "name" => name = Some(t[j + 2].text.clone()),
                    "doc" => doc = Some(t[j + 2].text.clone()),
                    _ => {}
                }
            }
            j += 1;
        }
        // The `struct Knob { .. }` definition has no string-literal
        // `name:` field, so it never produces an entry.
        if let Some(name) = name {
            out.push(KnobEntry {
                name,
                doc: doc.unwrap_or_default(),
                line,
            });
        }
        i = j;
    }
    out
}

/// Workspace half: registry entries are well-formed (SOC_-named, unique,
/// documented) and surfaced in the README's env-knob table.
pub fn env_knob_registry_decls(
    registry: &FileInfo,
    entries: &[KnobEntry],
    readme: Option<&str>,
    out: &mut Vec<Finding>,
) {
    let mut seen = BTreeSet::new();
    for e in entries {
        if !is_knob_literal(&e.name) {
            out.push(finding(
                "env-knob-registry",
                registry,
                e.line,
                format!("knob \"{}\" is not an SOC_UPPER_SNAKE name", e.name),
            ));
        }
        if !seen.insert(e.name.clone()) {
            out.push(finding(
                "env-knob-registry",
                registry,
                e.line,
                format!("knob \"{}\" declared twice", e.name),
            ));
        }
        if e.doc.trim().is_empty() {
            out.push(finding(
                "env-knob-registry",
                registry,
                e.line,
                format!("knob \"{}\" has no doc line", e.name),
            ));
        }
        match readme {
            Some(text) if text.contains(&e.name) => {}
            Some(_) => out.push(finding(
                "env-knob-registry",
                registry,
                e.line,
                format!("knob \"{}\" missing from the README env-knob table", e.name),
            )),
            None => out.push(finding(
                "env-knob-registry",
                registry,
                e.line,
                format!(
                    "knob \"{}\": no README.md to carry the env-knob table",
                    e.name
                ),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// fingerprint-coverage
// ---------------------------------------------------------------------------

/// Every `RunReport` field must be encoded by `fingerprint()` or appear in
/// `FINGERPRINT_EXCLUDED` — exclusions are declarations, not comments.
pub fn fingerprint_coverage(file: &FileInfo, sf: &SourceFile, out: &mut Vec<Finding>) {
    let t = &sf.tokens;
    // Struct fields: `pub name:` at depth 1 of `struct RunReport { .. }`.
    let mut fields: Vec<(String, u32)> = Vec::new();
    let mut i = 0;
    while i + 2 < t.len() {
        if t[i].is_ident("struct") && t[i + 1].is_ident("RunReport") && t[i + 2].is_punct('{') {
            let mut depth = 1usize;
            let mut j = i + 3;
            while j < t.len() && depth > 0 {
                if t[j].is_punct('{') {
                    depth += 1;
                } else if t[j].is_punct('}') {
                    depth -= 1;
                } else if depth == 1
                    && t[j].is_ident("pub")
                    && j + 2 < t.len()
                    && t[j + 1].kind == TokenKind::Ident
                    && t[j + 2].is_punct(':')
                {
                    fields.push((t[j + 1].text.clone(), t[j + 1].line));
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    if fields.is_empty() {
        out.push(finding(
            "fingerprint-coverage",
            file,
            1,
            "could not locate `struct RunReport` fields".into(),
        ));
        return;
    }
    // `self.name` references inside `fn fingerprint`.
    let mut refs = BTreeSet::new();
    let mut i = 0;
    while i + 1 < t.len() {
        if t[i].is_ident("fn") && t[i + 1].is_ident("fingerprint") {
            let mut j = i + 2;
            while j < t.len() && !t[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0usize;
            while j < t.len() {
                if t[j].is_punct('{') {
                    depth += 1;
                } else if t[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t[j].is_ident("self")
                    && j + 2 < t.len()
                    && t[j + 1].is_punct('.')
                    && t[j + 2].kind == TokenKind::Ident
                {
                    refs.insert(t[j + 2].text.clone());
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    if refs.is_empty() {
        out.push(finding(
            "fingerprint-coverage",
            file,
            1,
            "could not locate `fn fingerprint` on RunReport".into(),
        ));
        return;
    }
    // `FINGERPRINT_EXCLUDED = &["..", ..]` declaration.
    let mut excluded: BTreeSet<String> = BTreeSet::new();
    let mut have_excluded_decl = false;
    let mut i = 0;
    while i < t.len() {
        if t[i].is_ident("FINGERPRINT_EXCLUDED") {
            have_excluded_decl = true;
            let mut j = i + 1;
            while j < t.len() && !t[j].is_punct(';') {
                if t[j].kind == TokenKind::Str {
                    excluded.insert(t[j].text.clone());
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    if !have_excluded_decl {
        out.push(finding(
            "fingerprint-coverage",
            file,
            1,
            "missing `FINGERPRINT_EXCLUDED` declaration (exclusions must be declared)".into(),
        ));
    }
    let field_names: BTreeSet<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
    for (name, line) in &fields {
        let enc = refs.contains(name);
        let exc = excluded.contains(name);
        if !enc && !exc {
            out.push(finding(
                "fingerprint-coverage",
                file,
                *line,
                format!("RunReport field `{name}` neither fingerprinted nor FINGERPRINT_EXCLUDED"),
            ));
        }
        if enc && exc {
            out.push(finding(
                "fingerprint-coverage",
                file,
                *line,
                format!("RunReport field `{name}` is FINGERPRINT_EXCLUDED yet encoded anyway"),
            ));
        }
    }
    for name in &excluded {
        if !field_names.contains(name.as_str()) {
            out.push(finding(
                "fingerprint-coverage",
                file,
                1,
                format!("FINGERPRINT_EXCLUDED names `{name}`, which is not a RunReport field"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// ignored-test-wiring
// ---------------------------------------------------------------------------

/// The tier-2 alias (`.cargo/config.toml`): every `#[ignore]` test of the
/// workspace in one command. A CI that calls it covers every file.
const TIER2_CMD: &str = "cargo tier2";

/// Every file carrying an `#[ignore]` test must be run by the CI cron —
/// through the workspace-wide tier-2 alias or by name (otherwise the suite
/// silently never runs anywhere).
pub fn ignored_test_wiring(
    file: &FileInfo,
    sf: &SourceFile,
    ci: Option<&str>,
    out: &mut Vec<Finding>,
) {
    let t = &sf.tokens;
    let Some(pos) = (0..t.len()).find(|&i| {
        t[i].is_punct('#')
            && i + 2 < t.len()
            && t[i + 1].is_punct('[')
            && t[i + 2].is_ident("ignore")
    }) else {
        return;
    };
    let stem = file
        .rel
        .rsplit('/')
        .next()
        .unwrap_or(&file.rel)
        .trim_end_matches(".rs");
    match ci {
        Some(text) if text.contains(TIER2_CMD) || text.contains(stem) => {}
        Some(_) => out.push(finding(
            "ignored-test-wiring",
            file,
            t[pos].line,
            format!("`{stem}` has #[ignore] tests but is never run by {CI_PATH}"),
        )),
        None => out.push(finding(
            "ignored-test-wiring",
            file,
            t[pos].line,
            format!("`{stem}` has #[ignore] tests and there is no {CI_PATH} to run them"),
        )),
    }
}
