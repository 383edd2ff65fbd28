//! The **shard-safety rule pack**: three rules written against the item
//! layer ([`crate::items`]) and the workspace item graph
//! ([`crate::graph`]), encoding the invariants the windowed executor's
//! eight-shard cut and shard-ordered merge depend on. Token-pattern
//! rules catch *uses*; these rules see *structure* — items, field types,
//! enum variants, ownership edges — so they can prove things per item
//! ("this reduction iterates a `Vec` field") instead of flagging every
//! syntactic echo.
//!
//! * [`no_shared_mut_state`] — no state outlives a run on its thread:
//!   `static mut` and `thread_local!` need a justified pragma anywhere. A
//!   sweep worker runs many cells on one thread, and leftovers of one
//!   cell would leak into the next. (`RefCell`/`Rc`/`Cell` are `!Sync`
//!   and nothing inside a run is shared between threads, so for those the
//!   compiler is the check.)
//! * [`rng_stream_ownership`] — the [`STREAM_OWNERS`-style] declared map
//!   in `crates/simcore/src/rng.rs` makes stream→crate ownership a
//!   checked contract: drawing a stream outside its owner is a finding,
//!   and so is an enum variant the map does not cover.
//! * [`float_reduce_order`] — f64 reductions (`sum`, float-seeded
//!   `fold`, `+=` accumulation in loops) are non-associative; they are
//!   allowed only over sources the item graph can prove deterministically
//!   ordered (slices, `Vec`s, ranges, `BTreeMap`s, structs built from
//!   those), because a sharded merge must never inherit an
//!   order-sensitive total.

use crate::graph::ItemGraph;
use crate::items::{ty_mentions, ItemKind};
use crate::lexer::{SourceFile, Token, TokenKind};
use crate::{FileInfo, Finding, WorkspaceFile};
use std::collections::BTreeSet;

/// Path of the RNG stream registry (enum + owner map).
pub const RNG_PATH: &str = "crates/simcore/src/rng.rs";

fn finding(rule: &'static str, file: &FileInfo, line: u32, msg: String) -> Finding {
    Finding {
        rule,
        path: file.rel.clone(),
        line,
        msg,
    }
}

// ---------------------------------------------------------------------------
// no-shared-mut-state
// ---------------------------------------------------------------------------

/// State that outlives the run that wrote it: `static mut` and
/// `thread_local!`, flagged in every crate (the bench harness included —
/// its sweep workers run cell after cell on one thread, so per-thread
/// leftovers are exactly what would make a cell depend on its neighbours).
pub fn no_shared_mut_state(wf: &WorkspaceFile, out: &mut Vec<Finding>) {
    let file = &wf.info;
    if file.is_test_path || file.is_testkit {
        return;
    }
    let t = &wf.src.tokens;
    let context = |i: usize| {
        wf.items
            .enclosing(i)
            .map(|it| format!(" (in `{}`)", it.name))
            .unwrap_or_default()
    };
    for i in 0..t.len() {
        if wf.src.in_test_region(i) {
            continue;
        }
        if t[i].is_ident("static") && t.get(i + 1).is_some_and(|x| x.is_ident("mut")) {
            out.push(finding(
                "no-shared-mut-state",
                file,
                t[i].line,
                format!(
                    "`static mut` is mutable state every run of the process shares{}",
                    context(i)
                ),
            ));
            continue;
        }
        if t[i].is_ident("thread_local") && t.get(i + 1).is_some_and(|x| x.is_punct('!')) {
            out.push(finding(
                "no-shared-mut-state",
                file,
                t[i].line,
                format!(
                    "`thread_local!` state outlives the run that wrote it; justify why \
                     the next run on this thread cannot see it{}",
                    context(i)
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// rng-stream-ownership
// ---------------------------------------------------------------------------

/// The declared owner map parsed out of the RNG registry file:
/// `(variant, owner crate, declaration line)` triples from a
/// `STREAM_OWNERS: &[(&str, &str)]` const.
pub struct StreamOwners {
    pub entries: Vec<(String, String, u32)>,
    pub declared: bool,
}

/// Owner value meaning "only test code may draw this stream".
pub const TEST_ONLY_OWNER: &str = "test-only";

/// Parse `STREAM_OWNERS` string-literal pairs from the registry file.
pub fn stream_owners(sf: &SourceFile) -> StreamOwners {
    let t = &sf.tokens;
    let Some(at) = t.iter().position(|x| x.is_ident("STREAM_OWNERS")) else {
        return StreamOwners {
            entries: Vec::new(),
            declared: false,
        };
    };
    let mut entries = Vec::new();
    let mut j = at + 1;
    let mut pair: Vec<(String, u32)> = Vec::new();
    while j < t.len() && !t[j].is_punct(';') {
        match t[j].kind {
            TokenKind::Str => pair.push((t[j].text.clone(), t[j].line)),
            TokenKind::Punct(')') => {
                if let [(v, line), (o, _)] = pair.as_slice() {
                    entries.push((v.clone(), o.clone(), *line));
                }
                pair.clear();
            }
            _ => {}
        }
        j += 1;
    }
    StreamOwners {
        entries,
        declared: true,
    }
}

/// Declaration half, run once on the registry file: the owner map must
/// exist, cover every `RngStreams` variant exactly once, and name no
/// phantom variants. Adding a variant without an owner therefore fails
/// the lint (and with it, the workspace self-check test).
pub fn rng_stream_ownership_decls(
    wf: &WorkspaceFile,
    owners: &StreamOwners,
    out: &mut Vec<Finding>,
) {
    let file = &wf.info;
    let Some(en) = wf.items.find(ItemKind::Enum, "RngStreams") else {
        out.push(finding(
            "rng-stream-ownership",
            file,
            1,
            "could not locate `enum RngStreams` in the stream registry".into(),
        ));
        return;
    };
    if !owners.declared {
        out.push(finding(
            "rng-stream-ownership",
            file,
            en.line,
            "missing `STREAM_OWNERS` map: every RngStreams variant needs a declared owner crate"
                .into(),
        ));
        return;
    }
    let mut seen = BTreeSet::new();
    for (variant, owner, line) in &owners.entries {
        if !en.variants.iter().any(|v| &v.name == variant) {
            out.push(finding(
                "rng-stream-ownership",
                file,
                *line,
                format!("STREAM_OWNERS names `{variant}`, which is not an RngStreams variant"),
            ));
        }
        if !seen.insert(variant.clone()) {
            out.push(finding(
                "rng-stream-ownership",
                file,
                *line,
                format!("STREAM_OWNERS declares `{variant}` twice"),
            ));
        }
        if owner.is_empty() {
            out.push(finding(
                "rng-stream-ownership",
                file,
                *line,
                format!("STREAM_OWNERS entry `{variant}` has an empty owner"),
            ));
        }
    }
    for v in &en.variants {
        if !owners.entries.iter().any(|(n, _, _)| n == &v.name) {
            out.push(finding(
                "rng-stream-ownership",
                file,
                v.line,
                format!(
                    "RngStreams::{} has no STREAM_OWNERS entry; declare which crate owns the \
                     stream before anything draws it",
                    v.name
                ),
            ));
        }
    }
}

/// Use half, per file: referencing `RngStreams::Variant` outside the
/// owner crate (test code exempt) breaks the stream-isolation contract
/// that record/replay and the PR 3 re-pin rest on.
pub fn rng_stream_ownership_uses(
    wf: &WorkspaceFile,
    owners: &StreamOwners,
    out: &mut Vec<Finding>,
) {
    let file = &wf.info;
    if file.rel == RNG_PATH || file.is_test_path || file.is_testkit {
        return;
    }
    let here = file.crate_name.as_deref().unwrap_or("root");
    let t = &wf.src.tokens;
    for i in 0..t.len() {
        if !(t[i].is_ident("RngStreams")
            && i + 3 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].kind == TokenKind::Ident)
        {
            continue;
        }
        if wf.src.in_test_region(i) {
            continue;
        }
        let variant = &t[i + 3].text;
        let Some((_, owner, _)) = owners.entries.iter().find(|(n, _, _)| n == variant) else {
            continue; // declaration half already flags uncovered variants
        };
        if owner == TEST_ONLY_OWNER {
            out.push(finding(
                "rng-stream-ownership",
                file,
                t[i].line,
                format!("RngStreams::{variant} is declared test-only; sim code must not draw it"),
            ));
        } else if owner != here {
            out.push(finding(
                "rng-stream-ownership",
                file,
                t[i].line,
                format!(
                    "RngStreams::{variant} is owned by crate `{owner}`; drawing it from \
                     `{here}` breaks stream isolation"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// float-reduce-order
// ---------------------------------------------------------------------------

/// Verdict on whether a reduction source is deterministically ordered.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Ordering2 {
    /// Provably ordered (slice/Vec/range/BTree/struct-of-those).
    Ordered,
    /// Provably unordered (HashMap/HashSet/BinaryHeap in the chain).
    Unordered(String),
    /// The graph cannot prove it either way — still a finding; ascribe
    /// the type, restructure, or justify with a pragma.
    Unknown(String),
}

const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "BinaryHeap"];
const ORDERED_CONTAINERS: &[&str] = &["Vec", "VecDeque", "BTreeMap", "BTreeSet", "String"];
const PRIMITIVES: &[&str] = &[
    "f64", "f32", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize", "bool", "char", "str",
];

/// Classify a rendered type string.
fn classify_ty(
    ty: &str,
    krate: &str,
    graph: &ItemGraph,
    files: &[WorkspaceFile],
    depth: usize,
    visited: &mut BTreeSet<String>,
) -> Ordering2 {
    for u in UNORDERED_TYPES {
        if ty_mentions(ty, u) {
            return Ordering2::Unordered((*u).to_string());
        }
    }
    if ORDERED_CONTAINERS.iter().any(|c| ty_mentions(ty, c)) || ty.contains('[') {
        return Ordering2::Ordered;
    }
    if ty
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .all(|w| {
            PRIMITIVES.contains(&w)
                || matches!(w, "Option" | "Box" | "mut" | "dyn" | "const")
                || w.chars().next().is_some_and(char::is_numeric)
        })
    {
        return Ordering2::Ordered;
    }
    if depth == 0 {
        return Ordering2::Unknown(format!("type `{ty}`"));
    }
    // Last resort: a struct whose every declared field is ordered is
    // itself an ordered source (e.g. ResVec's `[f64; MAX_DIM]` payload).
    for w in ty.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if w.is_empty()
            || PRIMITIVES.contains(&w)
            || !w.chars().next().is_some_and(char::is_uppercase)
        {
            continue;
        }
        if !visited.insert(w.to_string()) {
            continue;
        }
        match struct_ordering(w, krate, graph, files, depth - 1, visited) {
            Some(v) => return v,
            None => continue,
        }
    }
    Ordering2::Unknown(format!("type `{ty}`"))
}

/// Ordering verdict for a struct type, by classifying every declared
/// field; `None` when the graph has no field info for it.
fn struct_ordering(
    name: &str,
    krate: &str,
    graph: &ItemGraph,
    files: &[WorkspaceFile],
    depth: usize,
    visited: &mut BTreeSet<String>,
) -> Option<Ordering2> {
    let fields = graph.struct_fields(files, krate, name)?;
    if fields.is_empty() {
        return None;
    }
    let mut verdict = Ordering2::Ordered;
    for f in fields {
        match classify_ty(&f.ty, krate, graph, files, depth, visited) {
            Ordering2::Unordered(u) => {
                return Some(Ordering2::Unordered(format!("{name}.{}: {u}", f.name)))
            }
            Ordering2::Unknown(u) => verdict = Ordering2::Unknown(u),
            Ordering2::Ordered => {}
        }
    }
    Some(verdict)
}

/// The syntactic base of a method-call chain ending at `dot` (a `.`
/// token index): walk left over `.method(args)` / `[index]` / `.field`
/// segments to the receiver expression's start.
fn chain_base(t: &[Token], dot: usize) -> Option<usize> {
    let mut j = dot; // invariant: t[j] is the `.` we are left of
    loop {
        if j == 0 {
            return None;
        }
        let mut k = j - 1;
        // Element left of the dot.
        loop {
            if t[k].is_punct(')') || t[k].is_punct(']') {
                // Balanced group; land on its opener's left neighbour.
                let (open, close) = if t[k].is_punct(')') {
                    ('(', ')')
                } else {
                    ('[', ']')
                };
                let mut depth = 0usize;
                loop {
                    if t[k].is_punct(close) {
                        depth += 1;
                    } else if t[k].is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        return None;
                    }
                    k -= 1;
                }
                if k == 0 {
                    return Some(k);
                }
                k -= 1;
                continue;
            }
            break;
        }
        if t[k].kind == TokenKind::Ident || t[k].kind == TokenKind::Num {
            // Path segment `a::b` — walk to the path head.
            while k >= 2 && t[k - 1].is_punct(':') && t[k - 2].is_punct(':') {
                if k >= 3 && t[k - 3].kind == TokenKind::Ident {
                    k -= 3;
                } else {
                    break;
                }
            }
            if k >= 1 && t[k - 1].is_punct('.') {
                j = k - 1; // keep walking the chain
                continue;
            }
            return Some(k);
        }
        // `(expr)` group directly (no call ident), string, etc.
        return Some(k);
    }
}

/// Find the type ascribed to `name` anywhere in the file (`name: T` in
/// params, lets or fields), rendered; unions conservatively when the
/// name is ascribed more than once.
fn ascriptions(t: &[Token], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !(t[i].kind == TokenKind::Ident
            && t[i].text == name
            && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && !t.get(i + 2).is_some_and(|x| x.is_punct(':')))
        {
            continue;
        }
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut ty = String::new();
        while j < t.len() {
            let x = &t[j];
            if depth == 0
                && (x.is_punct(',')
                    || x.is_punct(';')
                    || x.is_punct(')')
                    || x.is_punct('=')
                    || x.is_punct('{')
                    || x.is_punct('|'))
            {
                break;
            }
            if x.is_punct('<') || x.is_punct('(') || x.is_punct('[') {
                depth += 1;
            } else if x.is_punct('>') || x.is_punct(')') || x.is_punct(']') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            if !ty.is_empty() {
                ty.push(' ');
            }
            ty.push_str(&x.text);
            j += 1;
        }
        if !ty.is_empty() {
            out.push(ty);
        }
    }
    out
}

/// Does `name` have an initializer that proves an ordered container
/// (`= vec![..]`, `= Vec::new()`, `.collect::<Vec<..>>()` …)?
fn ordered_initializer(t: &[Token], name: &str) -> bool {
    for i in 0..t.len() {
        if !(t[i].kind == TokenKind::Ident
            && t[i].text == name
            && t.get(i + 1).is_some_and(|x| x.is_punct('=')))
        {
            continue;
        }
        let mut j = i + 2;
        while j < t.len() && !t[j].is_punct(';') {
            if t[j].kind == TokenKind::Ident
                && (ORDERED_CONTAINERS.contains(&t[j].text.as_str())
                    || t[j].text == "vec"
                    || t[j].text == "to_vec"
                    || t[j].text == "collect")
            {
                return true;
            }
            j += 1;
        }
    }
    false
}

/// Resolve the ordering verdict for the receiver chain ending at token
/// index `dot` (the `.` before `sum`/`fold`).
fn resolve_receiver(
    wf: &WorkspaceFile,
    graph: &ItemGraph,
    files: &[WorkspaceFile],
    dot: usize,
) -> Ordering2 {
    let t = &wf.src.tokens;
    let Some(base) = chain_base(t, dot) else {
        return Ordering2::Unknown("unresolvable receiver".into());
    };
    // A literal range anywhere in the base expression proves ordering:
    // `(0..n).map(..)`, `(1..=k)`, …
    let upto = (base..dot).take(64);
    for i in upto {
        if t[i].is_punct('.')
            && t.get(i + 1).is_some_and(|x| x.is_punct('.'))
            && !t.get(i.wrapping_sub(1)).is_some_and(|x| x.is_punct('.'))
        {
            return Ordering2::Ordered;
        }
    }
    let krate = wf.info.crate_name.as_deref().unwrap_or("root");
    let mut visited = BTreeSet::new();
    if t[base].is_ident("self") {
        let seg = match t.get(base + 2) {
            Some(x) if t[base + 1].is_punct('.') && x.kind == TokenKind::Ident => x,
            _ => return Ordering2::Unknown("unresolvable `self.` chain".into()),
        };
        let Some(imp) = wf.items.enclosing_impl(dot) else {
            return Ordering2::Unknown("`self.` outside a resolvable impl".into());
        };
        if t.get(base + 3).is_some_and(|x| x.is_punct('(')) {
            // `self.method(..)`: ordered iff the Self struct is built
            // only from ordered parts.
            return match struct_ordering(&imp.name, krate, graph, files, 2, &mut visited) {
                Some(v) => v,
                None => Ordering2::Unknown(format!("method on `{}` (no field info)", imp.name)),
            };
        }
        return match graph.field_ty(files, krate, &imp.name, &seg.text) {
            Some(ty) => classify_ty(ty, krate, graph, files, 2, &mut visited),
            None => Ordering2::Unknown(format!("field `{}.{}`", imp.name, seg.text)),
        };
    }
    if t[base].kind == TokenKind::Num {
        return Ordering2::Ordered;
    }
    if t[base].kind == TokenKind::Ident {
        if t.get(base + 1).is_some_and(|x| x.is_punct('(')) {
            return Ordering2::Unknown(format!("call `{}(..)`", t[base].text));
        }
        if t.get(base + 1).is_some_and(|x| x.is_punct(':')) {
            // Path base `Type::CONST.iter()` — try the type's fields.
            return match struct_ordering(&t[base].text, krate, graph, files, 2, &mut visited) {
                Some(v) => v,
                None => Ordering2::Unknown(format!("path `{}::..`", t[base].text)),
            };
        }
        let name = &t[base].text;
        let tys = ascriptions(t, name);
        let mut verdict = None;
        for ty in &tys {
            match classify_ty(ty, krate, graph, files, 2, &mut visited) {
                u @ Ordering2::Unordered(_) => return u,
                Ordering2::Ordered => verdict = Some(Ordering2::Ordered),
                Ordering2::Unknown(_) => {}
            }
        }
        if let Some(v) = verdict {
            return v;
        }
        if ordered_initializer(t, name) {
            return Ordering2::Ordered;
        }
        return Ordering2::Unknown(format!("binding `{name}` (no type ascription found)"));
    }
    Ordering2::Unknown("unresolvable receiver".into())
}

/// Is there an `f64`/`f32` ascription or return type in the statement
/// enclosing token `i`? Used to type untyped `.sum()` calls.
fn statement_is_float(t: &[Token], i: usize) -> bool {
    let mut j = i;
    loop {
        if t[j].is_punct(';') || t[j].is_punct('{') || t[j].is_punct('}') {
            break;
        }
        if t[j].is_ident("f64") || t[j].is_ident("f32") {
            return true;
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
    // Statement opens a body: the fn's return type sits just before.
    if t[j].is_punct('{') {
        let lo = j.saturating_sub(6);
        return t[lo..j]
            .iter()
            .any(|x| x.is_ident("f64") || x.is_ident("f32"));
    }
    false
}

fn verdict_finding(file: &FileInfo, line: u32, what: &str, v: Ordering2, out: &mut Vec<Finding>) {
    match v {
        Ordering2::Ordered => {}
        Ordering2::Unordered(src) => out.push(finding(
            "float-reduce-order",
            file,
            line,
            format!(
                "{what} over unordered source ({src}): float addition is non-associative, \
                 a sharded merge would change the total"
            ),
        )),
        Ordering2::Unknown(src) => out.push(finding(
            "float-reduce-order",
            file,
            line,
            format!(
                "{what} over {src}: the item graph cannot prove a deterministic order; \
                 ascribe an ordered type or justify with a pragma"
            ),
        )),
    }
}

/// f64 reductions on sim paths must be provably order-deterministic.
pub fn float_reduce_order(
    wf: &WorkspaceFile,
    graph: &ItemGraph,
    files: &[WorkspaceFile],
    out: &mut Vec<Finding>,
) {
    let file = &wf.info;
    if !file.is_sim || file.is_test_path || file.is_testkit {
        return;
    }
    let t = &wf.src.tokens;
    for i in 0..t.len() {
        if !t[i].is_punct('.') || wf.src.in_test_region(i) {
            continue;
        }
        let Some(m) = t.get(i + 1) else { continue };
        if m.is_ident("sum") {
            let typed_float = t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 4).is_some_and(|x| x.is_punct('<'))
                && t.get(i + 5)
                    .is_some_and(|x| x.is_ident("f64") || x.is_ident("f32"));
            let untyped = t.get(i + 2).is_some_and(|x| x.is_punct('('));
            let is_float = typed_float || (untyped && statement_is_float(t, i));
            if is_float {
                let v = resolve_receiver(wf, graph, files, i);
                verdict_finding(file, m.line, "f64 `sum()`", v, out);
            }
        } else if m.is_ident("fold") {
            // Float-seeded fold: `.fold(0.0, ..)` / `.fold(0f64, ..)`.
            let seed_is_float = t.get(i + 3).is_some_and(|x| {
                x.kind == TokenKind::Num
                    && (x.text.contains('.') || x.text.contains("f6") || x.text.contains("f3"))
            });
            if t.get(i + 2).is_some_and(|x| x.is_punct('(')) && seed_is_float {
                let v = resolve_receiver(wf, graph, files, i);
                verdict_finding(file, m.line, "float-seeded `fold`", v, out);
            }
        }
    }
    // `acc += x` inside a `for` loop whose source is not provably
    // ordered — the loop-shaped spelling of the same reduction.
    for i in 0..t.len() {
        if !t[i].is_ident("for") || wf.src.in_test_region(i) {
            continue;
        }
        let limit = (i + 40).min(t.len());
        let Some(inp) = (i + 1..limit).find(|&j| t[j].is_ident("in")) else {
            continue;
        };
        let Some(open) = (inp + 1..t.len()).find(|&j| t[j].is_punct('{')) else {
            continue;
        };
        // Resolve the loop source: reuse the chain resolver by pointing
        // it at the last `.` of the source chain, or at a plain binding.
        let mut j = inp + 1;
        while j < open && (t[j].is_punct('&') || t[j].is_ident("mut")) {
            j += 1;
        }
        let src_verdict = {
            let last_dot = (j..open).rev().find(|&k| {
                t[k].is_punct('.')
                    && !t.get(k + 1).is_some_and(|x| x.is_punct('.'))
                    && !t.get(k.wrapping_sub(1)).is_some_and(|x| x.is_punct('.'))
            });
            match last_dot {
                Some(d) => resolve_receiver(wf, graph, files, d),
                None if (j..open).any(|k| t[k].is_punct('.')) => Ordering2::Ordered, // bare range
                None if t[j].kind == TokenKind::Ident => {
                    let mut visited = BTreeSet::new();
                    let krate = file.crate_name.as_deref().unwrap_or("root");
                    let tys = ascriptions(t, &t[j].text);
                    let mut v = Ordering2::Unknown(format!("binding `{}`", t[j].text));
                    for ty in &tys {
                        match classify_ty(ty, krate, graph, files, 2, &mut visited) {
                            u @ Ordering2::Unordered(_) => {
                                v = u;
                                break;
                            }
                            Ordering2::Ordered => v = Ordering2::Ordered,
                            Ordering2::Unknown(_) => {}
                        }
                    }
                    if matches!(v, Ordering2::Unknown(_)) && ordered_initializer(t, &t[j].text) {
                        v = Ordering2::Ordered;
                    }
                    v
                }
                None => Ordering2::Unknown("loop source".into()),
            }
        };
        if src_verdict == Ordering2::Ordered {
            continue;
        }
        // Scan the body for float `+=` accumulation.
        let mut depth = 0usize;
        let mut k = open;
        while k < t.len() {
            if t[k].is_punct('{') {
                depth += 1;
            } else if t[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t[k].is_punct('+')
                && t.get(k + 1).is_some_and(|x| x.is_punct('='))
                && k > 0
                && t[k - 1].kind == TokenKind::Ident
            {
                let lhs = &t[k - 1].text;
                let lhs_float = ascriptions(t, lhs)
                    .iter()
                    .any(|ty| ty_mentions(ty, "f64") || ty_mentions(ty, "f32"));
                if lhs_float {
                    verdict_finding(
                        file,
                        t[k].line,
                        &format!("float `{lhs} +=` accumulation in a loop"),
                        src_verdict.clone(),
                        out,
                    );
                }
            }
            k += 1;
        }
    }
}
