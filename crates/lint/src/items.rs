//! Layer two of the analyzer: a per-file **item parser** on top of the
//! token stream.
//!
//! [`FileItems::parse`] walks a lexed [`SourceFile`] and recovers the
//! item tree — `fn` / `struct` / `enum` / `impl` / `mod` / `trait` /
//! `static` / `const` / macro invocations — with token spans, attribute
//! context, struct fields (name + rendered type) and enum variants.
//! This is still not `syn`: it is a recovering scanner that understands
//! just enough header/body structure for cross-file rules to ask
//! questions like "which enum variants does `RngStreams` declare?",
//! "what is the declared type of field `xs` on struct `Acc`?" or "which
//! `impl` block encloses token 3127?". Anything it cannot parse is
//! skipped token-by-token, never an error: rules degrade to finding
//! nothing rather than crashing on exotic syntax.
//!
//! `mod`, `impl` and `trait` bodies are recursed into (their items are
//! real declarations); `fn` bodies are not (statements are not items —
//! rules that care about expression patterns keep using the raw token
//! stream, with [`FileItems::enclosing`] for context).

use crate::lexer::{SourceFile, Token, TokenKind};

/// What kind of item a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(..)` (free, impl or trait fn).
    Fn,
    /// `struct Name { .. }` / tuple / unit struct.
    Struct,
    /// `enum Name { .. }`.
    Enum,
    /// `impl [Trait for] Type { .. }` — `name` is the Self type.
    Impl,
    /// `mod name { .. }` or `mod name;`.
    Mod,
    /// `trait Name { .. }`.
    Trait,
    /// `static NAME: T = ..;`.
    Static,
    /// `const NAME: T = ..;`.
    Const,
    /// `name! { .. }` / `name!(..)` at item position (e.g.
    /// `thread_local!`).
    MacroCall,
}

/// One enum variant.
#[derive(Clone, Debug)]
pub struct Variant {
    pub name: String,
    pub line: u32,
}

/// One struct field: name plus its declared type, rendered as
/// space-joined tokens (`Vec < f64 >`). Use [`ty_mentions`] to test for
/// a type ident rather than substring-matching the rendering.
#[derive(Clone, Debug)]
pub struct Field {
    pub name: String,
    pub ty: String,
    pub line: u32,
}

/// Does a rendered type mention `ident` as a whole path segment?
pub fn ty_mentions(ty: &str, ident: &str) -> bool {
    ty.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|w| w == ident)
}

/// One parsed item.
#[derive(Clone, Debug)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name; for `impl` the Self type, for macro calls the macro
    /// name (without `!`).
    pub name: String,
    /// Line of the introducing keyword.
    pub line: u32,
    /// Token index of the introducing keyword.
    pub start: usize,
    /// Token range `[open+1, close)` inside the item's braces, when it
    /// has a braced body.
    pub body: Option<(usize, usize)>,
    /// Outer attributes, rendered (`cfg ( test )`, `ignore`, …).
    pub attrs: Vec<String>,
    /// Index of the enclosing item in [`FileItems::items`], if nested.
    pub parent: Option<usize>,
    /// `static mut` — state every run of the process shares.
    pub is_static_mut: bool,
    /// Enum variants (empty for other kinds).
    pub variants: Vec<Variant>,
    /// Struct fields (empty for other kinds / tuple structs).
    pub fields: Vec<Field>,
}

/// The item tree of one file, flattened (parent links preserve nesting).
#[derive(Debug, Default)]
pub struct FileItems {
    pub items: Vec<Item>,
}

impl FileItems {
    /// Parse the item tree out of a lexed file.
    pub fn parse(sf: &SourceFile) -> FileItems {
        let mut out = FileItems { items: Vec::new() };
        scan(&sf.tokens, 0, sf.tokens.len(), None, &mut out.items);
        out
    }

    /// First item of `kind` named `name`, at any nesting depth.
    pub fn find(&self, kind: ItemKind, name: &str) -> Option<&Item> {
        self.items.iter().find(|i| i.kind == kind && i.name == name)
    }

    /// Innermost item whose body contains token index `tok`.
    pub fn enclosing(&self, tok: usize) -> Option<&Item> {
        self.items
            .iter()
            .filter(|i| i.body.is_some_and(|(s, e)| s <= tok && tok < e))
            .min_by_key(|i| {
                let (s, e) = i.body.expect("filtered on body");
                e - s
            })
    }

    /// Innermost `impl` block containing token index `tok` — the Self
    /// type `self.field` resolves against at that point.
    pub fn enclosing_impl(&self, tok: usize) -> Option<&Item> {
        self.items
            .iter()
            .filter(|i| {
                i.kind == ItemKind::Impl && i.body.is_some_and(|(s, e)| s <= tok && tok < e)
            })
            .min_by_key(|i| {
                let (s, e) = i.body.expect("filtered on body");
                e - s
            })
    }
}

/// Skip a balanced group opened at `i` (whose token is `open`); returns
/// the index just past the matching closer. Angle brackets are not
/// handled here (they are ambiguous with comparisons); callers that walk
/// generics use [`skip_generics`].
fn skip_group(t: &[Token], i: usize, open: char, close: char) -> usize {
    debug_assert!(t[i].is_punct(open));
    let mut depth = 0usize;
    let mut j = i;
    while j < t.len() {
        if t[j].is_punct(open) {
            depth += 1;
        } else if t[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    t.len()
}

/// Skip `<..>` generics opened at `i`; tolerates nested groups.
fn skip_generics(t: &[Token], i: usize) -> usize {
    debug_assert!(t[i].is_punct('<'));
    let mut depth = 0usize;
    let mut j = i;
    while j < t.len() {
        if t[j].is_punct('<') {
            depth += 1;
        } else if t[j].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t[j].is_punct('(') {
            j = skip_group(t, j, '(', ')');
            continue;
        } else if t[j].is_punct(';') || t[j].is_punct('{') {
            // Bail-out: this was a comparison, not generics.
            return i + 1;
        }
        j += 1;
    }
    t.len()
}

/// Render tokens `[s, e)` as a space-joined string (type display).
fn render(t: &[Token], s: usize, e: usize) -> String {
    let mut out = String::new();
    for tok in &t[s..e.min(t.len())] {
        if !out.is_empty() {
            out.push(' ');
        }
        match tok.kind {
            TokenKind::Str => {
                out.push('"');
                out.push_str(&tok.text);
                out.push('"');
            }
            _ => out.push_str(&tok.text),
        }
    }
    out
}

/// Advance past one outer attribute `#[..]` at `i`; returns
/// `(rendered, next)` or `None` when `i` is not an attribute start.
fn parse_attr(t: &[Token], i: usize) -> Option<(String, usize)> {
    if !(t[i].is_punct('#') && t.get(i + 1).is_some_and(|x| x.is_punct('['))) {
        return None;
    }
    let end = skip_group(t, i + 1, '[', ']');
    Some((render(t, i + 2, end.saturating_sub(1)), end))
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "impl", "mod", "trait", "static", "const",
];

/// Scan `[i, end)` for items, appending to `items` with `parent` links.
fn scan(t: &[Token], mut i: usize, end: usize, parent: Option<usize>, items: &mut Vec<Item>) {
    while i < end {
        // Outer attributes (inner `#![..]` attrs are skipped unrecorded).
        let mut attrs = Vec::new();
        loop {
            if t[i..].len() >= 2 && t[i].is_punct('#') && t[i + 1].is_punct('!') {
                i = skip_group(t, i + 2, '[', ']');
                continue;
            }
            match parse_attr(t, i) {
                Some((a, next)) if next <= end => {
                    attrs.push(a);
                    i = next;
                }
                _ => break,
            }
        }
        if i >= end {
            break;
        }
        // Visibility / qualifiers before the item keyword.
        let mut j = i;
        while j < end {
            if t[j].is_ident("pub") {
                j += 1;
                if j < end && t[j].is_punct('(') {
                    j = skip_group(t, j, '(', ')');
                }
            } else if t[j].is_ident("unsafe")
                || t[j].is_ident("async")
                || t[j].is_ident("extern")
                || (t[j].kind == TokenKind::Str && j > i)
            {
                j += 1;
            } else {
                break;
            }
        }
        let Some(kw) = t.get(j) else { break };
        let is_item_kw = kw.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&kw.text.as_str());
        // `const fn` / `const _` — the `fn` path handles the former.
        if is_item_kw {
            if kw.text == "const" && t.get(j + 1).is_some_and(|x| x.is_ident("fn")) {
                i = parse_item(t, j + 1, end, parent, attrs, false, items);
            } else {
                let static_mut =
                    kw.text == "static" && t.get(j + 1).is_some_and(|x| x.is_ident("mut"));
                i = parse_item(t, j, end, parent, attrs, static_mut, items);
            }
            continue;
        }
        // `use ..;` — skip whole (keeps `Cell` in imports out of
        // expression-pattern rules that consult item context).
        if kw.is_ident("use") {
            while j < end && !t[j].is_punct(';') {
                j += 1;
            }
            i = j + 1;
            continue;
        }
        // Macro call at item position: `name ! ( .. )` / `name ! { .. }`.
        if kw.kind == TokenKind::Ident && t.get(j + 1).is_some_and(|x| x.is_punct('!')) {
            let (open, close) = match t.get(j + 2) {
                Some(x) if x.is_punct('{') => ('{', '}'),
                Some(x) if x.is_punct('(') => ('(', ')'),
                Some(x) if x.is_punct('[') => ('[', ']'),
                _ => {
                    i = j + 2;
                    continue;
                }
            };
            let after = skip_group(t, j + 2, open, close);
            items.push(Item {
                kind: ItemKind::MacroCall,
                name: kw.text.clone(),
                line: kw.line,
                start: j,
                body: Some((j + 3, after.saturating_sub(1))),
                attrs,
                parent,
                is_static_mut: false,
                variants: Vec::new(),
                fields: Vec::new(),
            });
            i = after;
            continue;
        }
        i = j + 1;
    }
}

/// Parse one item whose keyword sits at `kw_at`; returns the index just
/// past the item.
#[allow(clippy::too_many_arguments)]
fn parse_item(
    t: &[Token],
    kw_at: usize,
    end: usize,
    parent: Option<usize>,
    attrs: Vec<String>,
    is_static_mut: bool,
    items: &mut Vec<Item>,
) -> usize {
    let kw = &t[kw_at];
    let kind = match kw.text.as_str() {
        "fn" => ItemKind::Fn,
        "struct" => ItemKind::Struct,
        "enum" => ItemKind::Enum,
        "impl" => ItemKind::Impl,
        "mod" => ItemKind::Mod,
        "trait" => ItemKind::Trait,
        "static" => ItemKind::Static,
        _ => ItemKind::Const,
    };
    let mut j = kw_at + 1;
    if is_static_mut {
        j += 1; // the `mut`
    }
    // Name. For `impl [Trait for] Type` the Self type is the last path
    // segment before the body (after `for` when present).
    let name = if kind == ItemKind::Impl {
        let mut name = String::new();
        let mut k = j;
        while k < end && !t[k].is_punct('{') && !t[k].is_punct(';') {
            if t[k].is_punct('<') {
                k = skip_generics(t, k);
                continue;
            }
            if t[k].is_ident("for") {
                name.clear(); // Self type follows the trait path
            } else if t[k].kind == TokenKind::Ident && !t[k].is_ident("where") {
                name = t[k].text.clone();
            }
            k += 1;
        }
        name
    } else {
        t.get(j)
            .filter(|x| x.kind == TokenKind::Ident)
            .map(|x| x.text.clone())
            .unwrap_or_default()
    };
    // Find the body brace or terminating semicolon, balancing groups.
    let mut k = j;
    while k < end {
        if t[k].is_punct('(') {
            k = skip_group(t, k, '(', ')');
            continue;
        }
        if t[k].is_punct('[') {
            k = skip_group(t, k, '[', ']');
            continue;
        }
        if t[k].is_punct('<') {
            k = skip_generics(t, k);
            continue;
        }
        if t[k].is_punct('{') || t[k].is_punct(';') {
            break;
        }
        // `static X: T = Foo { .. };` / `const X: T = if ..` — an `=`
        // initializer may contain braces that are not the item body.
        if (kind == ItemKind::Static || kind == ItemKind::Const) && t[k].is_punct('=') {
            while k < end && !t[k].is_punct(';') {
                if t[k].is_punct('{') {
                    k = skip_group(t, k, '{', '}');
                } else if t[k].is_punct('(') {
                    k = skip_group(t, k, '(', ')');
                } else {
                    k += 1;
                }
            }
            break;
        }
        k += 1;
    }
    let (body, after) = if k < end && t[k].is_punct('{') {
        let close = skip_group(t, k, '{', '}');
        (Some((k + 1, close.saturating_sub(1))), close)
    } else {
        (None, (k + 1).min(end))
    };
    let idx = items.len();
    items.push(Item {
        kind,
        name,
        line: kw.line,
        start: kw_at,
        body,
        attrs,
        parent,
        is_static_mut,
        variants: Vec::new(),
        fields: Vec::new(),
    });
    if let Some((bs, be)) = body {
        match kind {
            ItemKind::Enum => items[idx].variants = parse_variants(t, bs, be),
            ItemKind::Struct => items[idx].fields = parse_fields(t, bs, be),
            ItemKind::Mod | ItemKind::Impl | ItemKind::Trait => {
                scan(t, bs, be, Some(idx), items);
            }
            _ => {}
        }
    }
    after
}

/// Enum variants inside body `[s, e)`.
fn parse_variants(t: &[Token], s: usize, e: usize) -> Vec<Variant> {
    let mut out = Vec::new();
    let mut i = s;
    while i < e {
        // Skip attributes on the variant.
        while let Some((_, next)) = parse_attr(t, i) {
            i = next;
        }
        if i >= e {
            break;
        }
        if t[i].kind == TokenKind::Ident {
            out.push(Variant {
                name: t[i].text.clone(),
                line: t[i].line,
            });
            i += 1;
            // Skip payload / discriminant up to the separating comma.
            while i < e && !t[i].is_punct(',') {
                if t[i].is_punct('(') {
                    i = skip_group(t, i, '(', ')');
                } else if t[i].is_punct('{') {
                    i = skip_group(t, i, '{', '}');
                } else {
                    i += 1;
                }
            }
        }
        i += 1; // the comma (or recovery step)
    }
    out
}

/// Named struct fields inside body `[s, e)`.
fn parse_fields(t: &[Token], s: usize, e: usize) -> Vec<Field> {
    let mut out = Vec::new();
    let mut i = s;
    while i < e {
        while let Some((_, next)) = parse_attr(t, i) {
            i = next;
        }
        if i >= e {
            break;
        }
        if t[i].is_ident("pub") {
            i += 1;
            if i < e && t[i].is_punct('(') {
                i = skip_group(t, i, '(', ')');
            }
        }
        if i + 1 < e
            && t[i].kind == TokenKind::Ident
            && t[i + 1].is_punct(':')
            && !t.get(i + 2).is_some_and(|x| x.is_punct(':'))
        {
            let name = t[i].text.clone();
            let line = t[i].line;
            let ty_start = i + 2;
            let mut j = ty_start;
            while j < e && !t[j].is_punct(',') {
                if t[j].is_punct('<') {
                    j = skip_generics(t, j);
                } else if t[j].is_punct('(') {
                    j = skip_group(t, j, '(', ')');
                } else if t[j].is_punct('[') {
                    j = skip_group(t, j, '[', ']');
                } else {
                    j += 1;
                }
            }
            out.push(Field {
                name,
                ty: render(t, ty_start, j),
                line,
            });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        FileItems::parse(&SourceFile::parse(src))
    }

    #[test]
    fn items_across_kinds_are_found() {
        let src = r#"
pub struct S { pub xs: Vec<f64>, m: std::collections::HashMap<u32, f64> }
enum E { A, B(u32), C { x: u8 }, }
impl S { pub fn total(&self) -> f64 { 0.0 } }
mod inner { pub const K: usize = 3; }
static mut GLOBAL: u64 = 0;
thread_local! { static TL: u8 = 0; }
"#;
        let fi = parse(src);
        let s = fi.find(ItemKind::Struct, "S").expect("struct S");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "xs");
        assert!(ty_mentions(&s.fields[0].ty, "Vec"));
        assert!(ty_mentions(&s.fields[1].ty, "HashMap"));
        assert!(!ty_mentions(&s.fields[0].ty, "Hash"), "no substring match");

        let e = fi.find(ItemKind::Enum, "E").expect("enum E");
        let names: Vec<_> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);

        assert!(fi.find(ItemKind::Impl, "S").is_some());
        assert!(fi.find(ItemKind::Fn, "total").is_some());
        assert!(fi.find(ItemKind::Mod, "inner").is_some());
        assert!(fi.find(ItemKind::Const, "K").is_some());
        assert!(
            fi.find(ItemKind::Static, "GLOBAL")
                .expect("static")
                .is_static_mut
        );
        assert!(fi.find(ItemKind::MacroCall, "thread_local").is_some());
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let fi = parse("impl<T: Clone> Iterator for Wrap<T> { fn next(&mut self) {} }");
        let im = fi
            .find(ItemKind::Impl, "Wrap")
            .expect("impl names Self type");
        assert!(im.body.is_some());
        let f = fi.find(ItemKind::Fn, "next").expect("nested fn");
        assert_eq!(f.parent, Some(0));
    }

    #[test]
    fn enclosing_impl_resolves_innermost() {
        let src = "impl A { fn f(&self) { self.go(); } }\nimpl B { fn g(&self) {} }";
        let fi = parse(src);
        let sf = SourceFile::parse(src);
        let go = sf.tokens.iter().position(|t| t.is_ident("go")).unwrap();
        assert_eq!(fi.enclosing_impl(go).unwrap().name, "A");
        assert_eq!(fi.enclosing(go).unwrap().name, "f");
    }

    #[test]
    fn attrs_attach_and_const_initializer_braces_do_not_confuse() {
        let src =
            "#[cfg(test)]\n#[ignore]\nfn t() {}\nstatic X: Foo = Foo { a: 1 };\nfn after() {}";
        let fi = parse(src);
        let t = fi.find(ItemKind::Fn, "t").unwrap();
        assert_eq!(t.attrs, ["cfg ( test )", "ignore"]);
        let x = fi.find(ItemKind::Static, "X").unwrap();
        assert!(x.body.is_none(), "initializer braces are not a body");
        assert!(fi.find(ItemKind::Fn, "after").is_some());
    }

    #[test]
    fn tuple_and_unit_structs_parse_without_fields() {
        let fi = parse("struct U;\nstruct T(u32, Vec<f64>);\nfn live() {}");
        assert!(fi.find(ItemKind::Struct, "U").is_some());
        assert!(fi.find(ItemKind::Struct, "T").unwrap().fields.is_empty());
        assert!(fi.find(ItemKind::Fn, "live").is_some());
    }
}
