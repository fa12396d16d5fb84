//! The six spinlint rules plus waiver application.
//!
//! Every rule is a pattern over the flat token stream from
//! [`crate::lexer`]; none needs a real parse. See ARCHITECTURE.md
//! ("Determinism contract") for what each rule protects.

use crate::config::Config;
use crate::lexer::{self, Tok, TokKind};

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule name (`D1`, `D2`, `C1`, `C2`, `P1`, `E1`, or `W0` for waiver
    /// hygiene problems).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// True when an in-source waiver covers this violation (waived
    /// violations are reported but do not fail `--deny`).
    pub waived: bool,
}

/// Lint one file's source text under `cfg`. `path` must be
/// workspace-relative with `/` separators.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let scanned = lexer::scan(src);
    let toks = lexer::strip_cfg_test(scanned.toks);
    let mut out = Vec::new();

    // Waiver hygiene first: a waiver without a reason (or that fails to
    // parse) is itself a violation, and is never waivable.
    for w in &scanned.waivers {
        if let Some(msg) = &w.malformed {
            out.push(Violation {
                rule: "W0".into(),
                path: path.into(),
                line: w.line,
                message: format!("malformed spinlint waiver: {msg}"),
                waived: false,
            });
            continue;
        }
        if !w.has_reason {
            out.push(Violation {
                rule: "W0".into(),
                path: path.into(),
                line: w.line,
                message: "waiver is missing its mandatory `-- reason` clause".into(),
                waived: false,
            });
        }
        for r in &w.rules {
            if !matches!(r.as_str(), "D1" | "D2" | "C1" | "C2" | "P1" | "E1") {
                out.push(Violation {
                    rule: "W0".into(),
                    path: path.into(),
                    line: w.line,
                    message: format!("waiver names unknown rule `{r}`"),
                    waived: false,
                });
            }
        }
    }

    if cfg.applies("D1", path) {
        rule_d1(path, &toks, &mut out);
    }
    if cfg.applies("D2", path) {
        rule_d2(path, &toks, &mut out);
    }
    if cfg.applies("C1", path) {
        rule_c1(path, &toks, &mut out);
    }
    if cfg.applies("C2", path) {
        rule_c2(path, &toks, &mut out);
    }
    if cfg.applies("E1", path) {
        rule_e1(path, &toks, &mut out);
    }
    if cfg.applies("P1", path) {
        let enums = cfg.protocol_enums();
        if !enums.is_empty() {
            scan_matches(&toks, &enums, path, &mut out);
        }
    }

    // Apply waivers: a waiver on line L covers violations on L (trailing
    // comment) and L+1 (comment on its own line above the code).
    for v in &mut out {
        if v.rule == "W0" {
            continue;
        }
        let covered = scanned.waivers.iter().any(|w| {
            w.malformed.is_none()
                && w.has_reason
                && w.rules.iter().any(|r| r == &v.rule)
                && (w.line == v.line || w.line + 1 == v.line)
        });
        if covered {
            v.waived = true;
        }
    }
    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

fn push(out: &mut Vec<Violation>, rule: &str, path: &str, line: u32, message: String) {
    out.push(Violation { rule: rule.into(), path: path.into(), line, message, waived: false });
}

/// Is `toks[i]` followed by a `::` path separator?
fn path_sep(toks: &[Tok], i: usize) -> bool {
    i + 2 < toks.len() && toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':')
}

/// D1 — determinism: no host time, threads, filesystem, sockets, or OS
/// entropy in the deterministic crates. All of these must flow through
/// the sim kernel, `common::vfs`, or a seeded RNG.
fn rule_d1(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    const BANNED_TYPES: &[(&str, &str)] = &[
        ("Instant", "host clock `std::time::Instant` (use virtual time from the sim kernel)"),
        ("SystemTime", "host clock `std::time::SystemTime` (use virtual time from the sim kernel)"),
        ("thread_rng", "OS-entropy RNG `thread_rng` (use a seeded RNG plumbed from the harness)"),
        ("OsRng", "OS-entropy RNG `OsRng` (use a seeded RNG plumbed from the harness)"),
        ("from_entropy", "OS-entropy seeding `from_entropy` (use a seeded RNG)"),
    ];
    const BANNED_STD: &[(&str, &str)] = &[
        ("thread", "host threads `std::thread` (deterministic crates are single-threaded sans-IO)"),
        ("fs", "host filesystem `std::fs` (all IO must flow through `common::vfs`)"),
        ("net", "host sockets `std::net` (all messaging must flow through the sim network)"),
    ];
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        for (name, what) in BANNED_TYPES {
            if t.text == *name {
                push(out, "D1", path, t.line, (*what).to_string());
            }
        }
        if t.text == "std" && path_sep(toks, i) {
            if let Some(next) = toks.get(i + 3) {
                for (name, what) in BANNED_STD {
                    if next.is_ident(name) {
                        push(out, "D1", path, t.line, (*what).to_string());
                    }
                }
            }
        }
    }
}

/// D2 — hash-order: no `HashMap`/`HashSet` in replicated-state-machine,
/// codec, or outbound-message paths. Their iteration order varies per
/// process, so any state or message derived from it diverges between a
/// failing run and its replay.
fn rule_d2(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for t in toks {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            push(
                out,
                "D2",
                path,
                t.line,
                format!(
                    "`{}` iteration order is nondeterministic here; use `BTree{}`",
                    t.text,
                    t.text.trim_start_matches("Hash")
                ),
            );
        }
    }
}

/// C1 — crash-safety: no `unwrap`/`expect`/`panic!`/`unreachable!` (or
/// `todo!`/`unimplemented!`) in recovery paths. Corruption must surface
/// as a typed error so the node can degrade per §9.1 instead of dying
/// at boot.
fn rule_c1(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
            push(
                out,
                "C1",
                path,
                t.line,
                format!("`.{}()` can panic on corrupt input; return a typed error", t.text),
            );
        }
        if next_bang
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        {
            push(
                out,
                "C1",
                path,
                t.line,
                format!("`{}!` in a recovery path; return a typed error instead", t.text),
            );
        }
    }
}

/// C2 — codec casts: no truncating `as` integer casts in wire/WAL
/// codecs; a length that does not fit must become a typed codec error
/// via `try_into`, not silent truncation. Widening casts (`as u64`,
/// `as u128`, `as i128`) are allowed.
fn rule_c2(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    const TRUNCATING: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize"];
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        if let Some(target) = toks.get(i + 1) {
            if target.kind == TokKind::Ident && TRUNCATING.contains(&target.text.as_str()) {
                push(
                    out,
                    "C2",
                    path,
                    t.line,
                    format!(
                        "truncating cast `as {}` in a codec; use a checked `try_into` conversion",
                        target.text
                    ),
                );
            }
        }
    }
}

/// E1 — discarded results: a `let _ =` whose expression calls into the
/// log, the file system, the store or the coordination service (`.wal.`,
/// `.vfs.`, `.store.`, `.coord.`) drops an error unseen. An error there
/// must fail-stop the node or reach the caller; a deliberate ignore
/// carries a waiver saying why losing it is safe.
fn rule_e1(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    const FIELDS: &[&str] = &["wal", "vfs", "store", "coord"];
    for (i, t) in toks.iter().enumerate() {
        let discard = t.is_ident("let")
            && toks.get(i + 1).is_some_and(|n| n.is_ident("_"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('='));
        if !discard {
            continue;
        }
        // The expression runs to the statement's `;` outside delimiters.
        let mut reached: Option<&str> = None;
        let mut depth = 0i64;
        let mut k = i + 3;
        while let Some(tok) = toks.get(k) {
            if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if tok.is_punct(';') && depth == 0 {
                break;
            } else if tok.is_punct('.') && toks.get(k + 2).is_some_and(|n| n.is_punct('.')) {
                let field = toks.get(k + 1).filter(|n| n.kind == TokKind::Ident);
                if let Some(f) = field.filter(|f| FIELDS.contains(&f.text.as_str())) {
                    reached.get_or_insert(f.text.as_str());
                }
            }
            k += 1;
        }
        if let Some(field) = reached {
            push(
                out,
                "E1",
                path,
                t.line,
                format!(
                    "`let _ =` discards the result of a `.{field}.` call; fail-stop, \
                     return it, or waive with the reason it may be lost"
                ),
            );
        }
    }
}

/// P1 — protocol exhaustiveness: a `match` whose arms name one of the
/// protocol enums must not end in a wildcard `_` arm, so adding a
/// variant breaks every dispatch site at lint time rather than being
/// silently swallowed.
fn scan_matches(toks: &[Tok], enums: &[String], path: &str, out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("match") {
            if let Some(end) = lint_one_match(toks, i, enums, path, out) {
                i = end;
                continue;
            }
        }
        i += 1;
    }
}

/// Lint the `match` whose keyword sits at `at`; returns the index just
/// past its closing `}` (or `None` if this is not a match expression).
fn lint_one_match(
    toks: &[Tok],
    at: usize,
    enums: &[String],
    path: &str,
    out: &mut Vec<Violation>,
) -> Option<usize> {
    // Find the match body's `{`: the first `{` outside any nested
    // delimiters in the scrutinee.
    let mut j = at + 1;
    let mut depth = 0i64;
    let body = loop {
        let t = toks.get(j)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return None; // `match` in type position or similar
            }
        } else if t.is_punct('{') {
            if depth == 0 {
                break j;
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if t.is_punct(';') && depth == 0 {
            return None;
        }
        j += 1;
    };

    let mut wildcard: Option<u32> = None;
    let mut protocol: Option<String> = None;
    let mut k = body + 1;
    loop {
        let t = toks.get(k)?;
        if t.is_punct('}') {
            k += 1;
            break;
        }
        // Pattern: tokens up to `=>` at arm depth 0.
        let pat_start = k;
        let mut depth = 0i64;
        while let Some(t) = toks.get(k) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if depth == 0 {
                    return Some(k); // malformed; bail out of this match
                }
                depth -= 1;
            } else if depth == 0
                && t.is_punct('=')
                && toks.get(k + 1).is_some_and(|n| n.is_punct('>'))
            {
                break;
            }
            k += 1;
        }
        let pat = &toks[pat_start..k.min(toks.len())];
        if pat.first().is_some_and(|p| p.text == "_")
            && (pat.len() == 1 || pat.get(1).is_some_and(|p| p.is_ident("if")))
        {
            wildcard.get_or_insert(pat[0].line);
        }
        for (pi, pt) in pat.iter().enumerate() {
            if pt.kind == TokKind::Ident && enums.iter().any(|e| e == &pt.text) && path_sep(pat, pi)
            {
                protocol.get_or_insert(pt.text.clone());
            }
        }
        k += 2; // past `=>`

        // Arm body: a block, or an expression up to `,` / the match's `}`.
        if toks.get(k).is_some_and(|t| t.is_punct('{')) {
            let close = lexer::match_delim(toks, k);
            scan_matches(&toks[k + 1..close.min(toks.len())], enums, path, out);
            k = close + 1;
        } else {
            let expr_start = k;
            let mut depth = 0i64;
            while let Some(t) = toks.get(k) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    if depth == 0 {
                        break; // the match's own `}`
                    }
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    break;
                }
                k += 1;
            }
            scan_matches(&toks[expr_start..k.min(toks.len())], enums, path, out);
        }
        if toks.get(k).is_some_and(|t| t.is_punct(',')) {
            k += 1;
        }
    }

    if let (Some(line), Some(e)) = (wildcard, protocol) {
        push(
            out,
            "P1",
            path,
            line,
            format!("wildcard `_` arm in a match over protocol enum `{e}`; list the variants"),
        );
    }
    Some(k)
}
