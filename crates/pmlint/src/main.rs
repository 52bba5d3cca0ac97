//! `pmlint` — offline, std-only lint pass over the workspace's `.rs` files
//! enforcing the persistence-discipline conventions that `rustc`/`clippy`
//! cannot see:
//!
//! | rule | scope | requirement |
//! |------|-------|-------------|
//! | `safety-comment` | every file | each line containing `unsafe` carries a `// SAFETY:` comment on it or directly above |
//! | `write-without-persist` | oplog, pmalloc, indexes, flatstore, flatrepl `src/` | a function that stores to PM (`write*`/`fill`) must also flush/fence/persist, or explain why its caller does |
//! | `sim-wall-clock` | simkv, obs `src/` | no `Instant::now`/`SystemTime` in clock-agnostic code: the simulator runs on virtual time only, and the obs span/histogram layer must take every timestamp from its caller so the same code serves both wall-clock and virtual-time producers |
//! | `no-unwrap` | pmem, pmalloc, oplog, indexes, flatstore `src/` | no `.unwrap()`/`.expect(` in non-test library code |
//! | `volatile-only` | flatstore `src/cache.rs` | the DRAM read cache must never touch PM (`PmRegion`/`PmAddr`/flush/fence/persist) — its whole coherence argument rests on being reconstructible-from-nothing volatile state |
//!
//! A finding can be waived in place with an *escape comment* on the
//! offending line or the line above, naming the rule and giving a reason:
//!
//! ```text
//! // pmlint: allow(no-unwrap) — length checked two lines up
//! ```
//!
//! The reason is mandatory: an escape without one is itself reported
//! (`allow-missing-reason`). Exit status is nonzero when anything fires,
//! so `scripts/check.sh` and CI gate on it.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose `src/` must stay free of `.unwrap()`/`.expect(`: they sit
/// on the persistence path, so a panic can strand half-written PM state.
const NO_UNWRAP_CRATES: &[&str] = &["pmem", "pmalloc", "oplog", "indexes", "flatstore"];

/// Crates whose `src/` functions are held to the write-implies-persist rule.
const WRITE_PERSIST_CRATES: &[&str] = &["oplog", "pmalloc", "indexes", "flatstore", "flatrepl"];

/// PM store entry points on `PmRegion` (and the index stores built on it).
const WRITE_TOKENS: &[&str] = &[".write(", ".write_u64(", ".write_u8(", ".fill("];

/// Evidence that a function takes responsibility for durability itself.
/// The bare substring `persist` covers `.persist(`, `persist_bitmaps(`,
/// helper names like `persist_header`, and so on.
const PERSIST_TOKENS: &[&str] = &[".flush(", ".fence(", "persist", "commit_point("];

/// PM-facing names that must never appear in volatile-only modules. The
/// cache's crash-safety story is "lose everything, rebuild from misses";
/// any PM type or persistence call in it breaks that argument. This is
/// deliberately a per-file rule with reasoned escapes, not a blanket
/// allowlist exempting the cache from `write-without-persist` — the cache
/// stays inside that rule's scope, it just has nothing for it to match.
const VOLATILE_ONLY_TOKENS: &[&str] = &["PmRegion", "PmAddr", ".persist(", ".flush(", ".fence("];

const RULE_NAMES: &[&str] = &[
    "safety-comment",
    "write-without-persist",
    "sim-wall-clock",
    "no-unwrap",
    "volatile-only",
    "relaxed-ordering",
];

/// Files whose atomics are all statistics by design — every access in
/// them may be `Relaxed` without comment. Anything outside this list
/// needs either the stat-bump idiom (`fetch_add`/`fetch_sub`/`fetch_max`,
/// which also continue release sequences) or a reasoned escape naming the
/// edge that makes the relaxed access sound.
const RELAXED_STAT_FILES: &[&[&str]] = &[
    &["crates", "obs", "src", "counter.rs"],
    &["crates", "obs", "src", "hist.rs"],
    &["crates", "flatstore", "src", "cache.rs"],
];

#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// One source line split into executable text and comment text, with
/// string/char literal contents blanked so token scans cannot be fooled.
#[derive(Debug, Default, Clone)]
struct Line {
    code: String,
    comment: String,
}

/// Splits `src` into per-line code/comment pairs. Handles `//` and nested
/// `/* */` comments, string and char literals (contents dropped, quotes
/// kept), raw strings with any number of `#`s, and lifetimes (`'a` is not
/// a char literal).
fn strip_source(src: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut out = Vec::new();
    let mut cur = Line::default();
    let mut st = St::Code;
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = b.get(i + 1).copied().unwrap_or('\0');
                if c == '/' && next == '/' {
                    st = St::LineComment;
                    i += 2;
                } else if c == '/' && next == '*' {
                    st = St::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Str;
                    i += 1;
                } else if c == 'r' && (next == '"' || next == '#') {
                    // Possible raw string: r"..." or r#"..."# (any depth).
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        cur.code.push('"');
                        st = St::RawStr(hashes);
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal is 'x' or '\..'.
                    let is_char = next == '\\' || b.get(i + 2) == Some(&'\'');
                    if is_char {
                        cur.code.push('\'');
                        st = St::Char;
                        i += 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            St::BlockComment(d) => {
                let next = b.get(i + 1).copied().unwrap_or('\0');
                if c == '/' && next == '*' {
                    st = St::BlockComment(d + 1);
                    i += 2;
                } else if c == '*' && next == '/' {
                    st = if d == 1 {
                        St::Code
                    } else {
                        St::BlockComment(d - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && b.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        st = St::Code;
                        i = j;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            St::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        out.push(cur);
    }
    out
}

/// Marks every line inside a `#[cfg(test)]`-gated item (brace-delimited;
/// an attribute followed by `;` before any `{` gates nothing). The
/// shipped-source racecheck modules, `#[cfg(all(test, racecheck))]`, are
/// test code too.
fn test_spans(lines: &[Line]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut test_depth: Option<i64> = None;
    for (i, l) in lines.iter().enumerate() {
        let code = &l.code;
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test, racecheck))]") {
            pending = true;
        }
        if test_depth.is_some() {
            out[i] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending = false;
                        out[i] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_depth == Some(depth) {
                        test_depth = None;
                    }
                }
                ';' if pending && test_depth.is_none() && depth == 0 => pending = false,
                _ => {}
            }
        }
    }
    out
}

/// An escape comment parsed from one line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Allow {
    rule: String,
    has_reason: bool,
}

/// Parses `pmlint: allow(rule) — reason` if the comment *starts* with it
/// (so prose mentioning the syntax, e.g. backtick-quoted docs, is inert).
fn parse_allow(comment: &str) -> Option<Allow> {
    let t = comment.trim_start_matches(['/', '!']).trim_start();
    let rest = t.strip_prefix("pmlint:")?.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
        .trim();
    Some(Allow {
        rule,
        has_reason: !reason.is_empty(),
    })
}

/// Which rule families apply to a file, derived from its workspace path.
#[derive(Debug, Default, Clone, Copy)]
struct Scope {
    no_unwrap: bool,
    write_persist: bool,
    sim_wall_clock: bool,
    volatile_only: bool,
    relaxed_ordering: bool,
}

fn scope_of(rel: &Path) -> Scope {
    let parts: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    let lib_src = parts.len() > 3 && parts[0] == "crates" && parts[2] == "src";
    let krate = if lib_src { parts[1] } else { "" };
    Scope {
        no_unwrap: lib_src && NO_UNWRAP_CRATES.contains(&krate),
        write_persist: lib_src && WRITE_PERSIST_CRATES.contains(&krate),
        // obs rides along: span/histogram code must never read the wall
        // clock itself — callers pass timestamps in, which is exactly what
        // lets the simulator reuse it unchanged under virtual time.
        sim_wall_clock: lib_src && ["simkv", "obs"].contains(&krate),
        volatile_only: lib_src && krate == "flatstore" && parts[3..] == ["cache.rs"],
        // The fabric hot path (RPC ring, engine, batching) plus obs: any
        // `Relaxed` access there is either a stat counter or a claim
        // about the memory model that must be written down.
        relaxed_ordering: lib_src
            && ["flatrpc", "flatstore", "obs"].contains(&krate)
            && !RELAXED_STAT_FILES.contains(&parts.as_slice()),
    }
}

fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before = code[..at].chars().next_back();
        let after = code[at + word.len()..].chars().next();
        let boundary = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary(before) && boundary(after) {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// A line is "transparent" for the SAFETY walk-up: blank, pure comment, or
/// attribute-only — the comment may sit above a `#[inline]` etc.
fn transparent(l: &Line) -> bool {
    let t = l.code.trim();
    t.is_empty() || (t.starts_with("#[") && t.ends_with(']'))
}

fn check_file(rel: &Path, src: &str) -> Vec<Finding> {
    let lines = strip_source(src);
    let in_test = test_spans(&lines);
    let scope = scope_of(rel);
    let allows: Vec<Option<Allow>> = lines.iter().map(|l| parse_allow(&l.comment)).collect();
    let mut findings = Vec::new();

    // Escapes themselves: a reasonless allow is a finding, always.
    for (i, a) in allows.iter().enumerate() {
        if let Some(a) = a {
            if !RULE_NAMES.contains(&a.rule.as_str()) {
                findings.push(Finding {
                    path: rel.to_path_buf(),
                    line: i + 1,
                    rule: "allow-missing-reason",
                    message: format!("unknown rule `{}` in pmlint escape", a.rule),
                });
            } else if !a.has_reason {
                findings.push(Finding {
                    path: rel.to_path_buf(),
                    line: i + 1,
                    rule: "allow-missing-reason",
                    message: format!(
                        "escape for `{}` has no reason — write `// pmlint: allow({}) — why`",
                        a.rule, a.rule
                    ),
                });
            }
        }
    }

    // An escape covers the line it sits on and the code line directly
    // below its comment block (walking up through comments/attributes, so
    // multi-line reasons work).
    let allowed = |line0: usize, rule: &str| -> bool {
        let hit = |i: usize| {
            allows[i]
                .as_ref()
                .is_some_and(|a| a.rule == rule && a.has_reason)
        };
        if hit(line0) {
            return true;
        }
        let mut j = line0;
        while j > 0 && transparent(&lines[j - 1]) {
            j -= 1;
            if hit(j) {
                return true;
            }
        }
        false
    };
    let mut report = |line0: usize, rule: &'static str, message: String| {
        if !allowed(line0, rule) {
            findings.push(Finding {
                path: rel.to_path_buf(),
                line: line0 + 1,
                rule,
                message,
            });
        }
    };

    // safety-comment: every `unsafe` line, everywhere (tests included —
    // undocumented unsafe in a test is just as unreadable).
    for (i, l) in lines.iter().enumerate() {
        if !has_word(&l.code, "unsafe") {
            continue;
        }
        let mut ok = l.comment.contains("SAFETY:");
        let mut j = i;
        while !ok && j > 0 && transparent(&lines[j - 1]) {
            j -= 1;
            ok = lines[j].comment.contains("SAFETY:");
        }
        if !ok {
            report(
                i,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment on it or directly above".to_string(),
            );
        }
    }

    // sim-wall-clock: the DES must run on virtual time only.
    if scope.sim_wall_clock {
        for (i, l) in lines.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            for tok in ["Instant::now", "SystemTime"] {
                if l.code.contains(tok) {
                    report(
                        i,
                        "sim-wall-clock",
                        format!(
                            "`{tok}` in clock-agnostic code — take the timestamp from the caller"
                        ),
                    );
                }
            }
        }
    }

    // volatile-only: the DRAM cache module may not name PM types or call
    // persistence primitives (tests included — a test that hands the cache
    // a PmRegion is designing the coupling this rule forbids).
    if scope.volatile_only {
        for (i, l) in lines.iter().enumerate() {
            for tok in VOLATILE_ONLY_TOKENS {
                if l.code.contains(tok) {
                    report(
                        i,
                        "volatile-only",
                        format!("`{tok}` in the volatile read cache — DRAM state only"),
                    );
                }
            }
        }
    }

    // no-unwrap: persistence-path library code must propagate errors.
    if scope.no_unwrap {
        for (i, l) in lines.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            for tok in [".unwrap()", ".expect("] {
                if l.code.contains(tok) {
                    report(
                        i,
                        "no-unwrap",
                        format!("`{tok}` in persistence-crate library code"),
                    );
                }
            }
        }
    }

    // relaxed-ordering: `Relaxed` in the fabric hot path is a memory-model
    // claim. Statistic bumps (`fetch_add`/`fetch_sub`/`fetch_max` — RMWs
    // that also continue release sequences) and report formatting
    // (`.row(...)`) are idiomatically fine; every other relaxed access
    // must name its happens-before edge in an escape, ideally pointing at
    // the racecheck model that explores it.
    if scope.relaxed_ordering {
        for (i, l) in lines.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            let code = &l.code;
            if !has_word(code, "Relaxed") {
                continue;
            }
            // Imports only name the ordering; the accesses are what count.
            if code.trim_start().starts_with("use ") {
                continue;
            }
            if ["fetch_add(", "fetch_sub(", "fetch_max(", ".row("]
                .iter()
                .any(|idiom| code.contains(idiom))
            {
                continue;
            }
            report(
                i,
                "relaxed-ordering",
                "`Relaxed` outside the stat-counter idiom — state the \
                 happens-before edge that makes it sound in a \
                 `pmlint: allow(relaxed-ordering)` escape (and cover it \
                 with a racecheck model)"
                    .to_string(),
            );
        }
    }

    // write-without-persist: per-function brace tracking; a function that
    // stores to PM must show durability intent (or carry an escape saying
    // its caller persists).
    if scope.write_persist {
        struct Frame {
            start_depth: i64,
            first_write: Option<usize>,
            persists: bool,
        }
        let mut depth: i64 = 0;
        let mut pending_fn = false;
        let mut stack: Vec<Frame> = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            let code = &l.code;
            if !in_test[i] {
                if has_word(code, "fn") {
                    pending_fn = true;
                }
                if let Some(top) = stack.last_mut() {
                    if top.first_write.is_none() && WRITE_TOKENS.iter().any(|t| code.contains(*t)) {
                        top.first_write = Some(i);
                    }
                    if PERSIST_TOKENS.iter().any(|t| code.contains(*t)) {
                        top.persists = true;
                    }
                }
            }
            for c in code.chars() {
                match c {
                    '{' => {
                        if pending_fn {
                            stack.push(Frame {
                                start_depth: depth,
                                first_write: None,
                                persists: false,
                            });
                            pending_fn = false;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if stack.last().is_some_and(|f| f.start_depth == depth) {
                            let f = stack.pop().expect("checked non-empty");
                            if let (Some(w), false) = (f.first_write, f.persists) {
                                report(
                                    w,
                                    "write-without-persist",
                                    "PM store in a function with no flush/fence/persist — \
                                     persist here or escape with the caller's protocol"
                                        .to_string(),
                                );
                            }
                        }
                    }
                    // A `;` before the body's `{` means this `fn` has no
                    // body here (trait decl, fn-pointer type).
                    ';' if pending_fn => pending_fn = false,
                    _ => {}
                }
            }
        }
    }

    findings
}

fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                dirs.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn run(root: &Path) -> (usize, Vec<Finding>) {
    let mut findings = Vec::new();
    let files = collect_rs_files(root);
    for path in &files {
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(path);
        findings.extend(check_file(rel, &src));
    }
    (files.len(), findings)
}

fn main() -> ExitCode {
    let root = std::env::args().nth(1).map_or_else(
        || {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("pmlint lives two levels under the workspace root")
                .to_path_buf()
        },
        PathBuf::from,
    );
    let (nfiles, findings) = run(&root);
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("pmlint: clean ({nfiles} files)");
        ExitCode::SUCCESS
    } else {
        println!("pmlint: {} finding(s) in {nfiles} files", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, src: &str) -> Vec<Finding> {
        check_file(Path::new(rel), src)
    }

    fn rules(f: &[Finding]) -> Vec<&str> {
        f.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn strip_separates_code_and_comments() {
        let l = strip_source("let x = 1; // tail note\n/* block */ let y = 2;\n");
        assert_eq!(l[0].code.trim(), "let x = 1;");
        assert_eq!(l[0].comment.trim(), "tail note");
        assert_eq!(l[1].code.trim(), "let y = 2;");
    }

    #[test]
    fn strip_blanks_strings_chars_and_raw_strings() {
        let l = strip_source(
            "let s = \"unsafe // not code\";\nlet r = r#\"also \"unsafe\"\"#;\nlet c = '\\''; let lt: &'static str = \"\";\n",
        );
        for line in &l {
            assert!(!line.code.contains("unsafe"), "{:?}", line.code);
        }
        assert!(l[2].code.contains("'static"), "{:?}", l[2].code);
    }

    #[test]
    fn strip_handles_nested_block_comments() {
        let l = strip_source("/* outer /* inner */ still comment */ let z = 3;\n");
        assert_eq!(l[0].code.trim(), "let z = 3;");
        assert!(l[0].comment.contains("inner"));
    }

    #[test]
    fn test_spans_cover_cfg_test_modules_only() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn more() {}\n";
        let lines = strip_source(src);
        let spans = test_spans(&lines);
        assert_eq!(spans, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn cfg_test_attribute_on_use_item_gates_nothing() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() { x.unwrap() }\n";
        let lines = strip_source(src);
        assert!(!test_spans(&lines)[2]);
    }

    #[test]
    fn safety_comment_rule() {
        let bad = "fn f() {\n    unsafe { g() }\n}\n";
        assert_eq!(rules(&check("crates/x/src/a.rs", bad)), ["safety-comment"]);

        let good = "fn f() {\n    // SAFETY: g upholds it\n    unsafe { g() }\n}\n";
        assert!(check("crates/x/src/a.rs", good).is_empty());

        let trailing = "unsafe impl Send for X {} // SAFETY: no shared state\n";
        assert!(check("crates/x/src/a.rs", trailing).is_empty());

        let with_attr = "// SAFETY: documented\n#[inline]\nunsafe fn f() {}\n";
        assert!(check("crates/x/src/a.rs", with_attr).is_empty());
    }

    #[test]
    fn no_unwrap_scoped_to_persistence_crate_src() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(rules(&check("crates/pmem/src/a.rs", src)), ["no-unwrap"]);
        assert!(check("crates/obs/src/a.rs", src).is_empty());
        assert!(check("crates/pmem/tests/a.rs", src).is_empty());

        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(check("crates/pmem/src/a.rs", in_test).is_empty());
        let in_racecheck_test =
            "#[cfg(all(test, racecheck))]\nmod racecheck_tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(check("crates/flatstore/src/a.rs", in_racecheck_test).is_empty());
        // Only that exact gate: another `all(test, ..)` is not recognised.
        let other_gate = "#[cfg(all(test, loom))]\nmod m {\n    fn t() { x.unwrap(); }\n}\n";
        assert_eq!(
            rules(&check("crates/flatstore/src/a.rs", other_gate)),
            ["no-unwrap"]
        );
    }

    #[test]
    fn sim_wall_clock_scoped_to_simkv_and_obs() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules(&check("crates/simkv/src/a.rs", src)),
            ["sim-wall-clock"]
        );
        // The obs span layer is clock-agnostic by contract: timestamps
        // always arrive from the caller.
        assert_eq!(
            rules(&check("crates/obs/src/span.rs", src)),
            ["sim-wall-clock"]
        );
        assert!(check("crates/obs/tests/a.rs", src).is_empty());
        assert!(check("crates/flatstore/src/a.rs", src).is_empty());
    }

    #[test]
    fn write_without_persist_tracks_function_bodies() {
        let bad = "fn f(pm: &PmRegion) {\n    pm.write(a, b);\n}\n";
        assert_eq!(
            rules(&check("crates/oplog/src/a.rs", bad)),
            ["write-without-persist"]
        );

        let good = "fn f(pm: &PmRegion) {\n    pm.write(a, b);\n    pm.persist(a, 8);\n}\n";
        assert!(check("crates/oplog/src/a.rs", good).is_empty());

        // Multi-line signatures and sibling functions don't leak state.
        let multi = "fn f(\n    pm: &PmRegion,\n) {\n    pm.write(a, b);\n    pm.flush(a, 8);\n}\nfn g() {}\n";
        assert!(check("crates/oplog/src/a.rs", multi).is_empty());
        assert!(check("crates/masstree/src/a.rs", bad).is_empty());
    }

    #[test]
    fn volatile_only_scoped_to_the_cache_module() {
        let bad = "fn f(pm: &PmRegion) {\n    pm.flush(a, 8);\n}\n";
        let f = check("crates/flatstore/src/cache.rs", bad);
        assert_eq!(rules(&f), ["volatile-only", "volatile-only"]);
        // Everywhere else in flatstore PM types are the point.
        assert!(check("crates/flatstore/src/shard.rs", bad)
            .iter()
            .all(|f| f.rule != "volatile-only"));

        let escaped = "// pmlint: allow(volatile-only) — type appears in a doc link only\nfn f(pm: &PmRegion) {}\n";
        assert!(check("crates/flatstore/src/cache.rs", escaped).is_empty());

        let clean = "fn f(m: &mut HashMap<u64, usize>) { m.clear(); }\n";
        assert!(check("crates/flatstore/src/cache.rs", clean).is_empty());
    }

    #[test]
    fn relaxed_ordering_scoped_to_fabric_crates() {
        let src = "fn f(a: &AtomicU64) { a.store(1, Ordering::Relaxed); }\n";
        assert_eq!(
            rules(&check("crates/flatrpc/src/ring.rs", src)),
            ["relaxed-ordering"]
        );
        assert_eq!(
            rules(&check("crates/flatstore/src/batch.rs", src)),
            ["relaxed-ordering"]
        );
        // Outside the fabric crates, relaxed atomics are not policed.
        assert!(check("crates/pmem/src/a.rs", src).is_empty());
        // Test code and the designated stat-only files are exempt.
        assert!(check("crates/flatrpc/tests/a.rs", src).is_empty());
        assert!(check("crates/obs/src/counter.rs", src).is_empty());
        assert!(check("crates/flatstore/src/cache.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.store(1, Ordering::Relaxed); }\n}\n";
        assert!(check("crates/flatrpc/src/ring.rs", in_test).is_empty());
    }

    #[test]
    fn relaxed_ordering_stat_idiom_and_escapes() {
        // Stat bumps and report rows are the allowed idiom.
        let idiom = "fn f(s: &Stats) {\n    s.hits.fetch_add(1, Ordering::Relaxed);\n    s.depth.fetch_max(d, Ordering::Relaxed);\n    r.row(\"hits\", s.hits.load(Ordering::Relaxed));\n}\n";
        assert!(check("crates/flatstore/src/shard.rs", idiom).is_empty());
        // Bare `Relaxed` from a scoped import is still caught; the `use`
        // line itself is not (it performs no access).
        let bare = "use Ordering::Relaxed;\nfn f(a: &AtomicU64) { a.store(1, Relaxed); }\n";
        assert_eq!(
            rules(&check("crates/flatstore/src/engine.rs", bare)),
            ["relaxed-ordering"]
        );
        // A reasoned escape names the happens-before edge.
        let escaped = "fn f(a: &AtomicU64) {\n    // pmlint: allow(relaxed-ordering) — own index, sole writer\n    let t = a.load(Ordering::Relaxed);\n}\n";
        assert!(check("crates/flatrpc/src/ring.rs", escaped).is_empty());
    }

    #[test]
    fn escapes_suppress_with_reason_only() {
        let reasoned =
            "fn f() {\n    // pmlint: allow(no-unwrap) — bounds checked above\n    x.unwrap();\n}\n";
        assert!(check("crates/pmem/src/a.rs", reasoned).is_empty());

        let multiline = "fn f() {\n    // pmlint: allow(no-unwrap) — the index was validated by the\n    // binary search on the line above.\n    x.unwrap();\n}\n";
        assert!(check("crates/pmem/src/a.rs", multiline).is_empty());

        let bare = "fn f() {\n    // pmlint: allow(no-unwrap)\n    x.unwrap();\n}\n";
        let f = check("crates/pmem/src/a.rs", bare);
        assert_eq!(rules(&f), ["allow-missing-reason", "no-unwrap"]);

        let unknown = "// pmlint: allow(no-such-rule) — whatever\n";
        assert_eq!(
            rules(&check("crates/pmem/src/a.rs", unknown)),
            ["allow-missing-reason"]
        );
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_an_escape() {
        let doc = "/// Waive with `// pmlint: allow(no-unwrap) — reason`.\nfn f() {}\n";
        assert!(check("crates/pmem/src/a.rs", doc).is_empty());
    }
}
