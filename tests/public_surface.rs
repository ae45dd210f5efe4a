//! Surface lint: every `pub fn` under `crates/*/src` is named somewhere in non-test code, or is
//! listed in `tests/fixtures/public_surface_allowlist.txt` with the reason it stays.
//!
//! Non-test code is every `.rs` file under `src/`, `examples/` (the benchmark included),
//! `crates/*/src` and `crates/*/examples`, without comments and `#[cfg(test)]` items. The check
//! is by name, so a dead function whose name another item shares passes unseen. An allowlisted
//! name that gains a caller or stops being a `pub fn` fails too, so the list cannot go stale.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const ALLOWLIST: &str = "tests/fixtures/public_surface_allowlist.txt";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|entry| entry.expect("directory entry").path()) {
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The length of the comment or literal at the start of `rest`, if one starts there. A string
/// literal leaves in `out` the names it interpolates as a format string (`"{name}"`).
fn skip_len(rest: &str, out: &mut String) -> Option<usize> {
    let raw = (rest.strip_prefix("br").or_else(|| rest.strip_prefix('r')))
        .map(|body| (body, body.len() - body.trim_start_matches('#').len()))
        .filter(|(body, hashes)| body[*hashes..].starts_with('"'));
    if rest.starts_with("//") {
        Some(rest.find('\n').unwrap_or(rest.len()))
    } else if rest.starts_with("/*") {
        Some(rest.find("*/").map_or(rest.len(), |end| end + 2))
    } else if let Some((body, hashes)) = raw {
        let open = rest.len() - body.len() + hashes + 1;
        let close = format!("\"{}", "#".repeat(hashes));
        Some(
            rest[open..]
                .find(&close)
                .map_or(rest.len(), |end| open + end + close.len()),
        )
    } else if rest.starts_with('"') {
        let bytes = rest.as_bytes();
        let mut end = 1;
        while end < bytes.len() && bytes[end] != b'"' {
            end += if bytes[end] == b'\\' { 2 } else { 1 };
        }
        let end = end.min(rest.len());
        for name in rest[1..end].split('{').skip(1) {
            out.push(' ');
            out.extend(
                name.chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_'),
            );
        }
        Some((end + 1).min(rest.len()))
    } else if let Some(body) = rest.strip_prefix('\'') {
        // A char literal (`'a'`, `'\''`, `'\u{7f}'`); a lifetime's quote is skipped alone.
        let end = match body.chars().next() {
            Some('\\') => body
                .get(2..)
                .and_then(|tail| tail.find('\''))
                .map(|e| e + 2),
            first => first.map(char::len_utf8),
        };
        Some(
            end.filter(|&end| body[end..].starts_with('\''))
                .map_or(1, |end| end + 2),
        )
    } else {
        None
    }
}

/// `text` with every comment and literal replaced by a space.
fn strip(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        let len = match skip_len(rest, &mut out) {
            Some(len) => {
                out.push(' ');
                len
            }
            None => {
                out.push(c);
                c.len_utf8()
            }
        };
        rest = &rest[len..];
    }
    out
}

/// `code` without its `#[cfg(test)]` items. A `#[cfg(test)] mod x;` marks `x`'s file as test code.
fn drop_cfg_test(code: &str, path: &Path, test_files: &mut BTreeSet<PathBuf>) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(at) = rest.find(ATTR) {
        out.push_str(&rest[..at]);
        let item = &rest[at + ATTR.len()..];
        let semi = item.find(';').map_or(item.len(), |semi| semi + 1);
        let end = match item.find('{').filter(|&brace| brace < semi) {
            Some(brace) => {
                let mut depth = 0;
                let close = item[brace..].find(|c| {
                    depth += i32::from(c == '{') - i32::from(c == '}');
                    depth == 0
                });
                close.map_or(item.len(), |close| brace + close + 1)
            }
            None => {
                if let Some(module) = item[..semi].trim().strip_prefix("mod ") {
                    let file = format!("{}.rs", module.trim_end_matches(';').trim());
                    test_files.insert(path.with_extension("").join(&file));
                    test_files.insert(path.with_file_name(&file));
                }
                semi
            }
        };
        rest = &item[end..];
    }
    out.push_str(rest);
    out
}

/// Every `pub fn` of `crates/*/src` with the files defining it, and every name non-test code
/// mentions other than as the name of a `fn` it defines.
fn scan(root: &Path) -> (BTreeMap<String, Vec<String>>, BTreeSet<String>) {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates directory") {
        let krate = krate.expect("crate entry").path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("examples"), &mut files);
    }
    let mut test_files = BTreeSet::new();
    let code: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("readable source");
            let code = drop_cfg_test(&strip(&text), &path, &mut test_files);
            (path, code)
        })
        .collect();
    let (mut defined, mut mentioned) = (BTreeMap::new(), BTreeSet::new());
    for (path, code) in code.iter().filter(|(path, _)| !test_files.contains(path)) {
        let file = path.strip_prefix(root).expect("under the root");
        let in_crate_src = file.starts_with("crates")
            && file
                .components()
                .nth(2)
                .is_some_and(|c| c.as_os_str() == "src");
        let words: Vec<&str> = code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|word| !word.is_empty())
            .collect();
        for (i, word) in words.iter().enumerate() {
            if i == 0 || words[i - 1] != "fn" {
                mentioned.insert(word.to_string());
            } else if in_crate_src && i >= 2 && words[i - 2] == "pub" {
                let files: &mut Vec<String> = defined.entry(word.to_string()).or_default();
                files.push(file.display().to_string());
            }
        }
    }
    (defined, mentioned)
}

#[test]
fn every_public_function_has_a_caller_or_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (defined, mentioned) = scan(root);
    let allowlist = fs::read_to_string(root.join(ALLOWLIST)).expect("allowlist");
    let allowed: BTreeMap<&str, &str> = allowlist
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            line.split_once(' ')
                .map_or((line, ""), |(name, why)| (name, why.trim()))
        })
        .collect();
    let mut problems = Vec::new();
    for (name, files) in &defined {
        if !mentioned.contains(name) && !allowed.contains_key(name.as_str()) {
            problems.push(format!(
                "`pub fn {name}` ({}) is named by no non-test code: give it a caller, put it \
                 under #[cfg(test)], or list it in {ALLOWLIST} with its reason",
                files.join(", ")
            ));
        }
    }
    for (name, why) in &allowed {
        if why.is_empty() {
            problems.push(format!("{ALLOWLIST}: `{name}` gives no reason"));
        }
        if !defined.contains_key(*name) {
            problems.push(format!("{ALLOWLIST}: `{name}` is no longer a `pub fn`"));
        } else if mentioned.contains(*name) {
            problems.push(format!("{ALLOWLIST}: `{name}` now has a non-test caller"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
