//! O1 `offline-deps`: every dependency in every workspace manifest must be
//! an in-tree path dependency.
//!
//! This reimplements (in Rust, with `file:line` findings) the dependency
//! guard `scripts/verify.sh` used to run through `python3 -c` + `tomllib`:
//! an entry in any `[dependencies]`, `[dev-dependencies]`,
//! `[build-dependencies]`, `[workspace.dependencies]`, or
//! `[target.*.dependencies]` table is acceptable only when it resolves
//! inside this tree —
//!
//! * `foo = { path = "..." }` — direct path dependency,
//! * `foo.workspace = true` / `foo = { workspace = true }` — inheriting a
//!   workspace-level entry (those are themselves checked for `path`),
//! * `[dependencies.foo]` sub-tables carrying a `path` or
//!   `workspace = true` key.
//!
//! Anything else (`foo = "1.0"`, `version = ...`-only tables, `git = ...`)
//! is a finding: it would resolve to a registry or remote source and break
//! the offline, zero-external-dependency build contract.
//!
//! The parser is a deliberately small line-based TOML subset — exactly the
//! shapes `cargo` accepts for dependency tables — not a general TOML reader.

use crate::rules::{Finding, RuleId};

/// Manifests the workspace walk must keep seeing. A layout change that
/// silently drops one of these from the scan would let a registry dep in
/// unobserved, so their absence is itself a finding (the same pinning the
/// python guard did with `assert`s).
pub const PINNED_MANIFESTS: &[&str] = &[
    "Cargo.toml",
    "crates/elsa-cluster/Cargo.toml",
    "crates/elsa-parallel/Cargo.toml",
    "crates/elsa-fault/Cargo.toml",
    "crates/elsa-serve/Cargo.toml",
    "crates/elsa-lint/Cargo.toml",
    "crates/elsa-workloads/Cargo.toml",
    "crates/elsa-baselines/Cargo.toml",
];

/// Dependency-table names (last path segment `dependencies` variants).
fn is_dep_table(table: &str) -> bool {
    table == "dependencies"
        || table == "dev-dependencies"
        || table == "build-dependencies"
        || table == "workspace.dependencies"
        || table.ends_with(".dependencies")
        || table.ends_with(".dev-dependencies")
        || table.ends_with(".build-dependencies")
}

/// For a header like `dependencies.foo` (a per-dependency sub-table),
/// returns the dependency name when the prefix is a dependency table.
fn sub_table_dep(table: &str) -> Option<&str> {
    let (prefix, name) = table.rsplit_once('.')?;
    if is_dep_table(prefix) {
        Some(name)
    } else {
        None
    }
}

/// Strips a TOML line comment (a `#` outside any quoted string).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Whether an inline-table value (`{ ... }`) pins the dep in-tree.
fn inline_table_is_local(value: &str) -> bool {
    let inner = value.trim().trim_start_matches('{').trim_end_matches('}');
    inner.split(',').any(|kv| {
        let Some((key, val)) = kv.split_once('=') else {
            return false;
        };
        let (key, val) = (key.trim(), val.trim());
        key == "path" || (key == "workspace" && val == "true")
    })
}

/// Checks one manifest. `rel_path` is used verbatim in findings.
#[must_use]
pub fn check_manifest(rel_path: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut table = String::new();
    // For `[dependencies.foo]` sub-tables: (dep name, header line, local?).
    let mut sub: Option<(String, u32, bool)> = None;

    let close_sub = |sub: &mut Option<(String, u32, bool)>, findings: &mut Vec<Finding>| {
        if let Some((name, line, local)) = sub.take() {
            if !local {
                findings.push(Finding {
                    file: rel_path.to_owned(),
                    line,
                    rule: RuleId::OfflineDeps,
                    message: format!(
                        "dependency `{name}` is not an in-tree path dependency \
                         (no `path` or `workspace = true` key)"
                    ),
                    waived: None,
                });
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            close_sub(&mut sub, &mut findings);
            table = line.trim_matches(|c| c == '[' || c == ']').trim().to_owned();
            if let Some(name) = sub_table_dep(&table) {
                sub = Some((name.to_owned(), line_no, false));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if let Some((_, _, local)) = sub.as_mut() {
            if key == "path" || (key == "workspace" && value == "true") {
                *local = true;
            }
            continue;
        }
        if !is_dep_table(&table) {
            continue;
        }
        // `foo.workspace = true` (dotted-key inheritance) is in-tree.
        if let Some(name) = key.strip_suffix(".workspace") {
            if value == "true" && !name.is_empty() {
                continue;
            }
        }
        // `foo = { path = "..." }` / `foo = { workspace = true }` are
        // in-tree; bare versions, `git`, and version-only tables are not.
        let local = value.starts_with('{') && inline_table_is_local(value);
        if !local {
            findings.push(Finding {
                file: rel_path.to_owned(),
                line: line_no,
                rule: RuleId::OfflineDeps,
                message: format!(
                    "dependency `{key}` in [{table}] is not an in-tree path dependency"
                ),
                waived: None,
            });
        }
    }
    close_sub(&mut sub, &mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(text: &str) -> Vec<Finding> {
        check_manifest("Cargo.toml", text)
    }

    #[test]
    fn path_and_workspace_deps_pass() {
        let text = "\
[package]
name = \"x\"

[dependencies]
elsa-core = { path = \"crates/elsa-core\" }
elsa-linalg.workspace = true
elsa-sim = { workspace = true }

[dev-dependencies]
elsa-testkit.workspace = true

[workspace.dependencies]
elsa-core = { path = \"crates/elsa-core\" }
";
        assert!(hits(text).is_empty(), "{:?}", hits(text));
    }

    #[test]
    fn registry_and_git_deps_fail_with_line_numbers() {
        let text = "\
[dependencies]
rand = \"0.8\"
serde = { version = \"1\", features = [\"derive\"] }
remote = { git = \"https://example.com/x.git\" }
";
        let findings = hits(text);
        assert_eq!(findings.len(), 3);
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[1].line, 3);
        assert_eq!(findings[2].line, 4);
        assert!(findings.iter().all(|f| f.rule == RuleId::OfflineDeps));
        assert!(findings[0].message.contains("rand"));
    }

    #[test]
    fn workspace_dependencies_table_is_checked_too() {
        let text = "[workspace.dependencies]\nrand = \"0.8\"\n";
        assert_eq!(hits(text).len(), 1);
    }

    #[test]
    fn sub_table_deps_are_grouped() {
        let good = "[dependencies.elsa-core]\npath = \"crates/elsa-core\"\n";
        assert!(hits(good).is_empty());
        let good_ws = "[dependencies.elsa-core]\nworkspace = true\n";
        assert!(hits(good_ws).is_empty());
        let bad = "[dependencies.rand]\nversion = \"0.8\"\nfeatures = [\"std\"]\n";
        let findings = hits(bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("rand"));
    }

    #[test]
    fn target_specific_dep_tables_are_checked() {
        let text = "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n";
        assert_eq!(hits(text).len(), 1);
    }

    #[test]
    fn comments_and_unrelated_tables_are_ignored() {
        let text = "\
# rand = \"0.8\"
[package]
version = \"1.0\"
[features]
default = []
[dependencies]
elsa-core.workspace = true # in-tree
";
        assert!(hits(text).is_empty());
    }

    #[test]
    fn pinned_manifests_cover_the_lint_crate_itself() {
        assert!(PINNED_MANIFESTS.contains(&"crates/elsa-lint/Cargo.toml"));
        assert!(PINNED_MANIFESTS.contains(&"Cargo.toml"));
    }
}
