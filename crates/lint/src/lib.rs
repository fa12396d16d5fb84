//! spinlint — workspace static analysis enforcing the Spinnaker
//! determinism & crash-safety contract.
//!
//! The deterministic-simulation story (ROADMAP item 3: seeded nemesis
//! runs with replayable failures) only works if the replicated state
//! machine, codecs, and recovery paths are actually deterministic and
//! total. spinlint is a zero-dependency token-level linter that walks
//! every workspace `.rs` file and enforces six rules:
//!
//! | rule | contract |
//! |------|----------|
//! | `D1` | no host time / threads / filesystem / sockets / OS entropy in deterministic crates |
//! | `D2` | no `HashMap`/`HashSet` where iteration order can reach state or the wire |
//! | `C1` | no `unwrap`/`expect`/`panic!`/`unreachable!` in recovery paths |
//! | `C2` | no truncating `as` integer casts in wire/WAL codecs |
//! | `P1` | no wildcard `_` arms in matches over protocol enums |
//! | `E1` | no `let _ =` discarding a log / vfs / store / coordination result in the node runtime |
//!
//! Scope lives in `lint.toml` at the workspace root; per-site escapes
//! are in-source waivers of the form
//! `// spinlint: allow(RULE) -- reason` (the reason is mandatory and
//! its absence is itself a violation). Run it with
//! `cargo run -p spinnaker-lint -- --deny`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use config::Config;
pub use rules::{lint_source, Violation};

/// Result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All diagnostics, including waived ones.
    pub violations: Vec<Violation>,
    /// How many files were scanned.
    pub files: usize,
}

impl Report {
    /// Violations not covered by a waiver (these fail `--deny`).
    pub fn active(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| !v.waived)
    }

    /// Count of waived violations.
    pub fn waived_count(&self) -> usize {
        self.violations.iter().filter(|v| v.waived).count()
    }
}

/// Walk the workspace from `root` and collect every `.rs` file not
/// excluded by `cfg`, in deterministic (sorted) order. `vendor`,
/// `target`, and VCS directories are always skipped.
pub fn workspace_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, cfg, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, cfg: &Config, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            if !cfg.excluded(&format!("{}/", rel(root, &path))) {
                walk(root, &path, cfg, out)?;
            }
        } else if name.ends_with(".rs") && !cfg.excluded(&rel(root, &path)) {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated form of `path`.
pub fn rel(root: &Path, path: &Path) -> String {
    let r = path.strip_prefix(root).unwrap_or(path);
    r.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint every workspace file under `root` with `cfg`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let files = workspace_files(root, cfg)?;
    let mut report = Report { violations: Vec::new(), files: files.len() };
    for f in &files {
        let src = std::fs::read_to_string(f)?;
        report.violations.extend(rules::lint_source(&rel(root, f), &src, cfg));
    }
    Ok(report)
}
