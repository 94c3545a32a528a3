//! `sqo-analyze`: workspace-wide static analysis enforcing the engine's
//! concurrency and epoch-discipline invariants.
//!
//! The paper's optimizer became a concurrent serving engine over the
//! last several PRs (shared caches, singleflight miss dedup, a
//! hand-rolled reactor), and its correctness now rests on conventions a
//! type checker cannot see: every relaxed atomic needs a stated
//! happens-before argument, locks must be acquired in hierarchy order,
//! and store identities must flow through the blessed `StoreVersion`
//! constructors. This crate is the executable form of those conventions
//! — a zero-dependency lexer + rule engine that runs in CI
//! (`cargo run -p sqo-analyze -- --deny`) and fails the build when an
//! invariant regresses.
//!
//! Panic-freedom is not one of its rules. Every production crate root
//! denies clippy's panic-family lints outside tests, so CI's clippy step
//! is that gate, and it resolves types where a lexer can only match
//! text.
//!
//! Rules and their suppression syntax are documented in
//! `docs/ANALYSIS.md`; the facts they check against (lock hierarchy,
//! epoch-blessed files) live in `analyze.toml` at the workspace root.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod config;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod toml;

use config::Config;
use findings::Report;
use std::fmt;
use std::path::{Path, PathBuf};

/// A failure to run the analysis at all (as opposed to findings).
#[derive(Debug)]
pub enum AnalyzeError {
    /// `analyze.toml` missing at the workspace root.
    MissingConfig(PathBuf),
    Config(config::ConfigError),
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::MissingConfig(p) => {
                write!(f, "missing config: {} (run from the workspace root)", p.display())
            }
            AnalyzeError::Config(e) => write!(f, "{e}"),
            AnalyzeError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Directory names never descended into: build output, vendored shims,
/// VCS metadata, and test-support trees (integration tests, benches,
/// examples and this crate's own violation fixtures), which are exempt
/// from the production-code rules by definition.
const SKIP_DIRS: [&str; 6] = ["target", "vendor", ".git", "tests", "benches", "examples"];

/// Loads `analyze.toml` from `root` and analyzes the workspace under it.
pub fn run(root: &Path) -> Result<Report, AnalyzeError> {
    let config_path = root.join("analyze.toml");
    let source = match std::fs::read_to_string(&config_path) {
        Ok(s) => s,
        Err(_) => return Err(AnalyzeError::MissingConfig(config_path)),
    };
    let cfg = Config::parse(&source).map_err(AnalyzeError::Config)?;
    analyze_workspace(root, &cfg)
}

/// Analyzes every production `.rs` file under `root` against `cfg`.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<Report, AnalyzeError> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    for rel in &files {
        let full = root.join(rel);
        let source =
            std::fs::read_to_string(&full).map_err(|e| AnalyzeError::Io(full.clone(), e))?;
        analyze_source(rel, &source, cfg, &mut report);
    }
    report.files_scanned = files.len();
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Runs every rule over one file's source. Public so the fixture tests
/// can drive single files without a workspace on disk.
pub fn analyze_source(rel_path: &str, source: &str, cfg: &Config, report: &mut Report) {
    let lexed = lexer::lex(source);
    rules::ordering::check(rel_path, &lexed, report);
    rules::epochs::check(rel_path, &lexed, report, &cfg.epoch_allow_files);
    rules::locks::check(rel_path, &lexed, report, cfg);
}

/// Recursively collects production `.rs` files as workspace-relative,
/// forward-slash paths.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), AnalyzeError> {
    let entries = std::fs::read_dir(dir).map_err(|e| AnalyzeError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| AnalyzeError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}
