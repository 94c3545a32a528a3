//! Typed interpretation of `analyze.toml`.
//!
//! The config file declares the facts the rules check against: the lock
//! hierarchy (named locks with ranks and receiver patterns), the
//! cross-module call patterns a guard must not be held across, and the
//! files blessed to do raw epoch arithmetic. Panic-freedom needs no facts
//! here: clippy checks it (see the crate docs).

use crate::toml::{self, Value};
use std::fmt;

/// A malformed `analyze.toml`.
#[derive(Debug, Clone)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analyze.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// One declared lock: a rank in the acquisition order plus the receiver
/// expressions that acquire it in the files it lives in.
#[derive(Debug, Clone)]
pub struct LockDecl {
    pub name: String,
    /// Locks must be acquired in strictly increasing rank order.
    pub rank: i64,
    /// Receiver prefixes, e.g. `self.writer` or `self.shard_of(`. A
    /// `.lock()` / `.read()` / `.write()` whose receiver starts with one
    /// of these (in a covered file) is an acquisition of this lock.
    pub receivers: Vec<String>,
    /// Workspace-relative files this lock is acquired in.
    pub files: Vec<String>,
}

/// A locking module boundary: call patterns that internally take locks of
/// at least `min_rank`, so no guard of rank >= `min_rank` may be live at
/// a call site.
#[derive(Debug, Clone)]
pub struct ModuleDecl {
    pub name: String,
    pub min_rank: i64,
    /// Substring patterns identifying calls into the module,
    /// e.g. `self.cache.` or `.wake()`.
    pub patterns: Vec<String>,
}

/// The whole typed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files allowed to construct `StoreVersion` literals and do raw
    /// `.epoch()` arithmetic (the blessed constructors).
    pub epoch_allow_files: Vec<String>,
    pub locks: Vec<LockDecl>,
    pub modules: Vec<ModuleDecl>,
}

impl Config {
    /// Parses and types an `analyze.toml` source string.
    pub fn parse(source: &str) -> Result<Config, ConfigError> {
        let root = toml::parse(source).map_err(|e| ConfigError(e.to_string()))?;
        let mut cfg = Config::default();

        if let Some(epochs) = root.get("epochs") {
            cfg.epoch_allow_files = epochs.str_array("allow_files");
        }

        if let Some(locks) = root.get("locks") {
            if let Some(decls) = locks.get("lock").and_then(Value::as_array) {
                for entry in decls {
                    let name = req_str(entry, "name", "[[locks.lock]]")?;
                    let rank = entry.get("rank").and_then(Value::as_int).ok_or_else(|| {
                        ConfigError(format!("[[locks.lock]] `{name}` missing `rank`"))
                    })?;
                    let decl = LockDecl {
                        rank,
                        receivers: entry.str_array("receivers"),
                        files: entry.str_array("files"),
                        name: name.clone(),
                    };
                    if decl.receivers.is_empty() || decl.files.is_empty() {
                        return Err(ConfigError(format!(
                            "[[locks.lock]] `{name}` needs non-empty `receivers` and `files`"
                        )));
                    }
                    cfg.locks.push(decl);
                }
            }
            if let Some(decls) = locks.get("module").and_then(Value::as_array) {
                for entry in decls {
                    let name = req_str(entry, "name", "[[locks.module]]")?;
                    let min_rank =
                        entry.get("min_rank").and_then(Value::as_int).ok_or_else(|| {
                            ConfigError(format!("[[locks.module]] `{name}` missing `min_rank`"))
                        })?;
                    let patterns = entry.str_array("patterns");
                    if patterns.is_empty() {
                        return Err(ConfigError(format!(
                            "[[locks.module]] `{name}` needs non-empty `patterns`"
                        )));
                    }
                    cfg.modules.push(ModuleDecl { name, min_rank, patterns });
                }
            }
        }

        let mut names: Vec<&str> = cfg.locks.iter().map(|l| l.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != cfg.locks.len() {
            return Err(ConfigError("duplicate lock names in [[locks.lock]]".to_string()));
        }
        Ok(cfg)
    }

    /// Lock declarations that apply to `file` (workspace-relative path).
    pub fn locks_for(&self, file: &str) -> Vec<&LockDecl> {
        self.locks.iter().filter(|l| l.files.iter().any(|f| f == file)).collect()
    }

    /// True when the lock map claims coverage of `file`, so an unmatched
    /// acquisition there is a finding rather than background noise.
    pub fn lock_covered(&self, file: &str) -> bool {
        self.locks.iter().any(|l| l.files.iter().any(|f| f == file))
    }
}

fn req_str(entry: &Value, key: &str, ctx: &str) -> Result<String, ConfigError> {
    entry
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ConfigError(format!("{ctx} entry missing `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_config() {
        let cfg = Config::parse(
            r#"
[epochs]
allow_files = ["crates/constraints/src/store.rs"]

[[locks.lock]]
name = "service.writer"
rank = 10
receivers = ["self.writer"]
files = ["crates/service/src/service.rs"]

[[locks.module]]
name = "wakers"
min_rank = 0
patterns = [".wake()"]
"#,
        )
        .unwrap();
        assert!(cfg.lock_covered("crates/service/src/service.rs"));
        assert!(!cfg.lock_covered("crates/a/src/lib.rs"));
        assert_eq!(cfg.locks_for("crates/service/src/service.rs").len(), 1);
        assert_eq!(cfg.modules[0].min_rank, 0);
    }

    #[test]
    fn rejects_incomplete_and_duplicate_locks() {
        let err = Config::parse("[[locks.lock]]\nname = \"a\"\nrank = 1\n").unwrap_err();
        assert!(err.0.contains("non-empty"));
        let lock =
            "[[locks.lock]]\nname = \"a\"\nrank = 1\nreceivers = [\"x\"]\nfiles = [\"f.rs\"]\n";
        let err = Config::parse(&format!("{lock}{lock}")).unwrap_err();
        assert!(err.0.contains("duplicate"));
    }
}
