//! Finding and report types, plus the machine-readable JSON emitter.

use std::fmt;

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// An `Ordering::*` site without an `// ordering:` justification.
    Ordering,
    /// A lock acquired out of hierarchy order.
    LockOrder,
    /// A guard held across a call into another locking module.
    LockCross,
    /// A `.lock()`/`.read()`/`.write()` on a receiver no declared lock
    /// matches, in a file the lock map claims to cover.
    LockUnknown,
    /// Raw epoch arithmetic or a bare `StoreVersion` literal outside the
    /// blessed constructors.
    Epoch,
}

impl RuleId {
    /// The stable rule name used in output, suppressions
    /// (`// analyze: allow(<name>)`) and the docs.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::Ordering => "ordering",
            RuleId::LockOrder => "lock-order",
            RuleId::LockCross => "lock-cross",
            RuleId::LockUnknown => "lock-unknown",
            RuleId::Epoch => "epoch",
        }
    }

    /// The suppression marker that silences the rule at a site.
    pub fn allow_marker(self) -> String {
        format!("analyze: allow({})", self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.message)
    }
}

/// One `Ordering::*` use site, for the audit inventory.
#[derive(Debug, Clone)]
pub struct OrderingSite {
    pub file: String,
    /// 1-based.
    pub line: usize,
    /// `Relaxed` / `SeqCst` / `Acquire` / `Release` / `AcqRel`.
    pub kind: String,
    /// Text following the `ordering:` marker, when present.
    pub justification: Option<String>,
    pub in_test: bool,
}

/// The full result of one analysis pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub ordering_inventory: Vec<OrderingSite>,
    pub files_scanned: usize,
}

impl Report {
    /// The non-test ordering sites as a markdown table: the output of
    /// `--inventory`, and the table in `docs/ANALYSIS.md`
    /// (`tests/workspace_clean.rs` holds the two equal).
    pub fn inventory_markdown(&self) -> String {
        let mut out =
            String::from("| File | Line | Ordering | Justification |\n|---|---|---|---|\n");
        for site in self.ordering_inventory.iter().filter(|s| !s.in_test) {
            let just = site.justification.as_deref().unwrap_or("(missing)");
            out.push_str(&format!(
                "| `{}` | {} | `{}` | {} |\n",
                site.file, site.line, site.kind, just
            ));
        }
        out
    }

    /// The findings as a JSON array (machine-readable CI output).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(f.rule.name()),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                comma
            ));
        }
        out.push_str("  ],\n  \"ordering_inventory\": [\n");
        for (i, s) in self.ordering_inventory.iter().enumerate() {
            let comma = if i + 1 < self.ordering_inventory.len() { "," } else { "" };
            let just = match &s.justification {
                Some(j) => json_str(j),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"kind\": {}, \"in_test\": {}, \"justification\": {}}}{}\n",
                json_str(&s.file),
                s.line,
                json_str(&s.kind),
                s.in_test,
                just,
                comma
            ));
        }
        out.push_str(&format!("  ],\n  \"files_scanned\": {}\n}}\n", self.files_scanned));
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_renders() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: RuleId::Ordering,
            file: "a/b.rs".to_string(),
            line: 3,
            message: "say \"no\"".to_string(),
        });
        let json = r.to_json();
        assert!(json.contains("\"rule\": \"ordering\""));
        assert!(json.contains("say \\\"no\\\""));
        assert!(json.contains("\"files_scanned\": 0"));
    }
}
