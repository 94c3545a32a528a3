//! A minimal hand-rolled TOML subset parser — exactly what `analyze.toml`
//! needs and nothing more: top-level and dotted tables, arrays of tables,
//! string / integer / boolean values, inline string arrays, and `#`
//! comments. No dates, no floats, no inline tables, no multi-line strings.
//!
//! Kept deliberately tiny so the analysis tool has zero dependencies; the
//! grammar it accepts is documented in `docs/ANALYSIS.md`.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    Array(Vec<Value>),
    Table(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// `table[key]` when this is a table and the key exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table().and_then(|t| t.get(key))
    }

    /// A `key = ["a", "b"]` entry as owned strings (empty when absent).
    pub fn str_array(&self, key: &str) -> Vec<String> {
        self.get(key)
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(|v| v.as_str().map(str::to_string)).collect())
            .unwrap_or_default()
    }
}

/// A parse failure with its 1-based line.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// Parses `source` into the root table.
pub fn parse(source: &str) -> Result<Value, TomlError> {
    let mut root = BTreeMap::new();
    // Path of the table currently receiving `key = value` lines, and
    // whether that path names an array-of-tables element (append mode).
    let mut current: Vec<String> = Vec::new();
    let mut current_is_array = false;
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(path) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            current = split_path(path);
            current_is_array = true;
            let arr = resolve_array(&mut root, &current, lineno)?;
            arr.push(Value::Table(BTreeMap::new()));
            continue;
        }
        if let Some(path) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            current = split_path(path);
            current_is_array = false;
            resolve_table(&mut root, &current, lineno)?;
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| TomlError {
            line: lineno,
            message: format!("expected `key = value`, found `{line}`"),
        })?;
        let key = key.trim().to_string();
        let value = parse_value(value.trim(), lineno)?;
        let table = if current_is_array {
            let arr = resolve_array(&mut root, &current, lineno)?;
            match arr.last_mut() {
                Some(Value::Table(t)) => t,
                _ => {
                    return Err(TomlError {
                        line: lineno,
                        message: "array of tables has no open element".to_string(),
                    })
                }
            }
        } else {
            resolve_table(&mut root, &current, lineno)?
        };
        table.insert(key, value);
    }
    Ok(Value::Table(root))
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside a string starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_path(path: &str) -> Vec<String> {
    path.split('.').map(|s| s.trim().to_string()).collect()
}

/// Walks (creating as needed) to the table at `path`.
fn resolve_table<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    line: usize,
) -> Result<&'a mut BTreeMap<String, Value>, TomlError> {
    let mut node = root;
    for seg in path {
        let entry = node.entry(seg.clone()).or_insert_with(|| Value::Table(BTreeMap::new()));
        node = match entry {
            Value::Table(t) => t,
            Value::Array(a) => match a.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return Err(TomlError { line, message: format!("`{seg}` is not a table") }),
            },
            _ => {
                return Err(TomlError { line, message: format!("`{seg}` is not a table") });
            }
        };
    }
    Ok(node)
}

/// Walks to the array-of-tables at `path`, creating it at the leaf.
fn resolve_array<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    line: usize,
) -> Result<&'a mut Vec<Value>, TomlError> {
    let (leaf, parents) = path
        .split_last()
        .ok_or_else(|| TomlError { line, message: "empty table path".to_string() })?;
    let parent = resolve_table(root, parents, line)?;
    let entry = parent.entry(leaf.clone()).or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(a) => Ok(a),
        _ => Err(TomlError { line, message: format!("`{leaf}` is not an array of tables") }),
    }
}

fn parse_value(text: &str, line: usize) -> Result<Value, TomlError> {
    if let Some(rest) = text.strip_prefix('"') {
        let end = rest
            .rfind('"')
            .ok_or_else(|| TomlError { line, message: "unterminated string".to_string() })?;
        return Ok(Value::Str(rest[..end].to_string()));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part, line)?);
            }
        }
        return Ok(Value::Array(items));
    }
    text.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| TomlError { line, message: format!("unsupported value `{text}`") })
}

/// Splits on commas that are outside quotes.
fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut buf = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                buf.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut buf));
            }
            _ => buf.push(c),
        }
    }
    if !buf.trim().is_empty() {
        parts.push(buf);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_analyze_toml_shapes() {
        let src = r#"
# comment
[epochs]
allow_files = ["crates/constraints/src/store.rs"]

[[locks.lock]]
name = "service.writer"
rank = 10   # trailing comment
receivers = ["self.writer"]
files = ["crates/service/src/service.rs"]

[[locks.module]]
name = "continuations"
min_rank = 0
patterns = ["continuation("]

[[locks.module]]
name = "plan-cache"
min_rank = 30
patterns = ["self.cache."]
"#;
        let v = parse(src).unwrap();
        assert_eq!(
            v.get("epochs").unwrap().str_array("allow_files"),
            vec!["crates/constraints/src/store.rs".to_string()]
        );
        let locks = v.get("locks").unwrap().get("lock").unwrap().as_array().unwrap();
        assert_eq!(locks[0].get("rank").unwrap().as_int(), Some(10));
        assert_eq!(locks[0].str_array("receivers"), vec!["self.writer".to_string()]);
        let modules = v.get("locks").unwrap().get("module").unwrap().as_array().unwrap();
        assert_eq!(modules.len(), 2);
        assert_eq!(modules[1].get("min_rank").unwrap().as_int(), Some(30));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("[a]\nnot a kv line\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
