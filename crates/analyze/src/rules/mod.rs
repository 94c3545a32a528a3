//! The rule engine: each rule walks one lexed file and appends findings.
//!
//! Rules only ever look at the lexer's *code channel* (string contents
//! blanked, comments stripped), so an `Ordering::` inside an error message or
//! a `{` inside a format string can never confuse them. Suppressions and
//! justifications are read from the *comment channel* via
//! [`crate::lexer::LexedFile::justified`].

pub mod epochs;
pub mod locks;
pub mod ordering;

/// True when the byte before `pos` in `code` could extend an identifier,
/// i.e. the match at `pos` is *not* token-initial.
pub(crate) fn ident_before(code: &str, pos: usize) -> bool {
    code[..pos].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// True when the byte right after `end` in `code` could extend an
/// identifier, i.e. the match ending at `end` is *not* token-final.
pub(crate) fn ident_after(code: &str, end: usize) -> bool {
    code[end..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Byte offsets of every occurrence of `needle` in `haystack`.
pub(crate) fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len().max(1);
    }
    out
}
