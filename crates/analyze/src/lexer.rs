//! A small Rust lexer for line-oriented static analysis.
//!
//! The rules in this crate do not need a parse tree — they need to know,
//! for every source line, *which characters are code* (as opposed to
//! string-literal contents or comments), *what the comments say* (for
//! justification and suppression markers), and *whether the line is test
//! code* (`#[cfg(test)]`-gated items and `#[test]` functions are exempt
//! from the production-invariant rules). The lexer produces exactly that:
//! per-line code text with string/char contents blanked out, per-line
//! comment text, and a test-span mark computed by brace-matching the item
//! that follows a test attribute.
//!
//! Handled: line comments, nested block comments, string literals with
//! escapes, raw (and byte/raw-byte) strings with any `#` arity, char
//! literals vs. lifetimes, and attributes containing bracketed tokens.

/// One lexed source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line with comments stripped and the *contents* of string and
    /// char literals replaced by spaces (delimiters are kept), so token
    /// searches never match inside literals and brace counting never sees
    /// a `{` that lives in a string.
    pub code: String,
    /// Concatenated text of every comment on the line (`//` bodies and the
    /// parts of `/* .. */` bodies that fall on this line).
    pub comment: String,
    /// Inside a `#[cfg(test)]`-gated item or a `#[test]` function.
    pub in_test: bool,
}

/// A whole lexed file.
#[derive(Debug, Clone, Default)]
pub struct LexedFile {
    pub lines: Vec<Line>,
}

impl LexedFile {
    /// True when `line` (0-based) has a comment containing `marker` on the
    /// line itself, on the immediately preceding line, or anywhere in the
    /// contiguous block of comment-only lines directly above it.
    pub fn justified(&self, line: usize, marker: &str) -> bool {
        if self.lines.get(line).is_some_and(|l| l.comment.contains(marker)) {
            return true;
        }
        let mut i = line;
        while i > 0 {
            i -= 1;
            let l = &self.lines[i];
            let comment_only = l.code.trim().is_empty() && !l.comment.trim().is_empty();
            if l.comment.contains(marker) && (comment_only || i + 1 == line) {
                return true;
            }
            if !comment_only {
                return false;
            }
        }
        false
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested depth.
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

/// Lexes `source` into per-line code/comment channels and marks test spans.
pub fn lex(source: &str) -> LexedFile {
    let mut lines: Vec<Line> = Vec::new();
    let mut line = Line::default();
    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw / byte / raw-byte string openers: r", r#", br", b".
                if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    let mut j = i;
                    if c == 'b' && chars.get(j + 1) == Some(&'r') {
                        j += 1;
                    }
                    if c == 'b' && chars.get(j + 1) == Some(&'"') {
                        line.code.push('"');
                        state = State::Str;
                        i = j + 2;
                        continue;
                    }
                    if (c == 'r' || j > i) && matches!(chars.get(j + 1), Some('"') | Some('#')) {
                        let mut hashes = 0;
                        let mut k = j + 1;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') {
                            line.code.push('"');
                            state = State::RawStr(hashes);
                            i = k + 1;
                            continue;
                        }
                    }
                }
                if c == '"' {
                    line.code.push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal iff it closes within a couple of chars
                    // (`'x'`, `'\n'`, `'\u{..}'`); otherwise a lifetime.
                    if is_char_literal(&chars, i) {
                        line.code.push('\'');
                        state = State::CharLit;
                        i += 1;
                        continue;
                    }
                    line.code.push('\'');
                    i += 1;
                    continue;
                }
                line.code.push(c);
                i += 1;
            }
            State::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some() {
                        line.code.push(' ');
                    }
                    i += 2;
                } else if c == '"' {
                    line.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    line.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes as usize {
                        if chars.get(i + 1 + h) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        line.code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                line.code.push(' ');
                i += 1;
            }
            State::CharLit => {
                if c == '\\' {
                    line.code.push(' ');
                    if chars.get(i + 1).is_some() {
                        line.code.push(' ');
                    }
                    i += 2;
                } else if c == '\'' {
                    line.code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    line.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines.push(line);
    let mut file = LexedFile { lines };
    mark_test_spans(&mut file);
    file
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// `'` at `i` opens a char literal (vs. a lifetime) iff it closes within
/// the next few chars: `'x'`, an escape, or `'\u{...}'`.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Finds `#[cfg(test)]` / `#[test]` attributes in the code channel and
/// marks every line of the item that follows (attribute through the
/// matching close brace, or the terminating `;`) as test code.
fn mark_test_spans(file: &mut LexedFile) {
    // Work over a flattened (line, char) stream of the code channel.
    let flat: Vec<(usize, char)> = file
        .lines
        .iter()
        .enumerate()
        .flat_map(|(ln, l)| l.code.chars().map(move |c| (ln, c)).chain([(ln, '\n')]))
        .collect();
    let mut i = 0;
    while i < flat.len() {
        if flat[i].1 == '#' && flat.get(i + 1).map(|t| t.1) == Some('[') {
            // Bracket-match the attribute.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut attr = String::from("#");
            while j < flat.len() {
                let c = flat[j].1;
                attr.push(c);
                if c == '[' {
                    depth += 1;
                } else if c == ']' {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let is_test_attr =
                attr.contains("cfg(test)") || attr.replace([' ', '\n'], "") == "#[test]";
            if is_test_attr && j < flat.len() {
                // Skip past any further attributes, then find the item's
                // body (`{` at bracket depth 0) or terminator (`;`).
                let mut k = j + 1;
                let mut nest = 0i32;
                let mut body_start = None;
                while k < flat.len() {
                    let c = flat[k].1;
                    match c {
                        '(' | '[' => nest += 1,
                        ')' | ']' => nest -= 1,
                        '{' if nest == 0 => {
                            body_start = Some(k);
                            break;
                        }
                        ';' if nest == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let end = match body_start {
                    Some(open) => {
                        let mut braces = 0i32;
                        let mut m = open;
                        while m < flat.len() {
                            match flat[m].1 {
                                '{' => braces += 1,
                                '}' => {
                                    braces -= 1;
                                    if braces == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        m.min(flat.len() - 1)
                    }
                    None => k.min(flat.len() - 1),
                };
                let (first_line, last_line) = (flat[i].0, flat[end].0);
                for line in &mut file.lines[first_line..=last_line] {
                    line.in_test = true;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_leave_the_code_channel() {
        let f = lex("let x = \"Ordering::Relaxed { } //\"; // ordering: real comment\n");
        assert!(!f.lines[0].code.contains("Relaxed"));
        assert!(!f.lines[0].code.contains("ordering:"));
        assert!(f.lines[0].comment.contains("ordering: real comment"));
        assert!(!f.lines[0].code.contains('{'), "braces in strings are blanked");
    }

    #[test]
    fn raw_strings_and_char_literals_are_blanked() {
        let f = lex("let s = r#\"panic!(\"{}\")\"#; let c = '{'; let lt: &'static str = \"\";\n");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(!f.lines[0].code.contains('{'));
        assert!(f.lines[0].code.contains("'static"), "lifetimes stay code");
    }

    #[test]
    fn nested_block_comments_end_correctly() {
        let f = lex("/* a /* b */ c */ let x = 1;\nlet y = 2;\n");
        assert!(f.lines[0].code.contains("let x"));
        assert!(f.lines[1].code.contains("let y"));
        assert!(f.lines[0].comment.contains('b'));
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn lib2() {}\n";
        let f = lex(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test && f.lines[2].in_test && f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn test_fns_outside_modules_are_marked() {
        let src = "#[test]\nfn alone() {\n    z.unwrap();\n}\nfn lib() {}\n";
        let f = lex(src);
        assert!(f.lines[0].in_test && f.lines[1].in_test && f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn justification_sees_same_and_preceding_comment_block() {
        let src = "// ordering: spans\n// two lines\nx.load(Ordering::Relaxed);\ny.load(Ordering::Relaxed);\n";
        let f = lex(src);
        assert!(f.justified(2, "ordering:"));
        assert!(!f.justified(3, "ordering:"), "a code line breaks the comment block");
    }
}
