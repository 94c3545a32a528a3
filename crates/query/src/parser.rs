//! Parser for the paper's textual query format.
//!
//! Accepts exactly what [`crate::QueryExt::display`] emits (and the minor
//! whitespace/newline variations found in the paper's listings):
//!
//! ```text
//! (SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
//!         {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
//!         {collects, supplies} {supplier, cargo, vehicle})
//! ```

use sqo_catalog::{AttrRef, Catalog, DataType, Value};

use crate::ast::{Projection, Query};
use crate::error::QueryError;
use crate::predicate::{CompOp, JoinPredicate, SelPredicate};

#[derive(Debug, Clone, PartialEq)]
enum Token {
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Op(CompOp),
    Ident(String),
    /// `class.attr`
    Path(String, String),
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src: src.as_bytes(), pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::Syntax { position: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// The source from `start` to the cursor, as text.
    fn text(&self, start: usize) -> Result<&'a str, QueryError> {
        self.src
            .get(start..self.pos)
            .and_then(|bytes| std::str::from_utf8(bytes).ok())
            .ok_or_else(|| self.error("invalid utf-8"))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn next_token(&mut self) -> Result<Option<Token>, QueryError> {
        self.skip_ws();
        let Some(b) = self.peek() else {
            return Ok(None);
        };
        let tok = match b {
            b'(' => {
                self.bump();
                Token::LParen
            }
            b')' => {
                self.bump();
                Token::RParen
            }
            b'{' => {
                self.bump();
                Token::LBrace
            }
            b'}' => {
                self.bump();
                Token::RBrace
            }
            b',' => {
                self.bump();
                Token::Comma
            }
            b'=' => {
                self.bump();
                Token::Op(CompOp::Eq)
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::Op(CompOp::Ne)
                } else {
                    return Err(self.error("expected `=` after `!`"));
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::Op(CompOp::Le)
                } else if self.peek() == Some(b'>') {
                    self.bump();
                    Token::Op(CompOp::Ne)
                } else {
                    Token::Op(CompOp::Lt)
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Token::Op(CompOp::Ge)
                } else {
                    Token::Op(CompOp::Gt)
                }
            }
            b'"' => {
                self.bump();
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'"' {
                        break;
                    }
                    self.pos += 1;
                }
                if self.peek() != Some(b'"') {
                    return Err(self.error("unterminated string literal"));
                }
                let s = self.text(start)?.to_string();
                self.bump();
                Token::Str(s)
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.bump();
                let mut is_float = false;
                while let Some(c) = self.peek() {
                    match c {
                        b'0'..=b'9' => {
                            self.pos += 1;
                        }
                        b'.' if !is_float
                            && matches!(self.src.get(self.pos + 1), Some(b'0'..=b'9')) =>
                        {
                            is_float = true;
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                let text = self.text(start)?;
                if is_float {
                    Token::Float(text.parse().map_err(|_| self.error("bad float literal"))?)
                } else {
                    Token::Int(text.parse().map_err(|_| self.error("bad int literal"))?)
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'#' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let first = self.text(start)?.to_string();
                if self.peek() == Some(b'.') {
                    self.bump();
                    let astart = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' || c == b'#' {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    if astart == self.pos {
                        return Err(self.error("expected attribute name after `.`"));
                    }
                    Token::Path(first, self.text(astart)?.to_string())
                } else {
                    match first.as_str() {
                        "true" => Token::Bool(true),
                        "false" => Token::Bool(false),
                        _ => Token::Ident(first),
                    }
                }
            }
            other => {
                return Err(self.error(format!("unexpected byte `{}`", other as char)));
            }
        };
        Ok(Some(tok))
    }
}

struct Parser<'a> {
    tokens: Vec<(usize, Token)>,
    cursor: usize,
    catalog: &'a Catalog,
}

impl<'a> Parser<'a> {
    fn new(src: &str, catalog: &'a Catalog) -> Result<Self, QueryError> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let pos = lexer.pos;
            match lexer.next_token()? {
                Some(t) => tokens.push((pos, t)),
                None => break,
            }
        }
        Ok(Self { tokens, cursor: 0, catalog })
    }

    fn error_here(&self, message: impl Into<String>) -> QueryError {
        let position = self
            .tokens
            .get(self.cursor)
            .or_else(|| self.tokens.last())
            .map(|(p, _)| *p)
            .unwrap_or(0);
        QueryError::Syntax { position, message: message.into() }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.cursor).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.cursor).map(|(_, t)| t.clone());
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<(), QueryError> {
        match self.bump() {
            Some(ref t) if t == want => Ok(()),
            _ => {
                self.cursor = self.cursor.saturating_sub(1);
                Err(self.error_here(format!("expected {what}")))
            }
        }
    }

    fn resolve_attr(&self, class: &str, attr: &str) -> Result<AttrRef, QueryError> {
        Ok(self.catalog.attr_ref(class, attr)?)
    }

    fn value(&mut self, expected: DataType) -> Result<Value, QueryError> {
        let v = match self.bump() {
            Some(Token::Str(s)) => Value::str(s),
            Some(Token::Int(i)) => {
                // Coerce integer literals when the attribute is a float.
                if expected == DataType::Float {
                    Value::float(i as f64)
                        .ok_or_else(|| self.error_here("integer literal is not a finite float"))?
                } else {
                    Value::Int(i)
                }
            }
            Some(Token::Float(x)) => {
                Value::float(x).ok_or_else(|| self.error_here("float literal must be finite"))?
            }
            Some(Token::Bool(b)) => Value::Bool(b),
            _ => {
                self.cursor = self.cursor.saturating_sub(1);
                return Err(self.error_here("expected a literal value"));
            }
        };
        Ok(v)
    }

    /// Parses one `{ item, item, ... }` group via the item callback.
    fn group<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, QueryError>,
    ) -> Result<Vec<T>, QueryError> {
        self.expect(&Token::LBrace, "`{`")?;
        let mut out = Vec::new();
        if self.peek() == Some(&Token::RBrace) {
            self.bump();
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::RBrace) => break,
                _ => {
                    self.cursor = self.cursor.saturating_sub(1);
                    return Err(self.error_here("expected `,` or `}`"));
                }
            }
        }
        Ok(out)
    }

    fn path(&mut self) -> Result<(String, String), QueryError> {
        match self.bump() {
            Some(Token::Path(c, a)) => Ok((c, a)),
            _ => {
                self.cursor = self.cursor.saturating_sub(1);
                Err(self.error_here("expected `class.attr`"))
            }
        }
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        self.expect(&Token::LParen, "`(`")?;
        match self.bump() {
            Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("select") => {}
            _ => {
                self.cursor = self.cursor.saturating_sub(1);
                return Err(self.error_here("expected `SELECT`"));
            }
        }
        let mut q = Query::new();
        // 1. projections, optionally with `=value` bindings
        q.projections = self.group(|p| {
            let (c, a) = p.path()?;
            let attr = p.resolve_attr(&c, &a)?;
            if p.peek() == Some(&Token::Op(CompOp::Eq)) {
                p.bump();
                let ty = p.catalog.attr_type(attr)?;
                let v = p.value(ty)?;
                Ok(Projection::bound(attr, v))
            } else {
                Ok(Projection::plain(attr))
            }
        })?;
        // 2. join predicates
        q.join_predicates = self.group(|p| {
            let (lc, la) = p.path()?;
            let left = p.resolve_attr(&lc, &la)?;
            let op = match p.bump() {
                Some(Token::Op(op)) => op,
                _ => {
                    p.cursor = p.cursor.saturating_sub(1);
                    return Err(p.error_here("expected comparison operator"));
                }
            };
            let (rc, ra) = p.path()?;
            let right = p.resolve_attr(&rc, &ra)?;
            Ok(JoinPredicate::new(left, op, right))
        })?;
        // 3. selective predicates
        q.selective_predicates = self.group(|p| {
            let (c, a) = p.path()?;
            let attr = p.resolve_attr(&c, &a)?;
            let op = match p.bump() {
                Some(Token::Op(op)) => op,
                _ => {
                    p.cursor = p.cursor.saturating_sub(1);
                    return Err(p.error_here("expected comparison operator"));
                }
            };
            let ty = p.catalog.attr_type(attr)?;
            let v = p.value(ty)?;
            Ok(SelPredicate::new(attr, op, v))
        })?;
        // 4. relationships
        q.relationships = self.group(|p| match p.bump() {
            Some(Token::Ident(name)) => Ok(p.catalog.rel_id(&name)?),
            _ => {
                p.cursor = p.cursor.saturating_sub(1);
                Err(p.error_here("expected relationship name"))
            }
        })?;
        // 5. classes
        q.classes = self.group(|p| match p.bump() {
            Some(Token::Ident(name)) => Ok(p.catalog.class_id(&name)?),
            _ => {
                p.cursor = p.cursor.saturating_sub(1);
                Err(p.error_here("expected class name"))
            }
        })?;
        self.expect(&Token::RParen, "`)`")?;
        if self.cursor != self.tokens.len() {
            return Err(self.error_here("trailing input after query"));
        }
        Ok(q)
    }
}

/// Parses a query in the paper's format and validates it against `catalog`.
pub fn parse_query(src: &str, catalog: &Catalog) -> Result<Query, QueryError> {
    let mut p = Parser::new(src, catalog)?;
    let q = p.query()?;
    q.validate(catalog)?;
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::QueryExt;
    use sqo_catalog::example::figure21;

    const FIG23: &str = r#"(SELECT {vehicle.vehicle_no, cargo.desc, cargo.quantity} {}
        {vehicle.desc = "refrigerated truck", supplier.name = "SFI"}
        {collects, supplies} {supplier, cargo, vehicle})"#;

    #[test]
    fn parses_figure23_query() {
        let cat = figure21().unwrap();
        let q = parse_query(FIG23, &cat).unwrap();
        assert_eq!(q.projections.len(), 3);
        assert_eq!(q.selective_predicates.len(), 2);
        assert_eq!(q.relationships.len(), 2);
        assert_eq!(q.classes.len(), 3);
    }

    #[test]
    fn round_trips_through_display() {
        let cat = figure21().unwrap();
        let q = parse_query(FIG23, &cat).unwrap();
        let printed = q.display(&cat).to_string();
        let q2 = parse_query(&printed, &cat).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn parses_bound_projection() {
        let cat = figure21().unwrap();
        let src = r#"(SELECT {vehicle.vehicle_no, cargo.desc="frozen food", cargo.quantity}
            {} {vehicle.desc = "refrigerated truck", cargo.desc = "frozen food"}
            {collects} {cargo, vehicle})"#;
        let q = parse_query(src, &cat).unwrap();
        assert_eq!(q.projections[1].binding, Some(Value::str("frozen food")));
    }

    #[test]
    fn parses_join_predicates_and_operators() {
        let cat = figure21().unwrap();
        let src = r#"(SELECT {driver.name} {driver.license_class >= vehicle.class}
            {driver.license_class != 0, vehicle.class <= 5} {drives} {driver, vehicle})"#;
        let q = parse_query(src, &cat).unwrap();
        assert_eq!(q.join_predicates.len(), 1);
        assert_eq!(q.selective_predicates.len(), 2);
    }

    #[test]
    fn rejects_unknown_names() {
        let cat = figure21().unwrap();
        let src = r#"(SELECT {spaceship.name} {} {} {} {spaceship})"#;
        assert!(parse_query(src, &cat).is_err());
    }

    #[test]
    fn rejects_syntax_garbage() {
        let cat = figure21().unwrap();
        for src in [
            "(SELECT {cargo.desc} {} {} {} {cargo}",   // missing rparen
            "(SELECT {cargo.desc} {} {} {cargo})",     // missing a group
            "(PROJECT {cargo.desc} {} {} {} {cargo})", // wrong keyword
            "(SELECT {cargo.desc,} {} {} {} {cargo})", // dangling comma
            r#"(SELECT {cargo.desc} {} {cargo.desc = "x} {} {cargo})"#, // open string
        ] {
            assert!(parse_query(src, &cat).is_err(), "should reject: {src}");
        }
    }

    #[test]
    fn float_coercion_for_int_literals() {
        // Build a tiny catalog with a float attribute.
        let mut b = Catalog::builder();
        b.class("m", vec![sqo_catalog::AttributeDef::new("w", DataType::Float)]).unwrap();
        let cat = b.build().unwrap();
        let q = parse_query("(SELECT {m.w} {} {m.w > 3} {} {m})", &cat).unwrap();
        assert_eq!(q.selective_predicates[0].value.data_type(), DataType::Float);
    }

    #[test]
    fn error_positions_point_into_source() {
        let cat = figure21().unwrap();
        let src = "(SELECT {cargo.desc} {} {} {} {cargo} ???)";
        match parse_query(src, &cat) {
            Err(QueryError::Syntax { position, .. }) => assert!(position > 0),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }
}
