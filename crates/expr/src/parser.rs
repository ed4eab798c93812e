//! Recursive-descent parser for the expression language.
//!
//! Grammar (lowest precedence first):
//!
//! ```text
//! expr    := or
//! or      := and ( "or" and )*
//! and     := cmp ( "and" cmp )*
//! cmp     := add ( ("=" | "!=" | "<" | "<=" | ">" | ">=") add )?
//! add     := mul ( ("+" | "-") mul )*
//! mul     := unary ( ("*" | "/" | "%") unary )*
//! unary   := ("-" | "not") unary | primary
//! primary := literal | ident | ident "(" args ")" | "(" expr ")"
//! ```
//!
//! Comparisons are non-associative (`a < b < c` is a syntax error), matching
//! the behaviour users expect from condition boxes in the visual editor.

use crate::ast::{BinOp, Expr, UnOp};
use crate::error::ExprError;
use crate::lexer::{tokenize, Token, TokenKind};
use sl_stt::Value;

/// Parse a complete expression; trailing tokens are an error.
pub fn parse(src: &str) -> Result<Expr, ExprError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        src_len: src.len(),
    };
    let expr = p.parse_or()?;
    if let Some(t) = p.peek() {
        return Err(ExprError::Syntax {
            pos: t.pos,
            message: format!("unexpected trailing token `{}`", t.kind),
        });
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    src_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.peek().map_or(self.src_len, |t| t.pos)
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ExprError> {
        match self.next() {
            Some(t) if &t.kind == kind => Ok(()),
            Some(t) => Err(ExprError::Syntax {
                pos: t.pos,
                message: format!("expected {what}, found `{}`", t.kind),
            }),
            None => Err(ExprError::Syntax {
                pos: self.src_len,
                message: format!("expected {what}, found end of input"),
            }),
        }
    }

    /// True if the next token is the (case-insensitive) keyword `kw`.
    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { kind: TokenKind::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    fn parse_or(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.parse_and()?;
        while self.peek_keyword("or") {
            self.next();
            let right = self.parse_and()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.parse_cmp()?;
        while self.peek_keyword("and") {
            self.next();
            let right = self.parse_cmp()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ExprError> {
        let left = self.parse_add()?;
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Eq) => Some(BinOp::Eq),
            Some(TokenKind::Ne) => Some(BinOp::Ne),
            Some(TokenKind::Lt) => Some(BinOp::Lt),
            Some(TokenKind::Le) => Some(BinOp::Le),
            Some(TokenKind::Gt) => Some(BinOp::Gt),
            Some(TokenKind::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.parse_add()?;
            // Non-associative: a second comparison operator is an error and
            // will surface as a trailing-token / unexpected-token error in
            // the caller.
            Ok(Expr::binary(op, left, right))
        } else {
            Ok(left)
        }
    }

    fn parse_add(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.parse_mul()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_mul(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                Some(TokenKind::Percent) => BinOp::Mod,
                _ => break,
            };
            self.next();
            let right = self.parse_unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ExprError> {
        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Minus)) {
            self.next();
            // Fold negation into numeric literals so `-3` prints back as `-3`
            // rather than `-(3)`.
            let inner = self.parse_unary()?;
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                other => Expr::unary(UnOp::Neg, other),
            });
        }
        if self.peek_keyword("not") {
            self.next();
            let inner = self.parse_unary()?;
            return Ok(Expr::unary(UnOp::Not, inner));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ExprError> {
        let pos = self.here();
        match self.next() {
            Some(Token {
                kind: TokenKind::Int(i),
                ..
            }) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token {
                kind: TokenKind::Float(x),
                ..
            }) => Ok(Expr::Literal(Value::Float(x))),
            Some(Token {
                kind: TokenKind::Str(s),
                ..
            }) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token {
                kind: TokenKind::LParen,
                ..
            }) => {
                let e = self.parse_or()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            Some(Token {
                kind: TokenKind::Ident(name),
                ..
            }) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "true" => return Ok(Expr::Literal(Value::Bool(true))),
                    "false" => return Ok(Expr::Literal(Value::Bool(false))),
                    "null" => return Ok(Expr::Literal(Value::Null)),
                    _ => {}
                }
                if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                    self.next();
                    let mut args = Vec::new();
                    if !matches!(self.peek().map(|t| &t.kind), Some(TokenKind::RParen)) {
                        loop {
                            args.push(self.parse_or()?);
                            if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Comma)) {
                                self.next();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, "`)` to close argument list")?;
                    Ok(Expr::Call {
                        function: lower,
                        args,
                    })
                } else {
                    // Attribute names keep their case: sensor schemas may be
                    // case-sensitive.
                    Ok(Expr::Attr(name))
                }
            }
            Some(t) => Err(ExprError::Syntax {
                pos: t.pos,
                message: format!("expected an expression, found `{}`", t.kind),
            }),
            None => Err(ExprError::Syntax {
                pos,
                message: "expected an expression, found end of input".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse(src).unwrap().to_string()
    }

    #[test]
    fn precedence_and_or() {
        // and binds tighter than or.
        let e = parse("a or b and c").unwrap();
        assert_eq!(
            e,
            Expr::binary(
                BinOp::Or,
                Expr::attr("a"),
                Expr::binary(BinOp::And, Expr::attr("b"), Expr::attr("c"))
            )
        );
    }

    #[test]
    fn precedence_arith_vs_cmp() {
        let e = parse("a + 1 > b * 2").unwrap();
        match e {
            Expr::Binary { op: BinOp::Gt, .. } => {}
            other => panic!("expected Gt at top, got {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(parse("a AND b").unwrap(), parse("a and b").unwrap());
        assert_eq!(parse("NOT a").unwrap(), parse("not a").unwrap());
        assert_eq!(parse("TRUE").unwrap(), Expr::Literal(Value::Bool(true)));
        assert_eq!(parse("Null").unwrap(), Expr::Literal(Value::Null));
    }

    #[test]
    fn function_calls() {
        let e = parse("max(a, b + 1, 3)").unwrap();
        match &e {
            Expr::Call { function, args } => {
                assert_eq!(function, "max");
                assert_eq!(args.len(), 3);
            }
            other => panic!("{other:?}"),
        }
        // Function names are lowercased.
        let e = parse("ABS(x)").unwrap();
        assert!(matches!(e, Expr::Call { ref function, .. } if function == "abs"));
        // Zero-arg call.
        assert!(matches!(parse("pi()").unwrap(), Expr::Call { ref args, .. } if args.is_empty()));
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse("-3").unwrap(), Expr::Literal(Value::Int(-3)));
        assert_eq!(parse("-2.5").unwrap(), Expr::Literal(Value::Float(-2.5)));
        assert_eq!(parse("- -3").unwrap(), Expr::Literal(Value::Int(3)));
        // Negating an attribute stays a unary node.
        assert!(matches!(
            parse("-a").unwrap(),
            Expr::Unary { op: UnOp::Neg, .. }
        ));
    }

    #[test]
    fn double_comparison_rejected() {
        assert!(parse("a < b < c").is_err());
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("a + b c").is_err());
        assert!(parse("a)").is_err());
    }

    #[test]
    fn unbalanced_parens_rejected() {
        assert!(parse("(a + b").is_err());
        assert!(parse("f(a, b").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn print_parse_round_trip_examples() {
        for src in [
            "temperature > 24 and humidity >= 60.5",
            "apparent_temperature(temperature, humidity)",
            "not (a or b) and c != 'x''y'",
            "(a + b) * c - d / e % f",
            "-x + -3",
            "coalesce(a, null, true, false)",
            "_lat > 34.5 or _theme = 'weather/rain'",
        ] {
            let e1 = parse(src).unwrap();
            let printed = e1.to_string();
            let e2 = parse(&printed).unwrap();
            assert_eq!(e1, e2, "round trip failed for `{src}` -> `{printed}`");
        }
    }

    #[test]
    fn deep_nesting_parses() {
        let mut src = String::from("x");
        for _ in 0..200 {
            src = format!("({src} + 1)");
        }
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn roundtrip_preserves_meaning_not_spelling() {
        assert_eq!(roundtrip("a==b"), "a = b");
        assert_eq!(roundtrip("a<>b"), "a != b");
        assert_eq!(roundtrip("((a))"), "a");
    }
}
