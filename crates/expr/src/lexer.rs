//! Tokenisation of expression source text.

use crate::error::ExprError;
use std::fmt;

/// One lexical token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset where the token starts.
    pub pos: usize,
}

/// The kinds of token the language has.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes doubled to escape).
    Str(String),
    /// Identifier or keyword (`and`, `or`, `not`, `true`, `false`, `null`
    /// are recognised by the parser, not the lexer).
    Ident(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `!=` (also `<>`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Float(x) => write!(f, "{x}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Ne => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
        }
    }
}

/// Tokenise the whole source string.
pub fn tokenize(src: &str) -> Result<Vec<Token>, ExprError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    pos: start,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    pos: start,
                });
                i += 1;
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    pos: start,
                });
                i += 1;
            }
            b'+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    pos: start,
                });
                i += 1;
            }
            b'-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    pos: start,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    pos: start,
                });
                i += 1;
            }
            b'/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    pos: start,
                });
                i += 1;
            }
            b'%' => {
                tokens.push(Token {
                    kind: TokenKind::Percent,
                    pos: start,
                });
                i += 1;
            }
            b'=' => {
                // Accept both `=` and `==`.
                i += 1;
                if bytes.get(i) == Some(&b'=') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    pos: start,
                });
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        pos: start,
                    });
                    i += 2;
                } else {
                    return Err(ExprError::Lex {
                        pos: start,
                        ch: '!',
                    });
                }
            }
            b'<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        pos: start,
                    });
                    i += 2;
                }
                Some(b'>') => {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        pos: start,
                    });
                    i += 2;
                }
                _ => {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        pos: start,
                    });
                    i += 1;
                }
            },
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        pos: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        pos: start,
                    });
                    i += 1;
                }
            }
            b'\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(ExprError::UnterminatedString { pos: start }),
                        Some(b'\'') => {
                            // Doubled quote is an escaped quote.
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            // Consume one UTF-8 character.
                            let ch_start = i;
                            i += 1;
                            while i < bytes.len() && (bytes[i] & 0xC0) == 0x80 {
                                i += 1;
                            }
                            s.push_str(&src[ch_start..i]);
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    pos: start,
                });
            }
            b'0'..=b'9' => {
                let mut is_float = false;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| ExprError::BadNumber {
                        pos: start,
                        text: text.to_string(),
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| ExprError::BadNumber {
                        pos: start,
                        text: text.to_string(),
                    })?)
                };
                tokens.push(Token { kind, pos: start });
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    pos: start,
                });
            }
            _ => {
                let ch = src[start..].chars().next().unwrap_or('?');
                return Err(ExprError::Lex { pos: start, ch });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("a + 1 * 2.5"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Plus,
                TokenKind::Int(1),
                TokenKind::Star,
                TokenKind::Float(2.5),
            ]
        );
    }

    #[test]
    fn comparisons_and_aliases() {
        assert_eq!(kinds("a = b"), kinds("a == b"));
        assert_eq!(kinds("a != b"), kinds("a <> b"));
        assert_eq!(
            kinds("< <= > >="),
            vec![TokenKind::Lt, TokenKind::Le, TokenKind::Gt, TokenKind::Ge]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(kinds("'hello'"), vec![TokenKind::Str("hello".into())]);
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into())]);
        assert_eq!(kinds("'日本'"), vec![TokenKind::Str("日本".into())]);
    }

    #[test]
    fn unterminated_string_fails() {
        assert!(matches!(
            tokenize("'oops"),
            Err(ExprError::UnterminatedString { pos: 0 })
        ));
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(kinds("1e3"), vec![TokenKind::Float(1000.0)]);
        assert_eq!(kinds("2.5e-2"), vec![TokenKind::Float(0.025)]);
        // `e` not followed by digits is a separate identifier.
        assert_eq!(
            kinds("1 e"),
            vec![TokenKind::Int(1), TokenKind::Ident("e".into())]
        );
    }

    #[test]
    fn stray_dot_is_an_error() {
        // A dot is only meaningful inside a float or identifier.
        assert!(matches!(
            tokenize("1 . 2"),
            Err(ExprError::Lex { ch: '.', .. })
        ));
    }

    #[test]
    fn identifiers_allow_underscore_and_dot() {
        assert_eq!(
            kinds("_lat weather.temp right_station"),
            vec![
                TokenKind::Ident("_lat".into()),
                TokenKind::Ident("weather.temp".into()),
                TokenKind::Ident("right_station".into()),
            ]
        );
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(matches!(
            tokenize("a # b"),
            Err(ExprError::Lex { ch: '#', .. })
        ));
        assert!(matches!(
            tokenize("a ! b"),
            Err(ExprError::Lex { ch: '!', .. })
        ));
    }

    #[test]
    fn positions_recorded() {
        let toks = tokenize("ab + cd").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 3);
        assert_eq!(toks[2].pos, 5);
    }

    #[test]
    fn whitespace_only_is_empty() {
        assert!(tokenize("  \t\n ").unwrap().is_empty());
    }
}
