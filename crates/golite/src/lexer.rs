//! Lexer for GoLite source text.
//!
//! The lexer follows Go's scanning rules for the GoLite subset, including
//! Go's automatic semicolon insertion: a semicolon token is synthesized at a
//! newline when the previous token could legally end a statement. Line (`//`)
//! and block (`/* */`) comments are skipped.

use crate::token::{Span, Token, TokenKind};

/// An error produced while scanning source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Location of the offending character(s).
    pub span: Span,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

/// Scans `src` into a token stream ending with an [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated strings or comments and on
/// characters outside the GoLite alphabet.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        tokens: Vec::with_capacity(src.len() / BYTES_PER_TOKEN + 1),
    };
    lx.run()?;
    Ok(lx.tokens)
}

/// A lower bound on source bytes per token, for sizing the token vector
/// once: generated GoLite runs 3.3 to 4.7 (the 960-channel probe: 434,257
/// bytes, 108,609 tokens), commented code more. The slack costs address
/// space only; pages the lexer never writes are never resident.
const BYTES_PER_TOKEN: usize = 3;

/// The value of a string literal token's text (quotes included): escapes
/// resolved, every other byte taken as the char of the same number, which
/// is how the lexer reads the literal.
pub(crate) fn string_value(literal: &str) -> String {
    let body = &literal.as_bytes()[1..literal.len() - 1];
    let mut out = String::with_capacity(body.len());
    let mut bytes = body.iter();
    while let Some(&b) = bytes.next() {
        out.push(if b == b'\\' {
            match bytes.next() {
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(&other) => other as char,
                None => unreachable!("the lexer rejects a trailing backslash"),
            }
        } else {
            b as char
        });
    }
    out
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn here(&self) -> (u32, u32, u32) {
        (self.pos as u32, self.line, self.col)
    }

    fn push(&mut self, kind: TokenKind, start: (u32, u32, u32)) {
        let span = Span::new(start.0, self.pos as u32, start.1, start.2);
        self.tokens.push(Token { kind, span });
    }

    fn maybe_insert_semicolon(&mut self) {
        if let Some(last) = self.tokens.last() {
            if last.kind.ends_statement() {
                let span = Span::new(self.pos as u32, self.pos as u32, self.line, self.col);
                self.tokens.push(Token {
                    kind: TokenKind::Semicolon,
                    span,
                });
            }
        }
    }

    fn error(&self, message: impl Into<String>, start: (u32, u32, u32)) -> LexError {
        LexError {
            message: message.into(),
            span: Span::new(start.0, self.pos as u32, start.1, start.2),
        }
    }

    fn run(&mut self) -> Result<(), LexError> {
        loop {
            // Skip horizontal whitespace; handle newlines for semicolon insertion.
            loop {
                match self.peek() {
                    b' ' | b'\t' | b'\r' => {
                        self.bump();
                    }
                    b'\n' => {
                        self.maybe_insert_semicolon();
                        self.bump();
                    }
                    b'/' if self.peek2() == b'/' => {
                        while self.peek() != b'\n' && self.peek() != 0 {
                            self.bump();
                        }
                    }
                    b'/' if self.peek2() == b'*' => {
                        let start = self.here();
                        self.bump();
                        self.bump();
                        loop {
                            if self.peek() == 0 {
                                return Err(self.error("unterminated block comment", start));
                            }
                            if self.peek() == b'*' && self.peek2() == b'/' {
                                self.bump();
                                self.bump();
                                break;
                            }
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }

            let start = self.here();
            let c = self.peek();
            if c == 0 {
                self.maybe_insert_semicolon();
                self.push(TokenKind::Eof, start);
                return Ok(());
            }

            match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(start),
                b'0'..=b'9' => self.number(start)?,
                b'"' => self.string(start)?,
                _ => self.symbol(start)?,
            }
        }
    }

    fn ident(&mut self, start: (u32, u32, u32)) {
        let s0 = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.bump();
        }
        let word = std::str::from_utf8(&self.src[s0..self.pos]).expect("ascii ident");
        let kind = if word == "_" {
            TokenKind::Underscore
        } else {
            TokenKind::keyword(word).unwrap_or(TokenKind::Ident)
        };
        self.push(kind, start);
    }

    fn number(&mut self, start: (u32, u32, u32)) -> Result<(), LexError> {
        let s0 = self.pos;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[s0..self.pos]).expect("ascii digits");
        if text.parse::<i64>().is_err() {
            return Err(self.error(format!("integer literal `{text}` overflows"), start));
        }
        self.push(TokenKind::Int, start);
        Ok(())
    }

    fn string(&mut self, start: (u32, u32, u32)) -> Result<(), LexError> {
        self.bump(); // opening quote
        loop {
            match self.peek() {
                0 | b'\n' => return Err(self.error("unterminated string literal", start)),
                b'"' => {
                    self.bump();
                    break;
                }
                b'\\' => {
                    self.bump();
                    match self.bump() {
                        b'n' | b't' | b'\\' | b'"' => {}
                        other => {
                            return Err(
                                self.error(format!("unknown escape `\\{}`", other as char), start)
                            )
                        }
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
        self.push(TokenKind::Str, start);
        Ok(())
    }

    fn symbol(&mut self, start: (u32, u32, u32)) -> Result<(), LexError> {
        let c = self.bump();
        let kind = match c {
            b'<' if self.peek() == b'-' => {
                self.bump();
                TokenKind::Arrow
            }
            b'<' if self.peek() == b'=' => {
                self.bump();
                TokenKind::Le
            }
            b'<' => TokenKind::Lt,
            b'>' if self.peek() == b'=' => {
                self.bump();
                TokenKind::Ge
            }
            b'>' => TokenKind::Gt,
            b':' if self.peek() == b'=' => {
                self.bump();
                TokenKind::Define
            }
            b':' => TokenKind::Colon,
            b'=' if self.peek() == b'=' => {
                self.bump();
                TokenKind::Eq
            }
            b'=' => TokenKind::Assign,
            b'!' if self.peek() == b'=' => {
                self.bump();
                TokenKind::Ne
            }
            b'!' => TokenKind::Not,
            b'+' if self.peek() == b'+' => {
                self.bump();
                TokenKind::PlusPlus
            }
            b'+' if self.peek() == b'=' => {
                self.bump();
                TokenKind::PlusAssign
            }
            b'+' => TokenKind::Plus,
            b'-' if self.peek() == b'-' => {
                self.bump();
                TokenKind::MinusMinus
            }
            b'-' if self.peek() == b'=' => {
                self.bump();
                TokenKind::MinusAssign
            }
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'&' if self.peek() == b'&' => {
                self.bump();
                TokenKind::AndAnd
            }
            b'&' => TokenKind::Amp,
            b'|' if self.peek() == b'|' => {
                self.bump();
                TokenKind::OrOr
            }
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b';' => TokenKind::Semicolon,
            other => {
                return Err(self.error(format!("unexpected character `{}`", other as char), start))
            }
        };
        self.push(kind, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    /// Each token's kind and its text in `src`.
    fn lexemes(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn lexes_channel_make() {
        let k = lexemes("outDone := make(chan error, 1)");
        assert_eq!(
            k,
            vec![
                (TokenKind::Ident, "outDone"),
                (TokenKind::Define, ":="),
                (TokenKind::Make, "make"),
                (TokenKind::LParen, "("),
                (TokenKind::Chan, "chan"),
                (TokenKind::Ident, "error"),
                (TokenKind::Comma, ","),
                (TokenKind::Int, "1"),
                (TokenKind::RParen, ")"),
                (TokenKind::Semicolon, ""),
                (TokenKind::Eof, ""),
            ]
        );
    }

    #[test]
    fn arrow_vs_less_than() {
        assert_eq!(kinds("a <- b")[1], TokenKind::Arrow);
        assert_eq!(kinds("a < b")[1], TokenKind::Lt);
        assert_eq!(kinds("a <= b")[1], TokenKind::Le);
    }

    #[test]
    fn semicolon_insertion_after_ident_at_newline() {
        let k = lexemes("x\ny");
        assert_eq!(
            k,
            vec![
                (TokenKind::Ident, "x"),
                (TokenKind::Semicolon, ""),
                (TokenKind::Ident, "y"),
                (TokenKind::Semicolon, ""),
                (TokenKind::Eof, ""),
            ]
        );
    }

    #[test]
    fn no_semicolon_after_operator_at_newline() {
        let k = lexemes("x :=\n1");
        assert_eq!(
            k,
            vec![
                (TokenKind::Ident, "x"),
                (TokenKind::Define, ":="),
                (TokenKind::Int, "1"),
                (TokenKind::Semicolon, ""),
                (TokenKind::Eof, ""),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let k = lexemes("a // trailing\n/* block\nstill block */ b");
        assert_eq!(
            k,
            vec![
                (TokenKind::Ident, "a"),
                (TokenKind::Semicolon, ""),
                (TokenKind::Ident, "b"),
                (TokenKind::Semicolon, ""),
                (TokenKind::Eof, ""),
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let src = r#""a\nb\"c""#;
        let k = lexemes(src);
        assert_eq!(k[0], (TokenKind::Str, src));
        assert_eq!(string_value(k[0].1), "a\nb\"c");
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\nd\"").is_err());
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("ab\n  cd").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[0].span.col, 1);
        // toks[1] is the inserted semicolon.
        assert_eq!(toks[2].span.line, 2);
        assert_eq!(toks[2].span.col, 3);
    }

    #[test]
    fn compound_assignment_ops() {
        assert_eq!(kinds("i++")[1], TokenKind::PlusPlus);
        assert_eq!(kinds("i += 2")[1], TokenKind::PlusAssign);
        assert_eq!(kinds("i -= 2")[1], TokenKind::MinusAssign);
    }

    #[test]
    fn unknown_character_is_error() {
        let err = lex("a # b").unwrap_err();
        assert!(err.message.contains('#'));
    }

    #[test]
    fn underscore_is_blank_token() {
        assert_eq!(kinds("_ = x")[0], TokenKind::Underscore);
    }
}
