//! Token definitions for the GoLite lexer.
//!
//! GoLite keeps Go's token inventory for the subset of the language that the
//! GCatch/GFix analyses reason about: declarations, control flow, goroutines,
//! channels, `select`, `defer`, and the `sync`/`testing`/`context` vocabulary.

use std::fmt;

/// A half-open byte range into the source text, plus 1-based line/column of
/// the start position.
///
/// Spans survive parsing so that detectors can report source locations and so
/// that GFix can compute minimal line-based diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
    /// 1-based source line of `start`.
    pub line: u32,
    /// 1-based source column of `start`.
    pub col: u32,
}

impl Span {
    /// Creates a span covering `start..end` at the given line/column.
    pub fn new(start: u32, end: u32, line: u32, col: u32) -> Self {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// A span that covers both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
            col: if other.line < self.line {
                other.col
            } else {
                self.col
            },
        }
    }

    /// The zero span, used for synthesized nodes that have no source text.
    pub fn synthetic() -> Span {
        Span::default()
    }

    /// Whether this span was synthesized rather than read from source.
    pub fn is_synthetic(&self) -> bool {
        *self == Span::default()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// The kind of a lexical token.
///
/// Kinds carry no text: an identifier's name and a literal's value are
/// read from the source through the token's span ([`Token::text`]), so
/// lexing allocates nothing per token and [`Token`] is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    // Literals and identifiers.
    /// An identifier.
    Ident,
    /// A decimal integer literal that fits in an `i64`.
    Int,
    /// A string literal, quotes and escapes included.
    Str,

    // Keywords.
    /// `package`
    Package,
    /// `import`
    Import,
    /// `func`
    Func,
    /// `var`
    Var,
    /// `const`
    Const,
    /// `type`
    Type,
    /// `struct`
    Struct,
    /// `interface`
    Interface,
    /// `map`
    Map,
    /// `chan`
    Chan,
    /// `go`
    Go,
    /// `defer`
    Defer,
    /// `return`
    Return,
    /// `if`
    If,
    /// `else`
    Else,
    /// `for`
    For,
    /// `range`
    Range,
    /// `select`
    Select,
    /// `switch`
    Switch,
    /// `case`
    Case,
    /// `default`
    Default,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `close`
    Close,
    /// `make`
    Make,
    /// `panic`
    Panic,
    /// `true`
    True,
    /// `false`
    False,
    /// `nil`
    Nil,

    // Operators and punctuation.
    /// <-
    Arrow,
    /// :=
    Define,
    /// =
    Assign,
    /// +
    Plus,
    /// -
    Minus,
    /// *
    Star,
    /// /
    Slash,
    /// %
    Percent,
    /// &
    Amp,
    /// &&
    AndAnd,
    /// ||
    OrOr,
    /// !
    Not,
    /// ==
    Eq,
    /// !=
    Ne,
    /// <
    Lt,
    /// <=
    Le,
    /// >
    Gt,
    /// >=
    Ge,
    /// ++
    PlusPlus,
    /// --
    MinusMinus,
    /// +=
    PlusAssign,
    /// -=
    MinusAssign,
    /// `lparen`
    LParen,
    /// `rparen`
    RParen,
    /// `lbrace`
    LBrace,
    /// `rbrace`
    RBrace,
    /// `lbracket`
    LBracket,
    /// `rbracket`
    RBracket,
    /// `comma`
    Comma,
    /// `dot`
    Dot,
    /// `semicolon`
    Semicolon,
    /// `colon`
    Colon,
    /// `underscore`
    Underscore,

    /// End of input.
    /// `eof`
    Eof,
}

impl TokenKind {
    /// Returns the keyword kind for `word`, if it is a GoLite keyword.
    pub fn keyword(word: &str) -> Option<TokenKind> {
        Some(match word {
            "package" => TokenKind::Package,
            "import" => TokenKind::Import,
            "func" => TokenKind::Func,
            "var" => TokenKind::Var,
            "const" => TokenKind::Const,
            "type" => TokenKind::Type,
            "struct" => TokenKind::Struct,
            "interface" => TokenKind::Interface,
            "map" => TokenKind::Map,
            "chan" => TokenKind::Chan,
            "go" => TokenKind::Go,
            "defer" => TokenKind::Defer,
            "return" => TokenKind::Return,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "for" => TokenKind::For,
            "range" => TokenKind::Range,
            "select" => TokenKind::Select,
            "switch" => TokenKind::Switch,
            "case" => TokenKind::Case,
            "default" => TokenKind::Default,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "close" => TokenKind::Close,
            "make" => TokenKind::Make,
            "panic" => TokenKind::Panic,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "nil" => TokenKind::Nil,
            _ => return None,
        })
    }

    /// Whether a statement can end just before a newline after this token,
    /// mirroring Go's automatic semicolon insertion rule.
    pub fn ends_statement(&self) -> bool {
        matches!(
            self,
            TokenKind::Ident
                | TokenKind::Int
                | TokenKind::Str
                | TokenKind::True
                | TokenKind::False
                | TokenKind::Nil
                | TokenKind::Return
                | TokenKind::Break
                | TokenKind::Continue
                | TokenKind::RParen
                | TokenKind::RBrace
                | TokenKind::RBracket
                | TokenKind::PlusPlus
                | TokenKind::MinusMinus
                | TokenKind::Underscore
        )
    }
}

/// Spells a keyword or symbol as it appears in source; the text-carrying
/// kinds print what they are, since the kind alone has no text.
impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident => write!(f, "identifier"),
            TokenKind::Int => write!(f, "integer literal"),
            TokenKind::Str => write!(f, "string literal"),
            TokenKind::Package => write!(f, "package"),
            TokenKind::Import => write!(f, "import"),
            TokenKind::Func => write!(f, "func"),
            TokenKind::Var => write!(f, "var"),
            TokenKind::Const => write!(f, "const"),
            TokenKind::Type => write!(f, "type"),
            TokenKind::Struct => write!(f, "struct"),
            TokenKind::Interface => write!(f, "interface"),
            TokenKind::Map => write!(f, "map"),
            TokenKind::Chan => write!(f, "chan"),
            TokenKind::Go => write!(f, "go"),
            TokenKind::Defer => write!(f, "defer"),
            TokenKind::Return => write!(f, "return"),
            TokenKind::If => write!(f, "if"),
            TokenKind::Else => write!(f, "else"),
            TokenKind::For => write!(f, "for"),
            TokenKind::Range => write!(f, "range"),
            TokenKind::Select => write!(f, "select"),
            TokenKind::Switch => write!(f, "switch"),
            TokenKind::Case => write!(f, "case"),
            TokenKind::Default => write!(f, "default"),
            TokenKind::Break => write!(f, "break"),
            TokenKind::Continue => write!(f, "continue"),
            TokenKind::Close => write!(f, "close"),
            TokenKind::Make => write!(f, "make"),
            TokenKind::Panic => write!(f, "panic"),
            TokenKind::True => write!(f, "true"),
            TokenKind::False => write!(f, "false"),
            TokenKind::Nil => write!(f, "nil"),
            TokenKind::Arrow => write!(f, "<-"),
            TokenKind::Define => write!(f, ":="),
            TokenKind::Assign => write!(f, "="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::Amp => write!(f, "&"),
            TokenKind::AndAnd => write!(f, "&&"),
            TokenKind::OrOr => write!(f, "||"),
            TokenKind::Not => write!(f, "!"),
            TokenKind::Eq => write!(f, "=="),
            TokenKind::Ne => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::PlusPlus => write!(f, "++"),
            TokenKind::MinusMinus => write!(f, "--"),
            TokenKind::PlusAssign => write!(f, "+="),
            TokenKind::MinusAssign => write!(f, "-="),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Colon => write!(f, ":"),
            TokenKind::Underscore => write!(f, "_"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A lexical token with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it came from.
    pub span: Span,
}

impl Token {
    /// The token's text in `src`, the source it was lexed from.
    pub fn text(self, src: &str) -> &str {
        &src[self.span.start as usize..self.span.end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_covers_channel_vocabulary() {
        for word in ["chan", "go", "select", "defer", "close", "make"] {
            assert!(
                TokenKind::keyword(word).is_some(),
                "{word} must be a keyword"
            );
        }
        assert_eq!(TokenKind::keyword("mutex"), None);
    }

    #[test]
    fn span_join_covers_both() {
        let a = Span::new(0, 4, 1, 1);
        let b = Span::new(10, 12, 2, 3);
        let j = a.to(b);
        assert_eq!(j.start, 0);
        assert_eq!(j.end, 12);
        assert_eq!(j.line, 1);
    }

    #[test]
    fn semicolon_insertion_rule_matches_go() {
        assert!(TokenKind::Ident.ends_statement());
        assert!(TokenKind::RParen.ends_statement());
        assert!(TokenKind::Return.ends_statement());
        assert!(!TokenKind::Comma.ends_statement());
        assert!(!TokenKind::Define.ends_statement());
        assert!(!TokenKind::LBrace.ends_statement());
    }

    #[test]
    fn display_round_trips_symbols() {
        assert_eq!(TokenKind::Arrow.to_string(), "<-");
        assert_eq!(TokenKind::Define.to_string(), ":=");
        assert_eq!(TokenKind::Ne.to_string(), "!=");
    }

    #[test]
    fn synthetic_span_is_recognizable() {
        assert!(Span::synthetic().is_synthetic());
        assert!(!Span::new(0, 1, 1, 1).is_synthetic());
    }
}
