//! Tokenizer for the ASP input language.

use std::fmt;

/// A token of the ASP language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Lower-case identifier (predicate or symbolic constant).
    Ident(String),
    /// Variable: upper-case identifier or `_`.
    Variable(String),
    /// Quoted string constant.
    Str(String),
    /// Integer constant.
    Int(i64),
    /// `#minimize`
    Minimize,
    /// `#maximize`
    Maximize,
    /// `#const`
    Const,
    /// `#external`
    External,
    /// `#show`
    Show,
    /// `not`
    Not,
    /// `:-`
    If,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `@`
    At,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/` (only in `#show name/arity.`)
    Slash,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Variable(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::Int(i) => write!(f, "{i}"),
            Token::Minimize => write!(f, "#minimize"),
            Token::Maximize => write!(f, "#maximize"),
            Token::Const => write!(f, "#const"),
            Token::External => write!(f, "#external"),
            Token::Show => write!(f, "#show"),
            Token::Not => write!(f, "not"),
            Token::If => write!(f, ":-"),
            Token::Dot => write!(f, "."),
            Token::Comma => write!(f, ","),
            Token::Semi => write!(f, ";"),
            Token::Colon => write!(f, ":"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::At => write!(f, "@"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
        }
    }
}

/// A token plus its line number (1-based), for error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
}

/// An error encountered while tokenizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Description.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize an ASP program. `%` starts a line comment.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '%' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError { message: "unterminated string".into(), line });
                }
                tokens.push(Spanned {
                    token: Token::Str(String::from_utf8_lossy(&bytes[start..j]).into_owned()),
                    line,
                });
                i = j + 1;
            }
            '#' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && (bytes[j] as char).is_ascii_alphabetic() {
                    j += 1;
                }
                let word = &input[start..j];
                let tok = match word {
                    "minimize" => Token::Minimize,
                    "maximize" => Token::Maximize,
                    "const" => Token::Const,
                    "external" => Token::External,
                    "show" => Token::Show,
                    other => {
                        return Err(LexError {
                            message: format!("unknown directive #{other}"),
                            line,
                        })
                    }
                };
                tokens.push(Spanned { token: tok, line });
                i = j;
            }
            ':' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    tokens.push(Spanned { token: Token::If, line });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Colon, line });
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::Ne, line });
                    i += 2;
                } else {
                    return Err(LexError { message: "expected '=' after '!'".into(), line });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::Le, line });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Lt, line });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Spanned { token: Token::Ge, line });
                    i += 2;
                } else {
                    tokens.push(Spanned { token: Token::Gt, line });
                    i += 1;
                }
            }
            '.' => {
                tokens.push(Spanned { token: Token::Dot, line });
                i += 1;
            }
            ',' => {
                tokens.push(Spanned { token: Token::Comma, line });
                i += 1;
            }
            ';' => {
                tokens.push(Spanned { token: Token::Semi, line });
                i += 1;
            }
            '(' => {
                tokens.push(Spanned { token: Token::LParen, line });
                i += 1;
            }
            ')' => {
                tokens.push(Spanned { token: Token::RParen, line });
                i += 1;
            }
            '{' => {
                tokens.push(Spanned { token: Token::LBrace, line });
                i += 1;
            }
            '}' => {
                tokens.push(Spanned { token: Token::RBrace, line });
                i += 1;
            }
            '=' => {
                tokens.push(Spanned { token: Token::Eq, line });
                i += 1;
            }
            '@' => {
                tokens.push(Spanned { token: Token::At, line });
                i += 1;
            }
            '+' => {
                tokens.push(Spanned { token: Token::Plus, line });
                i += 1;
            }
            '-' => {
                tokens.push(Spanned { token: Token::Minus, line });
                i += 1;
            }
            '*' => {
                tokens.push(Spanned { token: Token::Star, line });
                i += 1;
            }
            '/' => {
                tokens.push(Spanned { token: Token::Slash, line });
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = input[start..i].parse().map_err(|_| LexError {
                    message: format!("invalid integer '{}'", &input[start..i]),
                    line,
                })?;
                tokens.push(Spanned { token: Token::Int(n), line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                let tok = if word == "not" {
                    Token::Not
                } else if word.starts_with(|ch: char| ch.is_ascii_uppercase())
                    || word.starts_with('_')
                {
                    Token::Variable(word.to_string())
                } else {
                    Token::Ident(word.to_string())
                };
                tokens.push(Spanned { token: tok, line });
            }
            other => {
                return Err(LexError { message: format!("unexpected character '{other}'"), line })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_simple_rule() {
        let toks = tokenize("node(D) :- node(P), depends_on(P, D). % comment").unwrap();
        let kinds: Vec<&Token> = toks.iter().map(|t| &t.token).collect();
        assert_eq!(kinds[0], &Token::Ident("node".into()));
        assert_eq!(kinds[1], &Token::LParen);
        assert_eq!(kinds[2], &Token::Variable("D".into()));
        assert!(kinds.contains(&&Token::If));
        assert_eq!(kinds.last().unwrap(), &&Token::Dot);
    }

    #[test]
    fn tokenize_strings_and_numbers() {
        let toks = tokenize(r#"version_declared("zlib", "1.2.11", 0)."#).unwrap();
        assert!(toks.iter().any(|t| t.token == Token::Str("zlib".into())));
        assert!(toks.iter().any(|t| t.token == Token::Str("1.2.11".into())));
        assert!(toks.iter().any(|t| t.token == Token::Int(0)));
    }

    #[test]
    fn tokenize_minimize_and_bounds() {
        let toks = tokenize("#minimize{ W@3,P,V : version_weight(P, V, W)}.").unwrap();
        assert_eq!(toks[0].token, Token::Minimize);
        assert!(toks.iter().any(|t| t.token == Token::At));
        let toks = tokenize("1 { version(P, V) : possible_version(P, V) } 1 :- node(P).").unwrap();
        assert_eq!(toks[0].token, Token::Int(1));
        assert!(toks.iter().any(|t| t.token == Token::LBrace));
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize(":- a(X), X != 3, X <= 5, X >= 1, X < 9, X > 0, X = 2.").unwrap();
        for t in [Token::Ne, Token::Le, Token::Ge, Token::Lt, Token::Gt, Token::Eq] {
            assert!(toks.iter().any(|s| s.token == t), "missing {t:?}");
        }
    }

    #[test]
    fn errors_have_lines() {
        let err = tokenize("a.\nb ? c.").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("#unknown thing").is_err());
    }

    #[test]
    fn tokenize_show_directive() {
        let toks = tokenize("#show attr3/3.").unwrap();
        let kinds: Vec<&Token> = toks.iter().map(|t| &t.token).collect();
        assert_eq!(
            kinds,
            [
                &Token::Show,
                &Token::Ident("attr3".into()),
                &Token::Slash,
                &Token::Int(3),
                &Token::Dot
            ]
        );
        // A directive name is matched whole: `#shows` is not `#show`.
        assert!(tokenize("#shows p/1.").is_err());
        assert!(tokenize("#Show p/1.").is_err());
    }

    #[test]
    fn underscore_is_variable() {
        let toks = tokenize("build(P) :- not hash(P, _), node(P).").unwrap();
        assert!(toks.iter().any(|t| t.token == Token::Variable("_".into())));
        assert!(toks.iter().any(|t| t.token == Token::Not));
    }
}
