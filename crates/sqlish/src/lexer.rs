//! Tokenizer for the SQL-ish grammar.

use std::fmt;

/// A lexical token. Keywords are recognized case-insensitively and carried
/// as upper-case [`Token::Word`]s by the parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// An identifier or keyword.
    Word(String),
    /// A numeric literal.
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// One of `= >= > <= <`.
    Op(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => write!(f, "{w}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Star => write!(f, "*"),
            Token::Op(o) => write!(f, "{o}"),
        }
    }
}

/// Splits `input` into tokens. Returns the offending byte offset on error.
///
/// The grammar is ASCII: the scan is byte by byte, every class test is the
/// ASCII one, and a non-ASCII byte is an error at its offset — so a token
/// never ends inside a multi-byte character.
pub fn tokenize(input: &str) -> Result<Vec<Token>, usize> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '=' => {
                out.push(Token::Op("=".into()));
                i += 1;
            }
            '>' | '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Op(format!("{c}=")));
                    i += 2;
                } else {
                    out.push(Token::Op(c.to_string()));
                    i += 1;
                }
            }
            c if c.is_ascii_digit() || c == '-' || c == '.' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'-' || bytes[i] == b'+')
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &input[start..i];
                let n: f64 = text.parse().map_err(|_| start)?;
                out.push(Token::Number(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Word(input[start..i].to_string()));
            }
            _ => return Err(i),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_full_query() {
        let toks = tokenize("SELECT COUNT(*) FROM t WHERE a >= -1.5e2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Word("SELECT".into()),
                Token::Word("COUNT".into()),
                Token::LParen,
                Token::Star,
                Token::RParen,
                Token::Word("FROM".into()),
                Token::Word("t".into()),
                Token::Word("WHERE".into()),
                Token::Word("a".into()),
                Token::Op(">=".into()),
                Token::Number(-150.0),
            ]
        );
    }

    #[test]
    fn operators_disambiguate() {
        assert_eq!(
            tokenize("< <= > >= =").unwrap(),
            vec![
                Token::Op("<".into()),
                Token::Op("<=".into()),
                Token::Op(">".into()),
                Token::Op(">=".into()),
                Token::Op("=".into()),
            ]
        );
    }

    #[test]
    fn numbers_parse() {
        assert_eq!(tokenize("3.25").unwrap(), vec![Token::Number(3.25)]);
        assert_eq!(tokenize("-7").unwrap(), vec![Token::Number(-7.0)]);
        assert_eq!(tokenize("1e3").unwrap(), vec![Token::Number(1000.0)]);
    }

    #[test]
    fn rejects_garbage_with_position() {
        assert_eq!(tokenize("a !"), Err(2));
        assert!(tokenize("1.2.3").is_err());
    }

    #[test]
    fn identifiers_with_underscores() {
        assert_eq!(
            tokenize("lat_deg2").unwrap(),
            vec![Token::Word("lat_deg2".into())]
        );
    }
}
