//! Recursive-descent parser producing a schema-independent AST.

use std::fmt;

use crate::lexer::{tokenize, Token};

/// A selected aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// `COUNT(*)`
    Count,
    /// `SUM(attr)`
    Sum(String),
    /// `AVG(attr)` — planned as SUM/COUNT.
    Avg(String),
    /// `VARIANCE(attr)` — planned as SUMSQ/COUNT − mean².
    Variance(String),
    /// `SUMPRODUCT(a, b)`
    SumProduct(String, String),
}

/// A conjunctive range predicate over one attribute, in raw values.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `attr BETWEEN lo AND hi` (inclusive).
    Between(String, f64, f64),
    /// `attr >= v` / `attr > v`.
    AtLeast(String, f64, bool),
    /// `attr <= v` / `attr < v`. The bool marks strictness.
    AtMost(String, f64, bool),
    /// `attr = v`.
    Equals(String, f64),
}

impl Predicate {
    /// The attribute the predicate constrains.
    pub fn attribute(&self) -> &str {
        match self {
            Predicate::Between(a, _, _)
            | Predicate::AtLeast(a, _, _)
            | Predicate::AtMost(a, _, _)
            | Predicate::Equals(a, _) => a,
        }
    }
}

/// The parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAst {
    /// Selected aggregates, in SELECT order.
    pub aggregates: Vec<Aggregate>,
    /// Table name (informational; `batchbb` views are single-relation).
    pub table: String,
    /// Conjunction of predicates (possibly empty).
    pub predicates: Vec<Predicate>,
    /// `GROUP BY attr(buckets)…` — each entry splits that attribute's
    /// (predicate-restricted) range into equal bucket counts, and the
    /// query returns one row per cell of the cross product.  This is how a
    /// textual query expresses the paper's batch workloads.
    pub group_by: Vec<(String, usize)>,
}

/// Parse errors with human-readable positions.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The lexer rejected a character at this byte offset.
    Lex(usize),
    /// Unexpected token (or end of input) with an expectation message.
    Unexpected {
        /// What was found (`None` = end of input).
        found: Option<String>,
        /// What the parser expected.
        expected: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(at) => write!(f, "unrecognized character at byte {at}"),
            ParseError::Unexpected { found, expected } => match found {
                Some(t) => write!(f, "unexpected `{t}`, expected {expected}"),
                None => write!(f, "unexpected end of query, expected {expected}"),
            },
        }
    }
}

impl std::error::Error for ParseError {}

struct Cursor {
    tokens: Vec<Token>,
    pos: usize,
}

impl Cursor {
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

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            found: self.peek().map(|t| t.to_string()),
            expected: expected.to_string(),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.unexpected(&format!("`{kw}`"))),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Word(w)) if !is_reserved(w) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.unexpected("an attribute name")),
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            t => Err(ParseError::Unexpected {
                found: t.map(|t| t.to_string()),
                expected: "a number".to_string(),
            }),
        }
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }
}

fn is_reserved(word: &str) -> bool {
    const RESERVED: [&str; 12] = [
        "SELECT",
        "FROM",
        "WHERE",
        "AND",
        "BETWEEN",
        "COUNT",
        "SUM",
        "AVG",
        "VARIANCE",
        "SUMPRODUCT",
        "GROUP",
        "BY",
    ];
    RESERVED.iter().any(|r| r.eq_ignore_ascii_case(word))
}

/// Parses a query string into a [`QueryAst`].
pub fn parse(input: &str) -> Result<QueryAst, ParseError> {
    let tokens = tokenize(input).map_err(ParseError::Lex)?;
    let mut c = Cursor { tokens, pos: 0 };
    c.keyword("SELECT")?;
    let mut aggregates = vec![aggregate(&mut c)?];
    while c.peek() == Some(&Token::Comma) {
        c.next();
        aggregates.push(aggregate(&mut c)?);
    }
    c.keyword("FROM")?;
    let table = c.ident()?;
    let mut predicates = Vec::new();
    if c.is_keyword("WHERE") {
        c.next();
        predicates.push(predicate(&mut c)?);
        while c.is_keyword("AND") {
            c.next();
            predicates.push(predicate(&mut c)?);
        }
    }
    let mut group_by: Vec<(String, usize)> = Vec::new();
    if c.is_keyword("GROUP") {
        c.next();
        c.keyword("BY")?;
        loop {
            let item = group_item(&mut c)?;
            // Grouping twice by one attribute means nothing, and planning
            // it would multiply the cell grid once per repeat.
            if group_by.iter().any(|(attr, _)| *attr == item.0) {
                return Err(ParseError::Unexpected {
                    found: Some(item.0),
                    expected: "each GROUP BY attribute once".to_string(),
                });
            }
            group_by.push(item);
            if c.peek() != Some(&Token::Comma) {
                break;
            }
            c.next();
        }
    }
    if let Some(t) = c.peek() {
        return Err(ParseError::Unexpected {
            found: Some(t.to_string()),
            expected: "end of query".to_string(),
        });
    }
    Ok(QueryAst {
        aggregates,
        table,
        predicates,
        group_by,
    })
}

fn group_item(c: &mut Cursor) -> Result<(String, usize), ParseError> {
    let attr = c.ident()?;
    c.expect(&Token::LParen, "`(`")?;
    let n = c.number()?;
    c.expect(&Token::RParen, "`)`")?;
    if n < 1.0 || n.fract() != 0.0 {
        return Err(ParseError::Unexpected {
            found: Some(n.to_string()),
            expected: "a positive integer bucket count".to_string(),
        });
    }
    Ok((attr, n as usize))
}

fn aggregate(c: &mut Cursor) -> Result<Aggregate, ParseError> {
    let name = match c.next() {
        Some(Token::Word(w)) => w.to_ascii_uppercase(),
        t => {
            return Err(ParseError::Unexpected {
                found: t.map(|t| t.to_string()),
                expected: "an aggregate (COUNT/SUM/AVG/VARIANCE/SUMPRODUCT)".to_string(),
            })
        }
    };
    c.expect(&Token::LParen, "`(`")?;
    let agg = match name.as_str() {
        "COUNT" => {
            c.expect(&Token::Star, "`*`")?;
            Aggregate::Count
        }
        "SUM" => Aggregate::Sum(c.ident()?),
        "AVG" => Aggregate::Avg(c.ident()?),
        "VARIANCE" | "VAR" => Aggregate::Variance(c.ident()?),
        "SUMPRODUCT" => {
            let a = c.ident()?;
            c.expect(&Token::Comma, "`,`")?;
            let b = c.ident()?;
            Aggregate::SumProduct(a, b)
        }
        other => {
            return Err(ParseError::Unexpected {
                found: Some(other.to_string()),
                expected: "COUNT, SUM, AVG, VARIANCE, or SUMPRODUCT".to_string(),
            })
        }
    };
    c.expect(&Token::RParen, "`)`")?;
    Ok(agg)
}

fn predicate(c: &mut Cursor) -> Result<Predicate, ParseError> {
    let attr = c.ident()?;
    match c.next() {
        Some(Token::Word(w)) if w.eq_ignore_ascii_case("BETWEEN") => {
            let lo = c.number()?;
            c.keyword("AND")?;
            let hi = c.number()?;
            Ok(Predicate::Between(attr, lo, hi))
        }
        Some(Token::Op(op)) => {
            let v = c.number()?;
            match op.as_str() {
                ">=" => Ok(Predicate::AtLeast(attr, v, false)),
                ">" => Ok(Predicate::AtLeast(attr, v, true)),
                "<=" => Ok(Predicate::AtMost(attr, v, false)),
                "<" => Ok(Predicate::AtMost(attr, v, true)),
                "=" => Ok(Predicate::Equals(attr, v)),
                other => Err(ParseError::Unexpected {
                    found: Some(other.to_string()),
                    expected: "a comparison operator".to_string(),
                }),
            }
        }
        t => Err(ParseError::Unexpected {
            found: t.map(|t| t.to_string()),
            expected: "BETWEEN or a comparison operator".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example() {
        // "total salary paid to employees between age 25 and 40, who make
        // at least 55K per year" (§3.1)
        let ast =
            parse("SELECT SUM(salary) FROM employees WHERE age BETWEEN 25 AND 40 AND salary >= 55")
                .unwrap();
        assert_eq!(ast.aggregates, vec![Aggregate::Sum("salary".into())]);
        assert_eq!(ast.table, "employees");
        assert_eq!(
            ast.predicates,
            vec![
                Predicate::Between("age".into(), 25.0, 40.0),
                Predicate::AtLeast("salary".into(), 55.0, false),
            ]
        );
    }

    #[test]
    fn parses_multiple_aggregates() {
        let ast = parse("SELECT COUNT(*), AVG(t), VARIANCE(t), SUMPRODUCT(a, t) FROM x").unwrap();
        assert_eq!(ast.aggregates.len(), 4);
        assert_eq!(ast.predicates, vec![]);
        assert_eq!(
            ast.aggregates[3],
            Aggregate::SumProduct("a".into(), "t".into())
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let ast = parse("select count(*) from t where a between 1 and 2").unwrap();
        assert_eq!(ast.aggregates, vec![Aggregate::Count]);
    }

    #[test]
    fn strict_and_equality_operators() {
        let ast = parse("SELECT COUNT(*) FROM t WHERE a > 1 AND b < 2 AND c = 3").unwrap();
        assert_eq!(
            ast.predicates,
            vec![
                Predicate::AtLeast("a".into(), 1.0, true),
                Predicate::AtMost("b".into(), 2.0, true),
                Predicate::Equals("c".into(), 3.0),
            ]
        );
    }

    #[test]
    fn error_messages_name_expectations() {
        let err = parse("SELECT COUNT(*) WHERE a = 1").unwrap_err();
        assert!(err.to_string().contains("FROM"), "{err}");
        let err = parse("SELECT COUNT(*) FROM t trailing").unwrap_err();
        assert!(err.to_string().contains("end of query"), "{err}");
        let err = parse("SELECT MAX(a) FROM t").unwrap_err();
        assert!(err.to_string().contains("COUNT, SUM"), "{err}");
        let err = parse("SELECT COUNT(*) FROM t WHERE FROM = 1").unwrap_err();
        assert!(err.to_string().contains("attribute name"), "{err}");
    }

    #[test]
    fn parses_group_by() {
        let ast = parse("SELECT COUNT(*) FROM t GROUP BY lat(8), lon(4)").unwrap();
        assert_eq!(ast.group_by, vec![("lat".into(), 8), ("lon".into(), 4)]);
        let ast = parse("SELECT COUNT(*) FROM t WHERE a > 1 GROUP BY a(2)").unwrap();
        assert_eq!(ast.group_by, vec![("a".into(), 2)]);
    }

    #[test]
    fn rejects_bad_bucket_counts() {
        assert!(parse("SELECT COUNT(*) FROM t GROUP BY a(0)").is_err());
        assert!(parse("SELECT COUNT(*) FROM t GROUP BY a(2.5)").is_err());
        assert!(parse("SELECT COUNT(*) FROM t GROUP BY a(2), b(2), a(4)").is_err());
    }

    #[test]
    fn lex_errors_carry_position() {
        assert_eq!(parse("SELECT #"), Err(ParseError::Lex(7)));
        // Not ASCII: an error at the character, never a split one.
        assert_eq!(parse("SELECT é"), Err(ParseError::Lex(7)));
        assert_eq!(parse("SELECT a\u{a0}b"), Err(ParseError::Lex(8)));
    }
}
