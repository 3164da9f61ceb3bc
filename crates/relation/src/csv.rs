//! Minimal CSV import/export for datasets (std-only, no quoting — numeric
//! columns only, which is all a range-sum schema contains).
//!
//! Lets users load their own observation tables and lets harnesses persist
//! generated workloads for external plotting.

use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use batchbb_tensor::MAX_DIMS;

use crate::{Dataset, Schema};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A row had the wrong number of fields.
    Arity {
        /// 1-based line number.
        line: usize,
        /// Expected field count.
        expected: usize,
        /// Found field count.
        got: usize,
    },
    /// A field failed to parse as a finite number (`NaN` and the
    /// infinities parse as `f64` but have no bin, so they are rejected).
    Parse {
        /// 1-based line number.
        line: usize,
        /// 0-based column.
        column: usize,
        /// Offending text.
        text: String,
    },
    /// Header names did not match the schema's attribute names.
    HeaderMismatch,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Arity {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected} fields, got {got}"),
            CsvError::Parse { line, column, text } => {
                write!(
                    f,
                    "line {line}, column {column}: `{text}` is not a finite number"
                )
            }
            CsvError::HeaderMismatch => write!(f, "header does not match schema attributes"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Reads a dataset from CSV.  The first line must be a header naming the
/// schema's attributes in order.
pub fn read_csv(schema: Schema, reader: impl Read) -> Result<Dataset, CsvError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines();
    let header = lines.next().ok_or(CsvError::HeaderMismatch)??;
    let names: Vec<&str> = header.split(',').map(str::trim).collect();
    let expected: Vec<&str> = schema
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    if names != expected {
        return Err(CsvError::HeaderMismatch);
    }
    let mut dataset = Dataset::new(schema);
    for (i, line) in lines.enumerate() {
        let line = line?;
        let lineno = i + 2;
        if line.trim().is_empty() {
            continue;
        }
        let arity = dataset.schema().arity();
        let got = line.split(',').count();
        if got != arity {
            return Err(CsvError::Arity {
                line: lineno,
                expected: arity,
                got,
            });
        }
        let mut row = [0.0; MAX_DIMS];
        for (column, field) in line.split(',').map(str::trim).enumerate() {
            row[column] = match field.parse::<f64>() {
                Ok(v) if v.is_finite() => v,
                _ => {
                    return Err(CsvError::Parse {
                        line: lineno,
                        column,
                        text: field.to_string(),
                    })
                }
            };
        }
        dataset
            .push(&row[..arity])
            .expect("field count checked above");
    }
    Ok(dataset)
}

/// Writes a dataset as CSV with a header row.
pub fn write_csv(dataset: &Dataset, writer: impl Write) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let header: Vec<&str> = dataset
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    writeln!(w, "{}", header.join(","))?;
    for t in dataset.tuples() {
        let row: Vec<String> = t.iter().map(|v| format!("{v}")).collect();
        writeln!(w, "{}", row.join(","))?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("x", 0.0, 10.0, 3),
            Attribute::new("y", 0.0, 10.0, 3),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let d = Dataset::from_tuples(
            schema(),
            vec![vec![1.5, 2.0], vec![0.25, 9.75], vec![10.0, 0.0]],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let back = read_csv(schema(), buf.as_slice()).unwrap();
        assert!(back.tuples().eq(d.tuples()));
    }

    #[test]
    fn header_validated() {
        let err = read_csv(schema(), "a,b\n1,2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::HeaderMismatch), "{err}");
    }

    #[test]
    fn arity_and_parse_errors_are_located() {
        let err = read_csv(schema(), "x,y\n1,2,3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Arity { line: 2, .. }), "{err}");
        let err = read_csv(schema(), "x,y\n1,2\n3,oops\n".as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                CsvError::Parse {
                    line: 3,
                    column: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    fn assert_rejected(field: &str) {
        let text = format!("x,y\n1,2\n3,{field}\n");
        let err = read_csv(schema(), text.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, CsvError::Parse { line: 3, column: 1, text } if text == field),
            "{err}"
        );
    }

    #[test]
    fn nan_field_rejected() {
        assert_rejected("NaN");
    }

    #[test]
    fn inf_field_rejected() {
        assert_rejected("inf");
        assert_rejected("-inf");
    }

    #[test]
    fn infinity_field_rejected() {
        assert_rejected("infinity");
        assert_rejected("+Infinity");
    }

    #[test]
    fn blank_lines_skipped() {
        let d = read_csv(schema(), "x,y\n1,2\n\n3,4\n".as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
    }
}
