//! Property-based tests: random ASTs survive a print → parse round trip,
//! random plans always produce consistent batches, and no input text —
//! arbitrary bytes or a soup of the grammar's own tokens — makes the
//! front end panic.

use proptest::prelude::*;

use batchbb_query::partition::is_partition;
use batchbb_relation::{Attribute, Schema};
use batchbb_sqlish::{parse, plan, plan_ast, Aggregate, Predicate, QueryAst};

fn ident() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["lat", "lon", "alt", "t_emp"]).prop_map(str::to_string)
}

fn arb_aggregate() -> impl Strategy<Value = Aggregate> {
    prop_oneof![
        Just(Aggregate::Count),
        ident().prop_map(Aggregate::Sum),
        ident().prop_map(Aggregate::Avg),
        ident().prop_map(Aggregate::Variance),
        (ident(), ident()).prop_map(|(a, b)| Aggregate::SumProduct(a, b)),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let v = -50.0f64..50.0;
    prop_oneof![
        (ident(), v.clone(), v.clone())
            .prop_map(|(a, x, y)| { Predicate::Between(a, x.min(y), x.max(y)) }),
        (ident(), v.clone(), any::<bool>()).prop_map(|(a, x, s)| Predicate::AtLeast(a, x, s)),
        (ident(), v.clone(), any::<bool>()).prop_map(|(a, x, s)| Predicate::AtMost(a, x, s)),
        (ident(), v).prop_map(|(a, x)| Predicate::Equals(a, x)),
    ]
}

fn arb_ast() -> impl Strategy<Value = QueryAst> {
    (
        prop::collection::vec(arb_aggregate(), 1..4),
        prop::collection::vec(arb_predicate(), 0..3),
        prop::collection::vec((ident(), 1usize..4), 0..2),
    )
        .prop_map(|(aggregates, predicates, group_by)| QueryAst {
            aggregates,
            table: "obs".to_string(),
            predicates,
            group_by,
        })
}

/// Renders an AST back to query text (the inverse of parsing, used only by
/// these tests).
fn render(ast: &QueryAst) -> String {
    let aggs: Vec<String> = ast
        .aggregates
        .iter()
        .map(|a| match a {
            Aggregate::Count => "COUNT(*)".to_string(),
            Aggregate::Sum(x) => format!("SUM({x})"),
            Aggregate::Avg(x) => format!("AVG({x})"),
            Aggregate::Variance(x) => format!("VARIANCE({x})"),
            Aggregate::SumProduct(a, b) => format!("SUMPRODUCT({a}, {b})"),
        })
        .collect();
    let mut out = format!("SELECT {} FROM {}", aggs.join(", "), ast.table);
    if !ast.predicates.is_empty() {
        let preds: Vec<String> = ast
            .predicates
            .iter()
            .map(|p| match p {
                Predicate::Between(a, lo, hi) => format!("{a} BETWEEN {lo} AND {hi}"),
                Predicate::AtLeast(a, v, true) => format!("{a} > {v}"),
                Predicate::AtLeast(a, v, false) => format!("{a} >= {v}"),
                Predicate::AtMost(a, v, true) => format!("{a} < {v}"),
                Predicate::AtMost(a, v, false) => format!("{a} <= {v}"),
                Predicate::Equals(a, v) => format!("{a} = {v}"),
            })
            .collect();
        out.push_str(&format!(" WHERE {}", preds.join(" AND ")));
    }
    if !ast.group_by.is_empty() {
        let groups: Vec<String> = ast
            .group_by
            .iter()
            .map(|(a, n)| format!("{a}({n})"))
            .collect();
        out.push_str(&format!(" GROUP BY {}", groups.join(", ")));
    }
    out
}

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::new("lat", -90.0, 90.0, 4),
        Attribute::new("lon", -180.0, 180.0, 4),
        Attribute::new("alt", -100.0, 100.0, 3),
        Attribute::new("t_emp", -50.0, 50.0, 4),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print(ast) parses back to the identical AST.
    #[test]
    fn parse_render_roundtrip(ast in arb_ast()) {
        let text = render(&ast);
        let back = parse(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        prop_assert_eq!(back, ast);
    }

    /// Whenever a plan succeeds, its batch is structurally sound: the cell
    /// count divides the query count, every query's range lies in a cell,
    /// and GROUP BY cells tile the WHERE range.
    #[test]
    fn plans_are_structurally_sound(ast in arb_ast()) {
        let schema = schema();
        let Ok(plan) = plan_ast(&ast, &schema) else {
            return Ok(()); // empty ranges / too many buckets are legal rejections
        };
        let cells = plan.cells().len();
        prop_assert!(cells >= 1);
        prop_assert_eq!(plan.queries().len() % cells, 0);
        let slots = plan.queries().len() / cells;
        prop_assert!(slots >= 1);
        for (i, q) in plan.queries().iter().enumerate() {
            prop_assert_eq!(q.range(), &plan.cells()[i / slots]);
        }
        // Cells tile the overall WHERE range: volumes add up.
        if !ast.group_by.is_empty() {
            let lo: Vec<usize> = (0..4)
                .map(|a| plan.cells().iter().map(|c| c.lo()[a]).min().unwrap())
                .collect();
            let hi: Vec<usize> = (0..4)
                .map(|a| plan.cells().iter().map(|c| c.hi()[a]).max().unwrap())
                .collect();
            let dims: Vec<usize> = lo.iter().zip(&hi).map(|(l, h)| h - l + 1).collect();
            let shifted: Vec<batchbb_query::HyperRect> = plan
                .cells()
                .iter()
                .map(|c| {
                    batchbb_query::HyperRect::new(
                        c.lo().iter().zip(&lo).map(|(x, l)| x - l).collect(),
                        c.hi().iter().zip(&lo).map(|(x, l)| x - l).collect(),
                    )
                })
                .collect();
            let shape = batchbb_tensor::Shape::new(dims).unwrap();
            prop_assert!(is_partition(&shape, &shifted), "cells must tile");
        }
    }

    /// finish() always yields one row per cell and one column per selected
    /// aggregate, whatever the estimates.
    #[test]
    fn finish_shape_is_stable(ast in arb_ast(), fill in -5.0f64..5.0) {
        let schema = schema();
        let Ok(plan) = plan_ast(&ast, &schema) else { return Ok(()); };
        let est = vec![fill; plan.queries().len()];
        let rows = plan.finish(&est);
        prop_assert_eq!(rows.len(), plan.cells().len());
        for row in rows {
            prop_assert_eq!(row.len(), ast.aggregates.len());
        }
    }
}

/// Pieces a statement is made of, plus what breaks one: wrong-case and
/// reserved words, unknown attributes, numbers that overflow, underflow or
/// are not numbers, bucket counts past any domain, stray punctuation and
/// characters outside the ASCII grammar.
const SOUP: &[&str] = &[
    "SELECT",
    "select",
    "FROM",
    "WHERE",
    "AND",
    "BETWEEN",
    "GROUP",
    "BY",
    "COUNT",
    "SUM",
    "AVG",
    "VARIANCE",
    "SUMPRODUCT",
    "MAX",
    "lat",
    "lon",
    "alt",
    "t_emp",
    "obs",
    "_",
    "(",
    ")",
    ",",
    "*",
    "=",
    ">=",
    ">",
    "<=",
    "<",
    "0",
    "1",
    "2",
    "8",
    "9",
    "-1",
    "2.5",
    "1e3",
    "1e999",
    "-1e999",
    "1e-999",
    "18446744073709551616",
    "1.2.3",
    "-",
    ".",
    "e",
    "#",
    ";",
    "'",
    "é",
    "\u{a0}",
    "\u{1F600}",
    "\0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any text is answered with `Ok` or `Err`: the lexer, parser and
    /// planner never unwind (a panic here fails the case).
    #[test]
    fn no_input_panics_the_front_end(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        soup in prop::collection::vec((0..SOUP.len(), any::<bool>()), 0..40),
    ) {
        let schema = schema();
        let _ = plan(&String::from_utf8_lossy(&bytes), &schema);
        let mut text = String::new();
        for (piece, spaced) in soup {
            text.push_str(SOUP[piece]);
            if spaced {
                text.push(' ');
            }
        }
        if let Ok(plan) = plan(&text, &schema) {
            // Whatever planned is a usable plan.
            prop_assert_eq!(plan.queries().len() % plan.cells().len(), 0);
        }
    }
}
