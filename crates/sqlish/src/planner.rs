//! Planner: resolves an AST against a [`Schema`] into a deduplicated batch
//! of vector queries plus the post-processing that derives each selected
//! aggregate (§3: AVERAGE/VARIANCE from COUNT/SUM/SUMSQ).

use std::collections::HashMap;
use std::fmt;

use batchbb_query::{derived, HyperRect, RangeSum};
use batchbb_relation::Schema;

use crate::{Aggregate, ParseError, Predicate, QueryAst};

/// Planning errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The query text failed to parse.
    Parse(ParseError),
    /// A predicate or aggregate names an attribute the schema lacks.
    UnknownAttribute(String),
    /// A predicate conjunction is unsatisfiable (empty range).
    EmptyRange(String),
    /// A GROUP BY requests more buckets than the attribute's restricted
    /// range has bins.
    TooManyBuckets {
        /// Attribute being grouped.
        attribute: String,
        /// Buckets requested.
        buckets: usize,
        /// Bins available in the (predicate-restricted) range.
        bins: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Parse(e) => write!(f, "parse error: {e}"),
            PlanError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            PlanError::EmptyRange(a) => {
                write!(f, "predicates on `{a}` are unsatisfiable (empty range)")
            }
            PlanError::TooManyBuckets {
                attribute,
                buckets,
                bins,
            } => write!(
                f,
                "GROUP BY {attribute}({buckets}) exceeds the {bins} bins available"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ParseError> for PlanError {
    fn from(e: ParseError) -> Self {
        PlanError::Parse(e)
    }
}

/// How to compute one SELECT column from the batch's results.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// The value of query slot `i` directly (COUNT/SUM/SUMPRODUCT).
    Direct(usize),
    /// `AVG`: slot ratios `sum / count`.
    Average {
        /// SUM slot.
        sum: usize,
        /// COUNT slot.
        count: usize,
    },
    /// `VARIANCE`: `sumsq/count − (sum/count)²`.
    Variance {
        /// SUM slot.
        sum: usize,
        /// SUM-of-squares slot.
        sumsq: usize,
        /// COUNT slot.
        count: usize,
    },
}

/// An executable plan: one group cell per output row, a deduplicated batch
/// of vector queries (`cells × slots`, slot-major within each cell), and
/// per-column output recipes.
///
/// Without `GROUP BY` there is exactly one cell; with it, the plan *is* a
/// partition batch — the workload the whole paper is about — and the
/// shared coefficients across neighbouring cells are exactly what
/// Batch-Biggest-B's master list dedupes.
#[derive(Debug, Clone)]
pub struct Plan {
    cells: Vec<HyperRect>,
    slots: usize,
    queries: Vec<RangeSum>,
    outputs: Vec<Output>,
}

impl Plan {
    /// The deduplicated vector queries to evaluate (exactly or
    /// progressively) — feed these to `BatchQueries::rewrite`.
    pub fn queries(&self) -> &[RangeSum] {
        &self.queries
    }

    /// One output recipe per SELECT column (slot indices are relative to a
    /// cell's block of queries).
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// The group cells, one per output row (a single cell when the query
    /// has no `GROUP BY`).
    pub fn cells(&self) -> &[HyperRect] {
        &self.cells
    }

    /// The resolved (binned) range of the first cell — the whole WHERE
    /// range when there is no `GROUP BY`.
    pub fn range(&self) -> &HyperRect {
        &self.cells[0]
    }

    /// Computes the result rows from (progressive or exact) estimates
    /// aligned with [`Plan::queries`]: one row per cell, one column per
    /// selected aggregate.  Derived columns are `None` when their COUNT
    /// estimate is not positive.
    pub fn finish(&self, estimates: &[f64]) -> Vec<Vec<Option<f64>>> {
        assert_eq!(
            estimates.len(),
            self.queries.len(),
            "estimates do not match the plan's batch"
        );
        estimates
            .chunks_exact(self.slots)
            .map(|cell| {
                self.outputs
                    .iter()
                    .map(|o| match *o {
                        Output::Direct(i) => Some(cell[i]),
                        Output::Average { sum, count } => derived::average(cell[sum], cell[count]),
                        Output::Variance { sum, sumsq, count } => {
                            derived::variance(cell[sum], cell[sumsq], cell[count])
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Parses and plans a query string against `schema`.
pub fn plan(input: &str, schema: &Schema) -> Result<Plan, PlanError> {
    plan_ast(&crate::parse(input)?, schema)
}

/// Plans an already-parsed AST against `schema`.
pub fn plan_ast(ast: &QueryAst, schema: &Schema) -> Result<Plan, PlanError> {
    let range = resolve_range(&ast.predicates, schema)?;
    let cells = split_cells(&range, &ast.group_by, schema)?;

    // Determine the slot layout once, on the first cell.
    let mut planner = Planner {
        schema,
        range: cells[0].clone(),
        queries: Vec::new(),
        slots: HashMap::new(),
    };
    let outputs = ast
        .aggregates
        .iter()
        .map(|a| planner.output_for(a))
        .collect::<Result<Vec<_>, _>>()?;
    let slot_keys: Vec<Slot> = {
        let mut keys: Vec<(Slot, usize)> =
            planner.slots.iter().map(|(k, &i)| (k.clone(), i)).collect();
        keys.sort_by_key(|&(_, i)| i);
        keys.into_iter().map(|(k, _)| k).collect()
    };
    let slots = slot_keys.len();

    // Instantiate the same slots for every remaining cell.
    let mut queries = planner.queries;
    for cell in &cells[1..] {
        for key in &slot_keys {
            queries.push(match key {
                Slot::Count => RangeSum::count(cell.clone()),
                Slot::Sum(a) => RangeSum::sum(cell.clone(), *a),
                Slot::SumProduct(a, b) => RangeSum::sum_product(cell.clone(), *a, *b),
            });
        }
    }
    Ok(Plan {
        cells,
        slots,
        queries,
        outputs,
    })
}

/// Splits `range` into the GROUP BY grid (one cell when `group_by` is
/// empty).
fn split_cells(
    range: &HyperRect,
    group_by: &[(String, usize)],
    schema: &Schema,
) -> Result<Vec<HyperRect>, PlanError> {
    let mut cells = vec![range.clone()];
    for (name, buckets) in group_by {
        let axis = schema
            .attribute_index(name)
            .ok_or_else(|| PlanError::UnknownAttribute(name.clone()))?;
        let (lo, hi) = (range.lo()[axis], range.hi()[axis]);
        let extent = hi - lo + 1;
        if *buckets > extent {
            return Err(PlanError::TooManyBuckets {
                attribute: name.clone(),
                buckets: *buckets,
                bins: extent,
            });
        }
        let mut next = Vec::with_capacity(cells.len() * buckets);
        for cell in &cells {
            for b in 0..*buckets {
                let c_lo = lo + b * extent / buckets;
                let c_hi = lo + (b + 1) * extent / buckets - 1;
                let mut new_lo = cell.lo().to_vec();
                let mut new_hi = cell.hi().to_vec();
                new_lo[axis] = c_lo;
                new_hi[axis] = c_hi;
                next.push(HyperRect::new(new_lo, new_hi));
            }
        }
        cells = next;
    }
    Ok(cells)
}

/// Canonical identity of a vector query for deduplication.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Slot {
    Count,
    Sum(usize),
    SumProduct(usize, usize),
}

struct Planner<'a> {
    schema: &'a Schema,
    range: HyperRect,
    queries: Vec<RangeSum>,
    slots: HashMap<Slot, usize>,
}

impl Planner<'_> {
    fn attr(&self, name: &str) -> Result<usize, PlanError> {
        self.schema
            .attribute_index(name)
            .ok_or_else(|| PlanError::UnknownAttribute(name.to_string()))
    }

    fn slot(&mut self, key: Slot) -> usize {
        if let Some(&i) = self.slots.get(&key) {
            return i;
        }
        let q = match key {
            Slot::Count => RangeSum::count(self.range.clone()),
            Slot::Sum(a) => RangeSum::sum(self.range.clone(), a),
            Slot::SumProduct(a, b) => RangeSum::sum_product(self.range.clone(), a, b),
        };
        self.queries.push(q);
        let i = self.queries.len() - 1;
        self.slots.insert(key, i);
        i
    }

    fn output_for(&mut self, agg: &Aggregate) -> Result<Output, PlanError> {
        Ok(match agg {
            Aggregate::Count => Output::Direct(self.slot(Slot::Count)),
            Aggregate::Sum(a) => {
                let a = self.attr(a)?;
                Output::Direct(self.slot(Slot::Sum(a)))
            }
            Aggregate::SumProduct(a, b) => {
                let (a, b) = (self.attr(a)?, self.attr(b)?);
                let (a, b) = (a.min(b), a.max(b));
                Output::Direct(self.slot(Slot::SumProduct(a, b)))
            }
            Aggregate::Avg(a) => {
                let a = self.attr(a)?;
                Output::Average {
                    sum: self.slot(Slot::Sum(a)),
                    count: self.slot(Slot::Count),
                }
            }
            Aggregate::Variance(a) => {
                let a = self.attr(a)?;
                Output::Variance {
                    sum: self.slot(Slot::Sum(a)),
                    sumsq: self.slot(Slot::SumProduct(a, a)),
                    count: self.slot(Slot::Count),
                }
            }
        })
    }
}

/// Intersects all predicates into one binned hyper-rectangle.
fn resolve_range(predicates: &[Predicate], schema: &Schema) -> Result<HyperRect, PlanError> {
    let domain = schema.domain();
    let mut lo: Vec<usize> = vec![0; schema.arity()];
    let mut hi: Vec<usize> = domain.dims().iter().map(|&d| d - 1).collect();
    for p in predicates {
        let name = p.attribute();
        let axis = schema
            .attribute_index(name)
            .ok_or_else(|| PlanError::UnknownAttribute(name.to_string()))?;
        let attr = &schema.attributes()[axis];
        let (p_lo, p_hi) = match p {
            Predicate::Between(_, a, b) => (attr.bin(*a), attr.bin(*b)),
            Predicate::AtLeast(_, v, strict) => {
                // `> v` excludes v's bin only when v sits exactly on the
                // upper edge of its bin; predicates snap to bin granularity,
                // so we conservatively keep the bin for `>=` and `>` alike
                // unless the value binned past the end.
                let mut b = attr.bin(*v);
                if *strict && attr.bin(v + f64::EPSILON.max(v.abs() * 1e-12)) > b {
                    b += 1;
                }
                (b.min(attr.bins() - 1), attr.bins() - 1)
            }
            Predicate::AtMost(_, v, strict) => {
                let mut b = attr.bin(*v);
                if *strict && b > 0 && attr.bin(v - f64::EPSILON.max(v.abs() * 1e-12)) < b {
                    b -= 1;
                }
                (0, b)
            }
            Predicate::Equals(_, v) => {
                let b = attr.bin(*v);
                (b, b)
            }
        };
        lo[axis] = lo[axis].max(p_lo);
        hi[axis] = hi[axis].min(p_hi);
        if lo[axis] > hi[axis] {
            return Err(PlanError::EmptyRange(name.to_string()));
        }
    }
    Ok(HyperRect::new(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_relation::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("age", 0.0, 128.0, 7),
            Attribute::new("salary", 0.0, 128.0, 7),
        ])
        .unwrap()
    }

    #[test]
    fn plans_the_paper_query() {
        let p = plan(
            "SELECT SUM(salary) FROM emp WHERE age BETWEEN 25 AND 40 AND salary >= 55",
            &schema(),
        )
        .unwrap();
        assert_eq!(p.queries().len(), 1);
        assert_eq!(p.range().lo(), &[25, 55]);
        assert_eq!(p.range().hi(), &[40, 127]);
        assert_eq!(p.outputs(), &[Output::Direct(0)]);
    }

    #[test]
    fn avg_and_variance_share_slots() {
        let p = plan(
            "SELECT COUNT(*), AVG(salary), VARIANCE(salary), SUM(salary) FROM emp",
            &schema(),
        )
        .unwrap();
        // slots: count, sum(salary), sumsq(salary) — deduplicated
        assert_eq!(p.queries().len(), 3);
        assert_eq!(p.outputs().len(), 4);
        let rows = p.finish(&[4.0, 12.0, 50.0]);
        assert_eq!(rows.len(), 1, "no GROUP BY: one row");
        let vals = &rows[0];
        assert_eq!(vals[0], Some(4.0)); // count
        assert_eq!(vals[1], Some(3.0)); // avg = 12/4
        assert_eq!(vals[2], Some(3.5)); // var = 50/4 - 9
        assert_eq!(vals[3], Some(12.0)); // sum
    }

    #[test]
    fn sumproduct_is_symmetric() {
        let p = plan(
            "SELECT SUMPRODUCT(age, salary), SUMPRODUCT(salary, age) FROM emp",
            &schema(),
        )
        .unwrap();
        assert_eq!(p.queries().len(), 1, "commutative product deduplicates");
    }

    #[test]
    fn unknown_attribute_rejected() {
        assert_eq!(
            plan("SELECT SUM(bonus) FROM emp", &schema()).unwrap_err(),
            PlanError::UnknownAttribute("bonus".into())
        );
        assert_eq!(
            plan("SELECT COUNT(*) FROM emp WHERE bonus = 1", &schema()).unwrap_err(),
            PlanError::UnknownAttribute("bonus".into())
        );
    }

    #[test]
    fn contradictory_predicates_rejected() {
        assert_eq!(
            plan(
                "SELECT COUNT(*) FROM emp WHERE age < 10 AND age > 20",
                &schema()
            )
            .unwrap_err(),
            PlanError::EmptyRange("age".into())
        );
    }

    #[test]
    fn predicates_intersect() {
        let p = plan(
            "SELECT COUNT(*) FROM emp WHERE age >= 10 AND age <= 90 AND age BETWEEN 20 AND 100",
            &schema(),
        )
        .unwrap();
        assert_eq!(p.range().lo()[0], 20);
        assert_eq!(p.range().hi()[0], 90);
    }

    #[test]
    fn equality_pins_one_bin() {
        let p = plan("SELECT COUNT(*) FROM emp WHERE age = 33", &schema()).unwrap();
        assert_eq!((p.range().lo()[0], p.range().hi()[0]), (33, 33));
    }

    #[test]
    fn group_by_builds_a_partition_batch() {
        let p = plan(
            "SELECT COUNT(*), AVG(salary) FROM emp \
             WHERE age BETWEEN 0 AND 63 GROUP BY age(4), salary(2)",
            &schema(),
        )
        .unwrap();
        assert_eq!(p.cells().len(), 8);
        // slots per cell: count + sum(salary) = 2
        assert_eq!(p.queries().len(), 16);
        // cells tile the WHERE range
        let total: usize = p.cells().iter().map(|c| c.volume()).sum();
        assert_eq!(total, 64 * 128);
        // rows decode per cell
        let estimates: Vec<f64> = (0..16).map(|i| (i + 1) as f64).collect();
        let rows = p.finish(&estimates);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0], vec![Some(1.0), Some(2.0)]);
        assert_eq!(rows[7], vec![Some(15.0), Some(16.0 / 15.0)]);
    }

    #[test]
    fn group_by_respects_where_bounds() {
        let p = plan(
            "SELECT COUNT(*) FROM emp WHERE age BETWEEN 10 AND 17 GROUP BY age(4)",
            &schema(),
        )
        .unwrap();
        let cells = p.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!((cells[0].lo()[0], cells[0].hi()[0]), (10, 11));
        assert_eq!((cells[3].lo()[0], cells[3].hi()[0]), (16, 17));
    }

    #[test]
    fn too_many_buckets_rejected() {
        let err = plan(
            "SELECT COUNT(*) FROM emp WHERE age BETWEEN 10 AND 11 GROUP BY age(4)",
            &schema(),
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::TooManyBuckets { .. }), "{err}");
    }

    #[test]
    fn end_to_end_against_an_executor() {
        use batchbb_core::{BatchQueries, ProgressiveExecutor};
        use batchbb_penalty::Sse;
        use batchbb_query::LinearStrategy;
        use batchbb_query::WaveletStrategy;
        use batchbb_storage::MemoryStore;
        use batchbb_wavelet::Wavelet;

        let schema = schema();
        let dataset = batchbb_relation::synth::salary(20_000, 8);
        let dfd = dataset.to_frequency_distribution();
        let domain = dfd.schema().domain();
        let p = plan(
            "SELECT COUNT(*), SUM(salary_k), AVG(salary_k) FROM emp \
             WHERE age BETWEEN 25 AND 40 AND salary_k >= 55",
            dfd.schema(),
        )
        .unwrap();
        drop(schema);

        let strategy = WaveletStrategy::new(Wavelet::Db4);
        let store = MemoryStore::from_entries(strategy.transform_data(dfd.tensor()));
        let batch = BatchQueries::rewrite(&strategy, p.queries().to_vec(), &domain).unwrap();
        let mut exec = ProgressiveExecutor::new(&batch, &Sse, &store);
        exec.run_to_end();
        let cols = &p.finish(exec.estimates())[0];

        // ground truth by scanning the table
        let in_range: Vec<f64> = dataset
            .tuples()
            .map(|t| dfd.schema().bin_tuple(t).unwrap())
            .filter(|c| p.range().contains(c))
            .map(|c| c[1] as f64)
            .collect();
        let count = in_range.len() as f64;
        let sum: f64 = in_range.iter().sum();
        assert!((cols[0].unwrap() - count).abs() < 1e-6 * count);
        assert!((cols[1].unwrap() - sum).abs() < 1e-6 * sum);
        assert!((cols[2].unwrap() - sum / count).abs() < 1e-6 * (sum / count));
    }
}
