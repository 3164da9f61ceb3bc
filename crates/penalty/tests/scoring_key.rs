//! The scoring-key contract (`Penalty::scoring_key`): two penalties built
//! separately from equal parameters have equal keys and score every column
//! bit-identically, and changing any one parameter the importance reads
//! changes the key.  A batch shares its sorted progression between
//! admissions on nothing but key equality, so a key that missed a
//! parameter would hand one penalty another's order.

use proptest::prelude::*;

use batchbb_penalty::{
    Combination, CursorKernel, DiagonalQuadratic, LaplacianPenalty, LpPenalty, Penalty,
    QuadraticForm, Sse,
};

const S: usize = 6;

/// Every parameter of every in-tree penalty.
#[derive(Debug, Clone)]
struct Params {
    weights: Vec<f64>,
    p: f64,
    matrix: Vec<f64>,
    cursor: usize,
    edges: Vec<(usize, usize)>,
    mix: [f64; 2],
}

impl Params {
    /// One of each in-tree penalty, built from these parameters.
    fn build(&self) -> Vec<Box<dyn Penalty>> {
        let mut neighbors = vec![Vec::new(); S];
        for &(i, j) in &self.edges {
            neighbors[i].push(j);
            neighbors[j].push(i);
        }
        vec![
            Box::new(Sse),
            Box::new(DiagonalQuadratic::new(self.weights.clone())),
            Box::new(QuadraticForm::new(S, self.matrix.clone())),
            Box::new(LaplacianPenalty::new(neighbors)),
            Box::new(LpPenalty::new(self.p)),
            Box::new(DiagonalQuadratic::near_cursor(
                S,
                self.cursor,
                4.0,
                2.0,
                CursorKernel::Triangular,
            )),
            Box::new(Combination::new(vec![
                (self.mix[0], Box::new(Sse) as Box<dyn Penalty>),
                (
                    self.mix[1],
                    Box::new(DiagonalQuadratic::new(self.weights.clone())),
                ),
            ])),
        ]
    }
}

/// Random parameters: a PSD matrix `MᵀM`, a simple graph's edge set.
fn arb_params() -> impl Strategy<Value = Params> {
    (
        prop::collection::vec(0.0f64..5.0, S),
        1.0f64..4.0,
        prop::collection::vec(-2.0f64..2.0, S * S),
        0usize..S,
        prop::collection::vec((0usize..S, 0usize..S), 0..8),
        (0.0f64..3.0, 0.0f64..3.0),
    )
        .prop_map(|(weights, p, m, cursor, pairs, (a, b))| {
            let mut matrix = vec![0.0; S * S];
            for i in 0..S {
                for j in 0..S {
                    matrix[i * S + j] = (0..S).map(|k| m[k * S + i] * m[k * S + j]).sum();
                }
            }
            let mut edges: Vec<(usize, usize)> = pairs
                .into_iter()
                .filter(|(i, j)| i != j)
                .map(|(i, j)| (i.min(j), i.max(j)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            Params {
                weights,
                p,
                matrix,
                cursor,
                edges,
                mix: [a, b],
            }
        })
}

/// A sparse column: distinct query indices, any values.
fn arb_column() -> impl Strategy<Value = Vec<(usize, f64)>> {
    prop::collection::vec((0usize..S, -10.0f64..10.0), 0..S).prop_map(|mut col| {
        col.sort_by_key(|&(i, _)| i);
        col.dedup_by_key(|&mut (i, _)| i);
        col
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equal parameters, built twice: equal keys, bit-identical scores —
    /// and no two of the penalties share a key.
    #[test]
    fn equal_parameters_give_equal_keys_and_scores(
        params in arb_params(),
        columns in prop::collection::vec(arb_column(), 1..8),
    ) {
        let (ours, theirs) = (params.build(), params.clone().build());
        for (a, b) in ours.iter().zip(&theirs) {
            let key = a.scoring_key();
            prop_assert!(key.is_some(), "{} has no key", a.name());
            prop_assert_eq!(&key, &b.scoring_key(), "{}", a.name());
            for column in &columns {
                prop_assert_eq!(
                    a.importance(column, S).to_bits(),
                    b.importance(column, S).to_bits(),
                    "{} on {:?}", a.name(), column
                );
            }
        }
        for (i, a) in ours.iter().enumerate() {
            for b in &ours[i + 1..] {
                prop_assert!(a.scoring_key() != b.scoring_key(), "{} vs {}", a.name(), b.name());
            }
        }
    }

    /// Changing one parameter — a weight, `p`, a matrix entry, an edge, a
    /// combination weight, or a cursor move that changes a weight (here
    /// every move does) — changes that penalty's key.
    #[test]
    fn one_changed_parameter_changes_the_key(
        params in arb_params(),
        at in 0usize..S,
        edge in (0usize..S, 1usize..S),
    ) {
        let base = params.build();
        let mut flips: Vec<(usize, Params)> = Vec::new();
        let mut flip = |penalty: usize, change: &dyn Fn(&mut Params)| {
            let mut changed = params.clone();
            change(&mut changed);
            flips.push((penalty, changed));
        };
        flip(1, &|q| q.weights[at] += 1.0);
        flip(2, &|q| q.matrix[at * S + at] += 1.0);
        flip(3, &|q| {
            let (i, j) = (edge.0, (edge.0 + edge.1) % S);
            let e = (i.min(j), i.max(j));
            match q.edges.iter().position(|&x| x == e) {
                Some(found) => drop(q.edges.remove(found)),
                None => q.edges.push(e),
            }
        });
        flip(4, &|q| q.p += 0.5);
        flip(5, &|q| q.cursor = (q.cursor + 1) % S);
        flip(6, &|q| q.mix[at % 2] += 1.0);
        for (penalty, changed) in flips {
            let (before, after) = (&base[penalty], &changed.build()[penalty]);
            prop_assert!(before.scoring_key() != after.scoring_key(), "{}", before.name());
        }
    }
}

/// A combination is keyed by its parts: one keyless part leaves it keyless.
#[test]
fn a_combination_with_a_keyless_part_has_no_key() {
    struct Keyless;
    impl Penalty for Keyless {
        fn name(&self) -> String {
            "keyless".to_string()
        }
        fn evaluate(&self, errors: &[f64]) -> f64 {
            Sse.evaluate(errors)
        }
        fn importance(&self, column: &[(usize, f64)], batch_size: usize) -> f64 {
            Sse.importance(column, batch_size)
        }
        fn homogeneity(&self) -> f64 {
            2.0
        }
    }
    let mixed = Combination::new(vec![
        (1.0, Box::new(Sse) as Box<dyn Penalty>),
        (1.0, Box::new(Keyless)),
    ]);
    assert_eq!(Keyless.scoring_key(), None);
    assert_eq!(mixed.scoring_key(), None);
}
