//! Error metrics used throughout the paper's experiments (§6).  Each is a
//! pure function of one estimate vector; a harness that plots a progression
//! samples them at the retrieval counts it wants.

use batchbb_penalty::Penalty;

/// Mean relative error over the batch (Figure 5's vertical axis).
///
/// Queries with exact result zero are skipped unless the estimate is also
/// nonzero, in which case the error counts as 1 (fully wrong).
pub fn mean_relative_error(estimates: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(estimates.len(), exact.len(), "batch size mismatch");
    assert!(!exact.is_empty(), "empty batch has no error");
    let mut total = 0.0;
    let mut counted = 0usize;
    for (&e, &x) in estimates.iter().zip(exact.iter()) {
        if x != 0.0 {
            total += ((e - x) / x).abs();
            counted += 1;
        } else if e.abs() > 1e-9 {
            total += 1.0;
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Normalized SSE: "the SSE divided by the sum of square query results"
/// (Figure 6).
pub fn normalized_sse(estimates: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(estimates.len(), exact.len(), "batch size mismatch");
    let sse: f64 = estimates
        .iter()
        .zip(exact.iter())
        .map(|(&e, &x)| (e - x) * (e - x))
        .sum();
    let scale: f64 = exact.iter().map(|&x| x * x).sum();
    assert!(
        scale > 0.0,
        "cannot normalize against all-zero exact results"
    );
    sse / scale
}

/// Normalized penalty: `p(estimates − exact) / p(exact)` — the
/// generalization of normalized SSE used for Figure 7's cursored SSE.
pub fn normalized_penalty(penalty: &dyn Penalty, estimates: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(estimates.len(), exact.len(), "batch size mismatch");
    let errors: Vec<f64> = estimates
        .iter()
        .zip(exact.iter())
        .map(|(&e, &x)| e - x)
        .collect();
    let scale = penalty.evaluate(exact);
    assert!(
        scale > 0.0,
        "cannot normalize against zero-penalty exact results"
    );
    penalty.evaluate(&errors) / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_penalty::{DiagonalQuadratic, Sse};

    #[test]
    fn mre_of_exact_is_zero() {
        assert_eq!(mean_relative_error(&[2.0, 4.0], &[2.0, 4.0]), 0.0);
    }

    #[test]
    fn mre_averages_relative_errors() {
        // errors: 50% and 10% -> mean 30%
        let got = mean_relative_error(&[1.0, 9.0], &[2.0, 10.0]);
        assert!((got - 0.3).abs() < 1e-12);
    }

    #[test]
    fn mre_handles_zero_exact() {
        assert_eq!(mean_relative_error(&[0.0, 1.0], &[0.0, 1.0]), 0.0);
        assert_eq!(mean_relative_error(&[5.0], &[0.0]), 1.0);
        assert_eq!(
            mean_relative_error(&[1e-12], &[0.0]),
            0.0,
            "fp dust ignored"
        );
    }

    #[test]
    fn normalized_sse_scales() {
        // err (1,0), exact (2,1): 1 / 5
        assert!((normalized_sse(&[3.0, 1.0], &[2.0, 1.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn normalized_penalty_generalizes_sse() {
        let est = [3.0, 1.5];
        let exact = [2.0, 1.0];
        assert!(
            (normalized_penalty(&Sse, &est, &exact) - normalized_sse(&est, &exact)).abs() < 1e-12
        );
        let w = DiagonalQuadratic::new(vec![10.0, 1.0]);
        // p(err) = 10·1 + 0.25, p(exact) = 40 + 1
        let expect = 10.25 / 41.0;
        assert!((normalized_penalty(&w, &est, &exact) - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn size_mismatch_panics() {
        let _ = normalized_sse(&[1.0], &[1.0, 2.0]);
    }
}
