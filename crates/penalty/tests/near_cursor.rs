//! `DiagonalQuadratic::near_cursor` builds each kernel's weights bit for
//! bit as the cursor penalty it replaced did, and its key is its weights:
//! two cursors whose weights are equal share one scoring key, so a batch
//! sorts its progression once for both.

use batchbb_penalty::{CursorKernel, DiagonalQuadratic, Penalty};

/// The weights' `f64` bits at `s = 16`, cursor 5, boost 25, radius 4, as
/// the cursor-penalty wrapper folded into `near_cursor` produced them.
const PINNED: [(CursorKernel, [u64; 16]); 3] = [
    (
        CursorKernel::Triangular,
        [
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x401c000000000000,
            0x402a000000000000,
            0x4033000000000000,
            0x4039000000000000,
            0x4033000000000000,
            0x402a000000000000,
            0x401c000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
        ],
    ),
    (
        CursorKernel::Gaussian,
        [
            0x40181f68d1c19555,
            0x4023a880a8a1b36a,
            0x402d597dc92201d0,
            0x4033b0f3b7016188,
            0x40378bc0fcd541fb,
            0x4039000000000000,
            0x40378bc0fcd541fb,
            0x4033b0f3b7016188,
            0x402d597dc92201d0,
            0x4023a880a8a1b36a,
            0x40181f68d1c19555,
            0x400c3c952ae341f9,
            0x4000fadea02a1cce,
            0x3ff70880250c76dc,
            0x3ff26e3c81218cf2,
            0x3ff0bdc578128187,
        ],
    ),
    (
        CursorKernel::Box,
        [
            0x3ff0000000000000,
            0x4039000000000000,
            0x4039000000000000,
            0x4039000000000000,
            0x4039000000000000,
            0x4039000000000000,
            0x4039000000000000,
            0x4039000000000000,
            0x4039000000000000,
            0x4039000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
        ],
    ),
];

#[test]
fn near_cursor_reproduces_the_cursor_penalty_weights_bit_for_bit() {
    for (kernel, want) in PINNED {
        let penalty = DiagonalQuadratic::near_cursor(16, 5, 25.0, 4.0, kernel);
        let got: Vec<u64> = penalty.weights().iter().map(|w| w.to_bits()).collect();
        assert_eq!(got, want, "{kernel:?}");
    }
}

#[test]
fn cursors_with_equal_weights_share_a_scoring_key() {
    // A box as wide as the batch weighs every query `boost`, wherever the
    // cursor is.
    let (s, boost) = (8, 10.0);
    let left = DiagonalQuadratic::near_cursor(s, 0, boost, s as f64, CursorKernel::Box);
    let right = DiagonalQuadratic::near_cursor(s, s - 1, boost, s as f64, CursorKernel::Box);
    assert_eq!(left.weights(), right.weights());
    assert!(left.scoring_key().is_some());
    assert_eq!(left.scoring_key(), right.scoring_key());
}
