//! Property-based tests for the tensor substrate.

use dz_tensor::{linalg, Matrix, Rng};
use proptest::prelude::*;

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut rng = Rng::seeded(seed);
        Matrix::randn(r, c, 1.0, &mut rng)
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in arb_matrix(24)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_left_and_right(m in arb_matrix(16)) {
        let l = Matrix::identity(m.rows()).matmul(&m);
        let r = m.matmul(&Matrix::identity(m.cols()));
        prop_assert!(l.max_abs_diff(&m) < 1e-5);
        prop_assert!(r.max_abs_diff(&m) < 1e-5);
    }

    #[test]
    fn matmul_distributes_over_add(seed in any::<u64>(), m in 1usize..12, k in 1usize..12, n in 1usize..12) {
        // The distributive law (w_base + delta) X = w_base X + delta X is the
        // algebraic foundation of DeltaZip's decoupled serving (Eq. 2).
        let mut rng = Rng::seeded(seed);
        let w = Matrix::randn(m, k, 1.0, &mut rng);
        let d = Matrix::randn(m, k, 0.05, &mut rng);
        let x = Matrix::randn(k, n, 1.0, &mut rng);
        let fused = w.add(&d).matmul(&x);
        let split = w.matmul(&x).add(&d.matmul(&x));
        prop_assert!(fused.max_abs_diff(&split) < 1e-3);
    }

    #[test]
    fn add_sub_round_trip(seed in any::<u64>(), r in 1usize..16, c in 1usize..16) {
        let mut rng = Rng::seeded(seed);
        let a = Matrix::randn(r, c, 1.0, &mut rng);
        let b = Matrix::randn(r, c, 1.0, &mut rng);
        // (a + b) - b == a exactly is not guaranteed in floats, but close.
        let rt = a.add(&b).sub(&b);
        prop_assert!(rt.max_abs_diff(&a) < 1e-4);
    }

    #[test]
    fn cholesky_inverse_is_inverse(seed in any::<u64>(), n in 1usize..12) {
        let mut rng = Rng::seeded(seed);
        let x = Matrix::randn(n, n + 2, 1.0, &mut rng);
        let mut a = x.matmul_nt(&x);
        for i in 0..n {
            a.set(i, i, a.get(i, i) + (n as f32 + 1.0));
        }
        let inv = linalg::inverse_psd(&a).unwrap();
        let prod = a.matmul(&inv);
        prop_assert!(prod.max_abs_diff(&Matrix::identity(n)) < 5e-2);
    }
}
