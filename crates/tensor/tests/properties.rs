//! Property-based tests for the linear-algebra substrate.
//!
//! These check the algebraic laws the rest of the workspace silently relies
//! on: GEMM distributivity/associativity (within f32 tolerance), transpose
//! identities, im2col/col2im adjointness, and serializer round-trips.

use orco_tensor::{col2im, im2col, serialize, Conv2dGeom, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with dims in [1, max_dim] and small-magnitude entries.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Strategy: a pair of matrices with compatible inner dimension for matmul.
fn matmul_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        let a = prop::collection::vec(-5.0f32..5.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d).unwrap());
        let b = prop::collection::vec(-5.0f32..5.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d).unwrap());
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in matrix_strategy(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_matmul((a, b) in matmul_pair(8)) {
        // (AB)ᵀ == Bᵀ Aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-3), "max diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn t_matmul_equals_explicit((a, b) in matmul_pair(8)) {
        // aᵀ·(a·b) two ways
        let prod = a.matmul(&b);
        let lhs = a.t_matmul(&prod);
        let rhs = a.transpose().matmul(&prod);
        prop_assert!(lhs.approx_eq(&rhs, 1e-2));
    }

    #[test]
    fn matmul_t_equals_explicit((a, b) in matmul_pair(8)) {
        // a · (bᵀ)ᵀ computed via matmul_t must equal a · b bit for bit:
        // both run the axpy kernel over the same ascending-k products.
        prop_assert_eq!(a.matmul_t(&b.transpose()), a.matmul(&b));
    }

    #[test]
    fn view_kernels_bit_identical_to_owning_api((a, b) in matmul_pair(8)) {
        // The `_into` kernels over borrowed views must reproduce the
        // allocating products **bit for bit** — same kernels, same
        // summation order — even into a dirty reused buffer.
        let mut out = Matrix::filled(3, 3, f32::NAN);
        out.reset(a.rows(), b.cols());
        a.as_view().matmul_into(b.as_view(), out.as_view_mut());
        prop_assert_eq!(&out, &a.matmul(&b));

        out.reset(a.cols(), b.cols());
        let ab = a.matmul(&b);
        a.as_view().t_matmul_into(ab.as_view(), out.as_view_mut());
        prop_assert_eq!(&out, &a.t_matmul(&ab));
    }

    #[test]
    fn matvec_into_variants_bit_identical(m in matrix_strategy(12), seed in 0u64..1000) {
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let v_cols: Vec<f32> = (0..m.cols()).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let v_rows: Vec<f32> = (0..m.rows()).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let mut out = vec![f32::NAN; m.rows()];
        m.matvec_into(&v_cols, &mut out);
        prop_assert_eq!(&out, &m.matvec(&v_cols));
        let mut out_t = vec![f32::NAN; m.cols()];
        m.t_matvec_into(&v_rows, &mut out_t);
        prop_assert_eq!(&out_t, &m.transpose().matvec(&v_rows));
    }

    #[test]
    fn row_range_views_and_col_iter_agree(m in matrix_strategy(10), seed in 0u64..1000) {
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let lo = (rng.next_u64() as usize) % m.rows();
        let hi = lo + (rng.next_u64() as usize) % (m.rows() - lo + 1);
        prop_assert_eq!(m.view_rows(lo..hi).to_matrix(), m.slice_rows(lo..hi));
        let c = (rng.next_u64() as usize) % m.cols();
        let lazy: Vec<f32> = m.col_iter(c).collect();
        prop_assert_eq!(lazy, m.col(c));
    }

    #[test]
    fn matmul_distributes_over_addition((a, b) in matmul_pair(8), seed in 0u64..1000) {
        // a(b + c) == ab + ac, with c the same shape as b.
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let c = Matrix::from_fn(b.rows(), b.cols(), |_, _| rng.uniform(-5.0, 5.0));
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-2), "max diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn addition_commutes(m in matrix_strategy(12), seed in 0u64..1000) {
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let n = Matrix::from_fn(m.rows(), m.cols(), |_, _| rng.uniform(-10.0, 10.0));
        prop_assert_eq!(&m + &n, &n + &m);
    }

    #[test]
    fn scale_then_sum_is_linear(m in matrix_strategy(12), k in -4.0f32..4.0) {
        let scaled_sum = m.scale(k).sum();
        prop_assert!((scaled_sum - k * m.sum()).abs() <= 1e-2 * (1.0 + m.sum().abs() * k.abs()));
    }

    #[test]
    fn vstack_preserves_rows(m in matrix_strategy(8)) {
        let v = m.vstack(&m);
        prop_assert_eq!(v.rows(), 2 * m.rows());
        for r in 0..m.rows() {
            prop_assert_eq!(v.row(r), m.row(r));
            prop_assert_eq!(v.row(r + m.rows()), m.row(r));
        }
    }

    #[test]
    fn serializer_roundtrips(m in matrix_strategy(10)) {
        let text = serialize::matrix_to_text(&m);
        let back = serialize::matrix_from_text(&text).unwrap();
        prop_assert_eq!(m, back);
    }

    #[test]
    fn col_sums_match_transpose_row_sums(m in matrix_strategy(12)) {
        let cs = m.col_sums();
        let rs = m.transpose().row_sums();
        for (a, b) in cs.iter().zip(&rs) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        (c, h, w, k, stride, pad) in (1usize..=2, 3usize..=6, 3usize..=6, 1usize..=3, 1usize..=2, 0usize..=1),
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = Conv2dGeom::new(c, h, w, k, stride, pad);
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let x: Vec<f32> = (0..geom.input_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let p = Matrix::from_fn(geom.patch_len(), geom.out_positions(), |_, _| rng.uniform(-1.0, 1.0));
        let lhs = im2col(&x, &geom).dot(&p);
        let scattered = col2im(&p, &geom);
        let rhs: f32 = x.iter().zip(&scattered).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "adjoint violated: {} vs {}", lhs, rhs);
    }

    #[test]
    fn argmax_rows_is_maximal(m in matrix_strategy(10)) {
        let idx = m.argmax_rows();
        for (r, &i) in idx.iter().enumerate() {
            let row = m.row(r);
            for &v in row {
                prop_assert!(row[i] >= v);
            }
        }
    }
}
