import numpy as np
import pytest

from symconj import tensor as T
from symconj.errors import (
    ContractionError, EncodingError, NumericDomainError,
)

from oracles import central_diff, highprec_logsumexp, naive_einsum


class TestEinsum:
    def test_identity_contraction(self):
        assert np.array_equal(T.einsum("i->i", [[1.0, 2.0, 3.0]]), [1, 2, 3])

    def test_trace_of_identity(self):
        assert T.einsum("ii->", [np.eye(3)]) == 3.0

    def test_matmul_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = T.einsum("ij,jk->ik", [a, b])
        want = naive_einsum("ij,jk->ik", [a, b])
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("formula, shape", [
        (",->", ()), ("a,a->a", (4,)), ("ab,ab->ab", (2, 3))])
    def test_elementwise_products_run_as_multiply(self, formula, shape):
        kernel = T.einsum_kernel(T.EinsumSpec(formula), (shape, shape))
        assert kernel is np.multiply
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.standard_normal(shape), rng.standard_normal(shape)
            got, want = kernel(a, b), np.einsum(formula, a, b)
            assert type(got) is type(want)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("trial", range(30))
    def test_random_formulas_match_loop_oracle(self, trial):
        rng = np.random.default_rng(trial)
        n_ops = int(rng.integers(1, 5))
        letters = "abcde"[: int(rng.integers(1, 6))]
        extents = {c: int(rng.integers(1, 5)) for c in letters}
        subs = []
        ops = []
        for _ in range(n_ops):
            k = int(rng.integers(0, 4))
            s = "".join(rng.choice(list(letters), size=k))
            subs.append(s)
            ops.append(rng.standard_normal([extents[c] for c in s]))
        used = set("".join(subs))
        out_pool = [c for c in letters if c in used]
        rng.shuffle(out_pool)
        out = "".join(out_pool[: int(rng.integers(0, len(out_pool) + 1))])
        formula = ",".join(subs) + "->" + out
        got = T.einsum(formula, ops)
        want = naive_einsum(formula, ops)
        assert np.abs(np.asarray(got) - want).max() < 1e-12

    def test_operand_permutation_commutes(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4,))
        x = T.einsum("ij,j->i", [a, b])
        y = T.einsum("j,ij->i", [b, a])
        assert np.array_equal(x, y)

    def test_cached_schedule_is_shape_independent(self):
        rng = np.random.default_rng(11)
        formula = "ij,jk,kl,li,m->im"
        for ext in ((2, 3, 4, 2, 3), (4, 1, 2, 3, 2)):
            i, j, k, l, m = ext
            ops = [rng.standard_normal(s) for s in
                   ((i, j), (j, k), (k, l), (l, i), (m,))]
            got = T.einsum(formula, ops)
            assert np.abs(got - naive_einsum(formula, ops)).max() < 1e-12

    def test_extent_mismatch_names_index(self):
        with pytest.raises(ContractionError, match="'j'"):
            T.einsum("ij,jk->ik", [np.ones((2, 3)), np.ones((4, 2))])

    def test_rank_mismatch(self):
        with pytest.raises(ContractionError):
            T.einsum("ij->i", [np.ones(3)])

    def test_operand_count_mismatch(self):
        with pytest.raises(ContractionError):
            T.einsum("i,j->ij", [np.ones(3)])

    def test_formula_validation(self):
        with pytest.raises(ContractionError):
            T.EinsumSpec("ij,jk")
        with pytest.raises(ContractionError):
            T.EinsumSpec("iJ->i")
        with pytest.raises(ContractionError):
            T.EinsumSpec("i->ij")  # j appears in no operand
        with pytest.raises(ContractionError):
            T.EinsumSpec("ij->jj")  # repeated output index
        spec = T.EinsumSpec("ij,jk->ik")
        assert spec.operand_count == 2


class TestUnary:
    def test_log(self):
        out = T.map_unary("log", [1.0, np.e])
        assert np.abs(out - [0.0, 1.0]).max() < 1e-15

    def test_log_gamma_factorial(self):
        out = T.map_unary("log_gamma", [1.0, 2.0, 5.0])
        assert np.abs(out - [0.0, 0.0, np.log(24)]).max() < 1e-12

    def test_digamma_matches_finite_difference(self):
        got = T.map_unary("digamma", [3.0])
        fd = central_diff(lambda x: float(T.map_unary("log_gamma", x)[0]),
                          np.array([3.0]))
        assert abs(got[0] - fd[0]) < 1e-5

    def test_domain_error_reports_flat_index(self):
        with pytest.raises(NumericDomainError, match="flat index 2"):
            T.map_unary("log", [1.0, 2.0, -1.0])
        with pytest.raises(NumericDomainError):
            T.map_unary("sqrt", [-0.5])
        with pytest.raises(NumericDomainError):
            T.map_unary("reciprocal", [0.0])
        with pytest.raises(NumericDomainError):
            T.map_unary("log1p", [-1.5])
        with pytest.raises(NumericDomainError):
            T.map_unary("digamma", [0.0])

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(0)
        x = np.abs(rng.standard_normal(20)) + 0.1
        out = T.map_unary("exp", T.map_unary("log", x))
        assert np.abs(out - x).max() < 1e-12

    def test_overflow_is_signaled(self):
        with pytest.raises(NumericDomainError):
            T.map_unary("exp", [1e308])


class TestOneHot:
    def test_basic(self):
        assert np.array_equal(T.one_hot([0, 2], 3),
                              [[1, 0, 0], [0, 0, 1]])

    def test_scalar_index(self):
        assert np.array_equal(T.one_hot(np.array(1.0), 4), [0, 1, 0, 0])

    def test_rows_are_exact_unit_vectors(self):
        rng = np.random.default_rng(0)
        z = rng.integers(0, 5, size=7)
        oh = T.one_hot(z, 5)
        assert oh.sum(axis=-1).tolist() == [1.0] * 7
        assert set(np.unique(oh)) <= {0.0, 1.0}

    def test_gather_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.integers(0, 4, size=6)
        v = rng.standard_normal(4)
        got = T.einsum("nk,k->n", [T.one_hot(z, 4), v])
        assert np.array_equal(got, v[z])

    def test_out_of_range(self):
        with pytest.raises(EncodingError):
            T.one_hot([0, 3], 3)
        with pytest.raises(EncodingError):
            T.one_hot([0.5], 3)


class TestLogsumexp:
    def test_two_zeros(self):
        assert abs(T.logsumexp(np.array([0.0, 0.0]), 0) - np.log(2)) < 1e-15

    def test_no_overflow(self):
        out = T.logsumexp(np.array([1000.0, 1000.0]), 0)
        assert abs(out - (1000 + np.log(2))) < 1e-12

    def test_matches_highprec_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5)
        assert abs(T.logsumexp(x, 0) - highprec_logsumexp(x, 0)) < 1e-12

    def test_single_element_axis_exact(self):
        x = np.array([[3.25]])
        assert T.logsumexp(x, 1)[0] == 3.25


class TestMatrixKernels:
    def test_inverse(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        assert np.abs(T.inverse(a) @ a - np.eye(4)).max() < 1e-10

    def test_logdet(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        spd = a @ a.T + 4 * np.eye(4)
        sign, want = np.linalg.slogdet(spd)
        assert abs(T.logdet(spd) - want) < 1e-10

    def test_logdet_negative_det(self):
        with pytest.raises(NumericDomainError):
            T.logdet([[0.0, 1.0], [1.0, 0.0]])
