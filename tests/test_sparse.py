import numpy as np
import pytest

from stdiff.errors import DomainError, ShapeError
from stdiff.sparse import SparseMatrix, add_self_loops, sparsify, transition_matrix

from conftest import random_sparse


class TestRoundTrip:
    def test_densify_sparsify_identity(self, rng):
        for _ in range(50):
            a = random_sparse(rng, rng.integers(1, 10), rng.integers(1, 10))
            assert sparsify(a.to_dense()) == a
            r, c, v = a.nonzero()  # the edge list, row-major, round-trips too
            assert np.all(np.diff(r * a.cols + c) > 0)
            assert SparseMatrix.from_coo(a.rows, a.cols, r, c, v) == a

    def test_from_coo_sums_duplicates(self):
        a = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        assert np.array_equal(a.to_dense(), [[0, 5], [1, 0]])
        # in input order: (1e16 + 1) + 1 rounds twice, 1e16 + (1 + 1) would not
        a = SparseMatrix.from_coo(1, 2, [0, 0, 0, 0], [1, 1, 1, 0], [1e16, 1.0, 1.0, 3.0])
        assert a.to_dense().tolist() == [[3.0, (1e16 + 1.0) + 1.0]]

    def test_from_coo_drops_zeros(self):
        a = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [0.0, 2.0])
        assert a.nnz == 1
        a = SparseMatrix.from_coo(2, 2, [0, 1, 1], [0, 1, 1], [0.0, 2.0, -2.0])
        assert a.nnz == 0

    @pytest.mark.parametrize("r, c", [([], []), ([1], [0])], ids=["no_entry", "one_entry"])
    def test_from_coo_zero_and_one_entry(self, r, c):
        a = SparseMatrix.from_coo(2, 2, r, c, np.ones(len(r)))
        assert a.nnz == len(r) and a.to_dense().sum() == len(r)

    @pytest.mark.parametrize("shape, r, c, v", [
        ((-1, 2), [], [], []),           # negative rows
        ((2, -1), [], [], []),           # negative cols
        ((2, 2), [0, 2], [0, 0], [1.0, 1.0]),   # row index past the end
        ((2, 2), [0], [-1], [1.0]),      # negative column index
        ((2, 2), [0, 1], [0], [1.0]),    # unequal lengths
    ], ids=["neg_rows", "neg_cols", "row_out_of_range", "negative_col", "ragged"])
    def test_from_coo_rejects_bad_shape_or_index(self, shape, r, c, v):
        with pytest.raises(ShapeError):
            SparseMatrix.from_coo(*shape, r, c, v)

    def test_nonzero_row_major(self):
        a = SparseMatrix.from_coo(3, 3, [2, 0, 1, 0, 2], [0, 2, 1, 0, 2],
                                  [5.0, 2.0, 3.0, 1.0, 6.0])
        r, c, v = a.nonzero()
        assert r.tolist() == [0, 0, 1, 2, 2] and c.tolist() == [0, 2, 1, 0, 2]
        assert v.tolist() == [1.0, 2.0, 3.0, 5.0, 6.0]

    def test_row_degrees_added_left_to_right(self, rng):
        a = random_sparse(rng, 30, 100, nonneg=True)
        dense, degrees = a.to_dense(), a.row_degrees()
        for i in range(a.rows):
            total = 0.0
            for x in dense[i]:
                total += x
            assert degrees[i] == total

    def test_equal_matrices_compare_equal_and_are_unhashable(self):
        a, b = sparsify([[1.0, 0.0], [0.0, 2.0]]), sparsify([[1.0, 0.0], [0.0, 2.0]])
        assert a == b and a is not b
        assert a != sparsify([[1.0, 0.0], [0.0, 3.0]])
        with pytest.raises(TypeError):
            hash(a)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError):
            SparseMatrix.from_coo(1, 1, [0], [0], [value])
        with pytest.raises(DomainError):
            sparsify([[0.0, value]])

    def test_not_two_dimensional_rejected(self):
        with pytest.raises(ShapeError):
            sparsify(np.zeros(3))


class TestSelfLoops:
    def test_zero_matrix_becomes_identity(self):
        a = sparsify(np.zeros((2, 2)))
        assert np.array_equal(add_self_loops(a).to_dense(), np.eye(2))

    def test_swap_matrix(self):
        a = sparsify([[0, 1], [1, 0]])
        assert np.array_equal(add_self_loops(a).to_dense(), [[1, 1], [1, 1]])

    def test_dense_oracle_random(self, rng):
        for _ in range(20):
            a = random_sparse(rng, 6, 6)
            assert np.array_equal(add_self_loops(a).to_dense(), a.to_dense() + np.eye(6))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            add_self_loops(sparsify(np.zeros((2, 3))))


class TestTransitionMatrix:
    def test_identity_fixed_point(self):
        p = transition_matrix(sparsify(np.eye(4)))
        assert np.array_equal(p.to_dense(), np.eye(4))

    def test_zero_degree_row_stays_zero(self):
        p = transition_matrix(sparsify([[0, 2], [0, 0]]))
        assert np.array_equal(p.to_dense(), [[0, 1], [0, 0]])

    def test_dense_oracle_random(self, rng):
        for _ in range(30):
            a = random_sparse(rng, 8, 8, nonneg=True)
            dense = a.to_dense()
            deg = dense.sum(axis=1)
            expected = np.where(deg[:, None] > 0, dense / np.where(deg[:, None] > 0, deg[:, None], 1), 0)
            assert np.allclose(transition_matrix(a).to_dense(), expected, atol=1e-15)

    def test_row_sums_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a = add_self_loops(random_sparse(rng, n, n, nonneg=True))
            sums = transition_matrix(a).row_degrees()
            assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            transition_matrix(sparsify([[0.0, -1.0], [0.0, 0.0]]))


class TestSpmm:
    def test_identity(self, rng):
        x = rng.random((5, 3))
        assert np.array_equal(sparsify(np.eye(5)).matmul_dense(x), x)

    def test_zero(self, rng):
        assert np.array_equal(sparsify(np.zeros((4, 4))).matmul_dense(rng.random((4, 2))),
                              np.zeros((4, 2)))

    def test_dense_oracle(self, rng):
        a = random_sparse(rng, 7, 7)
        x = rng.random((7, 3))
        assert np.allclose(a.matmul_dense(x), a.to_dense() @ x, atol=1e-12)

    def test_dense_oracle_many_trials(self, rng):
        for _ in range(1000):
            r = int(rng.integers(1, 17))
            c = int(rng.integers(1, 17))
            a = random_sparse(rng, r, c, density=0.5)
            x = rng.standard_normal((c, int(rng.integers(1, 5))))
            assert np.max(np.abs(a.matmul_dense(x) - a.to_dense() @ x)) < 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            sparsify(np.eye(3)).matmul_dense(rng.random((4, 2)))
        with pytest.raises(ShapeError):
            sparsify(np.eye(3)).matmul_dense(rng.random(3))

    def test_leading_axes_broadcast(self, rng):
        a = random_sparse(rng, 4, 5)
        x = rng.standard_normal((3, 2, 5, 6))
        got = a.matmul_dense(x)
        assert got.shape == (3, 2, 4, 6)
        for i in range(3):
            for j in range(2):
                assert np.max(np.abs(got[i, j] - a.to_dense() @ x[i, j])) < 1e-12

    def test_dense_read_only_and_to_dense_a_writable_copy(self, rng):
        source = rng.standard_normal((4, 6))
        a = sparsify(source)
        source[0, 0] = 99.0  # the matrix holds its own copy
        assert a.dense[0, 0] != 99.0
        with pytest.raises(ValueError):
            a.dense[0, 0] = 1.0
        copy = a.to_dense()
        copy[0, 0] = 1.0
        assert a.dense[0, 0] != 1.0 and np.array_equal(copy[1:], a.dense[1:])


class TestSparseProducts:
    def test_matmul_sparse_oracle(self, rng):
        for _ in range(50):
            a = random_sparse(rng, 6, 5)
            b = random_sparse(rng, 5, 7)
            got = a.matmul_sparse(b).to_dense()
            assert np.max(np.abs(got - a.to_dense() @ b.to_dense())) < 1e-12

    def test_matrix_power_oracle(self, rng):
        # a product feeds the next product: chained, they give the powers
        for _ in range(30):
            p = random_sparse(rng, 6, 6)
            power = p
            for k in range(1, 4):
                expected = np.linalg.matrix_power(p.to_dense(), k)
                assert np.max(np.abs(power.to_dense() - expected)) < 1e-12
                power = power.matmul_sparse(p)
