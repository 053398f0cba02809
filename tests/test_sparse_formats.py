"""Tests for CSR storage (repro.sparse.csr)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SparsityError
from repro.sparse.csr import CSRMatrix


def sparse_matrix(rng, shape=(6, 8), density=0.3):
    dense = rng.standard_normal(shape)
    dense[rng.random(shape) > density] = 0.0
    return dense


class TestCSR:
    def test_round_trip(self, rng):
        dense = sparse_matrix(rng)
        np.testing.assert_array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_nnz(self, rng):
        dense = sparse_matrix(rng)
        assert CSRMatrix.from_dense(dense).nnz == np.count_nonzero(dense)

    def test_row_nnz(self, rng):
        dense = sparse_matrix(rng)
        np.testing.assert_array_equal(
            CSRMatrix.from_dense(dense).row_nnz(), (dense != 0).sum(axis=1)
        )

    def test_density(self):
        dense = np.zeros((4, 5))
        dense[0, 0] = 1.0
        assert CSRMatrix.from_dense(dense).density() == 1 / 20

    def test_spmv_matches_dense(self, rng):
        dense = sparse_matrix(rng)
        x = rng.standard_normal(8)
        np.testing.assert_allclose(CSRMatrix.from_dense(dense).spmv(x), dense @ x)

    def test_spmm_matches_dense(self, rng):
        dense = sparse_matrix(rng)
        x = rng.standard_normal((8, 3))
        np.testing.assert_allclose(CSRMatrix.from_dense(dense).spmm(x), dense @ x)

    def test_spmv_rejects_wrong_length(self, rng):
        csr = CSRMatrix.from_dense(sparse_matrix(rng))
        with pytest.raises(SparsityError):
            csr.spmv(np.zeros(7))

    def test_spmm_rejects_wrong_inner(self, rng):
        csr = CSRMatrix.from_dense(sparse_matrix(rng))
        with pytest.raises(SparsityError):
            csr.spmm(np.zeros((7, 2)))

    def test_empty_matrix(self):
        csr = CSRMatrix.from_dense(np.zeros((3, 4)))
        assert csr.nnz == 0
        np.testing.assert_array_equal(csr.to_dense(), np.zeros((3, 4)))
        np.testing.assert_array_equal(csr.spmv(np.ones(4)), np.zeros(3))

    def test_nbytes_scales_with_nnz(self, rng):
        dense = sparse_matrix(rng, density=0.5)
        sparser = sparse_matrix(rng, density=0.1)
        assert CSRMatrix.from_dense(dense).nbytes() > CSRMatrix.from_dense(
            sparser
        ).nbytes()

    def test_nbytes_counts_per_nonzero_index(self):
        dense = np.eye(4)
        csr = CSRMatrix.from_dense(dense)
        # 4 values * 2B + 4 indices * 2B + 5 row ptrs * 4B
        assert csr.nbytes(value_bytes=2, index_bytes=2) == 8 + 8 + 20

    def test_validation_bad_row_ptr(self):
        with pytest.raises(SparsityError):
            CSRMatrix(
                shape=(2, 2),
                values=np.ones(1),
                col_indices=np.zeros(1, dtype=int),
                row_ptr=np.array([0, 1]),  # wrong length
            )

    def test_validation_decreasing_row_ptr(self):
        with pytest.raises(SparsityError):
            CSRMatrix(
                shape=(2, 2),
                values=np.ones(2),
                col_indices=np.zeros(2, dtype=int),
                row_ptr=np.array([0, 2, 2 - 1]),
            )

    def test_validation_col_index_range(self):
        with pytest.raises(SparsityError):
            CSRMatrix(
                shape=(2, 2),
                values=np.ones(1),
                col_indices=np.array([5]),
                row_ptr=np.array([0, 1, 1]),
            )


@settings(max_examples=40, deadline=None)
@given(
    dense=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.0, 3.5]),
    )
)
def test_property_csr_round_trip(dense):
    """CSR from_dense → to_dense is the identity for any matrix."""
    np.testing.assert_array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)


@settings(max_examples=40, deadline=None)
@given(
    dense=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 10), st.integers(1, 10)),
        elements=st.sampled_from([0.0, 0.0, 1.0, -1.5]),
    )
)
def test_property_csr_spmv_matches_dense(dense):
    """CSR spmv agrees with the dense product for any pattern."""
    x = np.arange(1.0, dense.shape[1] + 1.0)
    np.testing.assert_allclose(CSRMatrix.from_dense(dense).spmv(x), dense @ x)
