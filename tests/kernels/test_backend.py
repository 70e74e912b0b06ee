"""Backend selection and demand canonicalization (the kernel-layer contract)."""

import os

import numpy as np
import pytest

from repro.kernels import (
    BACKEND_ENV,
    active_backend,
    as_demand_matrix,
    numpy_enabled,
    use_backend,
)
from repro.schedulers.base import AssignmentScheduler, canonical_demand, compact_demand


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch, native_absent):
        """Without the compiled extension the default is the numpy kernels."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert active_backend() == "numpy"
        assert numpy_enabled()

    def test_env_var_selects_python(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert active_backend() == "python"
        assert not numpy_enabled()

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fortran")
        with pytest.raises(ValueError, match="fortran"):
            active_backend()

    def test_use_backend_restores(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        default = active_backend()
        with use_backend("python"):
            assert active_backend() == "python"
        assert active_backend() == default
        assert BACKEND_ENV not in os.environ

    def test_use_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            with use_backend("fortran"):
                pass  # pragma: no cover

    def test_native_is_a_known_backend(self, monkeypatch):
        """``native`` swaps only the Sunflow planner and PRT transactions;
        the scheduler/packet kernel layer must treat it exactly like
        ``numpy``."""
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert active_backend() == "native"
        assert numpy_enabled()

    def test_backend_names_normalized(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "  Native ")
        assert active_backend() == "native"

    def test_dispatch_follows_env_per_call(self, monkeypatch):
        """The backend is read per schedule call, not captured at import."""
        from repro.matching import stuffing

        matrix = [[5.0, 0.0], [0.0, 1.0]]
        with use_backend("numpy"):
            stuffed_numpy, _ = stuffing.quick_stuff(matrix)
        with use_backend("python"):
            stuffed_python, _ = stuffing.quick_stuff(matrix)
        assert stuffed_numpy == stuffed_python


class TestDemandCanonicalization:
    """Regression: ndarray and nested-list demand take one conversion, not many."""

    def test_nested_list_becomes_float64(self):
        a = as_demand_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.float64
        assert a.flags["C_CONTIGUOUS"]
        assert a.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_contiguous_float64_passes_through_without_copy(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = as_demand_matrix(src)
        assert out is src or out.base is src  # no data copy

    def test_other_dtypes_converted_once(self):
        src = np.array([[1, 2], [3, 4]], dtype=np.int32)
        out = as_demand_matrix(src)
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]

    def test_fortran_order_made_contiguous(self):
        src = np.asfortranarray(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = as_demand_matrix(src)
        assert out.flags["C_CONTIGUOUS"]
        assert out.tolist() == src.tolist()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            as_demand_matrix([[1.0, 2.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            as_demand_matrix([[-1.0]])

    def test_empty_is_zero_by_zero(self):
        out = as_demand_matrix([])
        assert out.shape == (0, 0)
        assert out.dtype == np.float64

    def test_canonical_demand_alias(self):
        out = canonical_demand([[1.0, 0.0], [0.0, 2.0]])
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64

    def test_compact_demand_is_float64_ndarray(self):
        matrix, src_labels, dst_labels = compact_demand({(3, 7): 1.5, (4, 8): 2.5})
        assert isinstance(matrix, np.ndarray)
        assert matrix.dtype == np.float64
        assert matrix.flags["C_CONTIGUOUS"]
        assert matrix[0, 0] == 1.5

    def test_demand_matrix_is_float64_ndarray(self):
        matrix = AssignmentScheduler.demand_matrix({(0, 1): 1.0}, 3)
        assert isinstance(matrix, np.ndarray)
        assert matrix.dtype == np.float64
        assert matrix.shape == (3, 3)

    def test_kernels_accept_both_shapes_identically(self):
        """Nested lists and ndarrays yield bitwise-identical kernel results."""
        from repro.kernels.matrix import quick_stuff

        nested = [[5.0, 0.25], [0.5, 1.0]]
        as_array = np.array(nested)
        stuffed_list, dummy_list = quick_stuff(nested)
        stuffed_arr, dummy_arr = quick_stuff(as_array)
        assert stuffed_list.tolist() == stuffed_arr.tolist()
        assert dummy_list.tolist() == dummy_arr.tolist()
