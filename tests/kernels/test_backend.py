"""Backend selection and demand canonicalization (the kernel-layer contract)."""

import os

import numpy as np
import pytest

from repro.backend import ENV as BACKEND_ENV
from repro.backend import active_backend, planner_backend, use_backend
from repro.kernels import as_demand_matrix
from repro.schedulers.base import AssignmentScheduler, canonical_demand, compact_demand

#: Values ``REPRO_KERNEL`` rejects: a misspelling, and the retired
#: ``numpy`` backend (the kernels now run under every value).
UNKNOWN_BACKENDS = ("fortran", "numpy")


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch, native_absent):
        """Without the compiled extension the default runs the Python
        planner, and the baseline schedulers still run the numpy kernels."""
        from repro.perf import scheduler_counters
        from repro.schedulers import BvnScheduler

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert active_backend() == "python"
        scheduler_counters.reset()
        BvnScheduler().schedule({(0, 1): 1.0, (1, 0): 2.0}, 2)
        assert scheduler_counters.count("bvn_permutations") > 0

    def test_env_var_selects_python(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert active_backend() == "python"
        assert planner_backend() == "python"

    def test_unknown_backend_rejected(self, monkeypatch):
        for value in UNKNOWN_BACKENDS:
            monkeypatch.setenv(BACKEND_ENV, value)
            with pytest.raises(ValueError, match=value):
                active_backend()

    def test_use_backend_restores(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        default = active_backend()
        with use_backend("python"):
            assert active_backend() == "python"
        assert active_backend() == default
        assert BACKEND_ENV not in os.environ

    def test_use_backend_rejects_unknown(self):
        for value in UNKNOWN_BACKENDS:
            with pytest.raises(ValueError):
                with use_backend(value):
                    pass  # pragma: no cover

    def test_native_is_a_known_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert active_backend() == "native"

    def test_backend_names_normalized(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "  Native ")
        assert active_backend() == "native"

    def test_dispatch_follows_env_per_call(self, monkeypatch):
        """The backend is read per planner call, not captured at import."""
        from repro.core.prt import PortReservationTable
        from repro.core.sunflow import SunflowScheduler

        scheduler = SunflowScheduler()
        demand = {(0, 1): 1.0, (1, 0): 0.5}
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        default = scheduler.schedule_demand(PortReservationTable(), 1, demand)
        with use_backend("python"):
            python = scheduler.schedule_demand(PortReservationTable(), 1, demand)
        assert python.reservations == default.reservations
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        with pytest.raises(ValueError, match="numpy"):
            scheduler.schedule_demand(PortReservationTable(), 1, demand)


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


class TestOneImplementationPerLayer:
    def test_src_ships_no_reference_twins(self):
        """The structural guarantee behind ``tests/oracles``: the runtime
        has one implementation per layer.  No ``repro.matching`` wrapper
        package, no ``*_reference.py`` twin, no per-call kernel switch,
        and nothing under ``src/repro`` imports the test oracles."""
        import pathlib
        import re

        import repro

        root = pathlib.Path(repro.__file__).parent
        assert not (root / "matching").exists()
        assert sorted(p.name for p in root.rglob("*_reference.py")) == []
        imports_tests = re.compile(r"^\s*(from|import)\s+tests\b", re.MULTILINE)
        for path in sorted(root.rglob("*.py")):
            text = path.read_text()
            assert not imports_tests.search(text), path.name
            assert "def numpy_enabled" not in text, path.name
            assert "ReferencePacketSimulator" not in text, path.name
