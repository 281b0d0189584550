import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from tribem import _blas

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def found():
    libs = _blas.libraries()
    if not libs:
        pytest.skip("no OpenBLAS of numpy or scipy found")
    return libs


def counts():
    return _blas.thread_counts()


class TestSingleThreaded:
    def test_pins_and_restores(self, found):
        before = counts()
        with _blas.single_threaded():
            assert counts() == {lib.package: 1 for lib in found}
        assert counts() == before

    def test_restores_after_an_exception(self, found):
        before = counts()
        with pytest.raises(KeyError):
            with _blas.single_threaded():
                raise KeyError("inside")
        assert counts() == before

    def test_restores_the_count_it_found(self, found):
        # not the libraries' default count, which is the core count
        before = counts()
        try:
            for lib in found:
                lib.set_threads(1)
            with _blas.single_threaded():
                pass
            assert counts() == {lib.package: 1 for lib in found}
        finally:
            for lib in found:
                lib.set_threads(before[lib.package])

    @pytest.mark.parametrize("first_out", ["first in", "second in"])
    def test_overlapping_callers(self, found, first_out):
        # the count is process-wide: a second thread sees the pin, and the
        # count comes back only when the last caller leaves, whichever it is
        before = counts()
        pinned = {lib.package: 1 for lib in found}
        entered = {name: threading.Event() for name in ("first in", "second in")}
        leave = {name: threading.Event() for name in ("first in", "second in")}
        seen = {}

        def caller(name):
            with _blas.single_threaded():
                entered[name].set()
                leave[name].wait(10)
            seen[name] = counts()

        def bystander():
            seen["bystander"] = counts()

        threads = {name: threading.Thread(target=caller, args=(name,)) for name in entered}
        threads["first in"].start()
        assert entered["first in"].wait(10)
        threads["second in"].start()
        assert entered["second in"].wait(10)
        reader = threading.Thread(target=bystander)
        reader.start()
        reader.join(10)
        assert seen["bystander"] == pinned

        last_out = "second in" if first_out == "first in" else "first in"
        leave[first_out].set()
        threads[first_out].join(10)
        assert seen[first_out] == pinned
        leave[last_out].set()
        threads[last_out].join(10)
        assert seen[last_out] == before
        assert counts() == before


class TestNothingFound:
    @pytest.fixture
    def nothing(self, monkeypatch):
        monkeypatch.setattr(_blas, "_discover", lambda: ((), "no OpenBLAS here"))
        _blas.libraries.cache_clear()
        yield
        _blas.libraries.cache_clear()

    def test_no_op_with_one_info_line(self, nothing, caplog):
        with caplog.at_level(logging.INFO, logger="tribem.blas"):
            for _ in range(3):
                with _blas.single_threaded():
                    assert _blas.thread_counts() == {}
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert record.getMessage() == "BLAS threads stay unpinned: no OpenBLAS here"


def test_discovery_loads_nothing_new(found):
    # RTLD_NOLOAD: what is found is what numpy and scipy have loaded
    assert sorted(lib.package for lib in found) == ["numpy", "scipy"]


# Records both libraries' counts before tribem is imported, runs one
# two-worker request on the cube, and records them again.
_GUARD = """
import ctypes, glob, json, os
import numpy, scipy.linalg

def count(package, names):
    root = os.path.dirname(__import__(package).__file__)
    for path in glob.glob(os.path.join(root + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for name in names:
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None

def counts():
    return [
        count("numpy", ["scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"]),
        count("scipy", ["scipy_openblas_get_num_threads", "openblas_get_num_threads"]),
    ]

before = counts()
import tribem
prob = tribem.cube_problem()
tribem.distributed_assemble_solve(
    prob.mesh, prob.material, prob.bc, tribem.gauss_rule(4), workers=2
)
print(json.dumps([before, counts()]))
"""


def test_no_process_wide_side_effect(found):
    result = subprocess.run(
        [sys.executable, "-c", _GUARD],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    before, after = json.loads(result.stdout.strip().splitlines()[-1])
    assert None not in before
    assert after == before
