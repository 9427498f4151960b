"""Property-based tests: ``time_gemm`` obeys physics on every backend.

Over random (M, N, K) on the paper's three GEMM backends and one catalog
device, a timed GEMM never beats its peak, never moves less DRAM traffic
than the compulsory A, B and C bytes, and never gets faster when the
problem grows. Sample windows depend only on the K-iteration count, so
after the first few examples per platform each draw costs no simulation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, TimingCache
from repro.gemm.problem import GemmProblem

PLATFORMS = ("gpu-simd", "gpu-tc", "sma:2", "sma:3", "sma@a100")

_DIMS = st.integers(min_value=1, max_value=2048)


@pytest.fixture(scope="module")
def session():
    return Session(cache=TimingCache())


def _time(session, spec, m, n, k):
    executor = session.executor(spec)
    problem = GemmProblem(m, n, k, dtype=executor.default_dtype())
    return executor.time_gemm(problem)


@pytest.mark.parametrize("spec", PLATFORMS)
class TestTimeGemmOracle:
    @given(m=_DIMS, n=_DIMS, k=_DIMS)
    @settings(max_examples=20, deadline=None)
    def test_efficiencies_at_most_one(self, session, spec, m, n, k):
        timing = _time(session, spec, m, n, k)
        assert 0.0 < timing.efficiency <= 1.0
        assert 0.0 < timing.sm_efficiency <= 1.0

    @given(m=_DIMS, n=_DIMS, k=_DIMS)
    @settings(max_examples=20, deadline=None)
    def test_dram_bytes_cover_compulsory_traffic(self, session, spec, m, n, k):
        timing = _time(session, spec, m, n, k)
        element = timing.problem.dtype.bytes
        compulsory = (m * k + k * n) * element + m * n * 4
        assert timing.counters.get("dram_bytes") >= compulsory

    @given(m=_DIMS, n=_DIMS, k=_DIMS, axis=st.sampled_from("mnk"))
    @settings(max_examples=20, deadline=None)
    def test_doubling_a_dimension_never_speeds_up(
        self, session, spec, m, n, k, axis
    ):
        dims = {"m": m, "n": n, "k": k}
        before = _time(session, spec, **dims)
        dims[axis] *= 2
        after = _time(session, spec, **dims)
        assert after.seconds >= before.seconds
