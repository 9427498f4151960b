"""Property-based tests: the source paper's Fig 7 relations hold per GEMM.

For any FP16 GEMM with each dimension in 1-8192 (arXiv 2002.08326):

* Fig 7 right: the semi-broadcast weight-stationary dataflow is no slower
  than plain weight-stationary on the same 3-SMA hardware;
* Fig 7 left: 2-SMA is no slower than 4-TC, at equal MAC units per SM.

Every executor shares one module-level :class:`TimingCache`. Sample
windows depend only on the executor, the dtype and the K-iteration
count, so after the first draws no example simulates an SM.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import TimingCache
from repro.config import DataType, system_gpu_4tc, system_sma
from repro.gemm.executor import GemmExecutor
from repro.gemm.problem import GemmProblem
from repro.systolic.dataflow import Dataflow

CACHE = TimingCache()

SMA3 = system_sma(3)
SEMI_BROADCAST = GemmExecutor(
    SMA3, "sma", dataflow=Dataflow.SEMI_BROADCAST_WS, cache=CACHE
)
WEIGHT_STATIONARY = GemmExecutor(
    SMA3, "sma", dataflow=Dataflow.WEIGHT_STATIONARY, cache=CACHE
)
SMA2 = GemmExecutor(system_sma(2), "sma", cache=CACHE)
TC = GemmExecutor(system_gpu_4tc(), "tc", cache=CACHE)

_DIMS = st.integers(min_value=1, max_value=8192)


def _seconds(executor, m, n, k):
    problem = GemmProblem(m, n, k, dtype=DataType.FP16)
    return executor.time_gemm(problem).seconds


@given(m=_DIMS, n=_DIMS, k=_DIMS)
@settings(max_examples=100, deadline=None)
def test_semi_broadcast_no_slower_than_weight_stationary(m, n, k):
    assert _seconds(SEMI_BROADCAST, m, n, k) <= _seconds(
        WEIGHT_STATIONARY, m, n, k
    )


@given(m=_DIMS, n=_DIMS, k=_DIMS)
@settings(max_examples=100, deadline=None)
def test_two_sma_no_slower_than_four_tensor_cores(m, n, k):
    assert _seconds(SMA2, m, n, k) <= _seconds(TC, m, n, k)
