"""Shared fixtures: configurations and (expensive) cached executors."""

from __future__ import annotations

import pytest

from repro.config import (
    DataType,
    system_gpu_simd,
    system_sma,
    volta_gpu,
)
from repro.gemm.executor import GemmExecutor


@pytest.fixture(scope="session")
def gpu_config():
    return volta_gpu()


@pytest.fixture(scope="session")
def simd_system():
    return system_gpu_simd()


@pytest.fixture(scope="session")
def sma2_system():
    return system_sma(2)


@pytest.fixture(scope="session")
def sma3_system():
    return system_sma(3)


@pytest.fixture(scope="session")
def simd_executor(simd_system):
    return GemmExecutor(simd_system, "simd")


@pytest.fixture(scope="session")
def tc_executor(simd_system):
    return GemmExecutor(simd_system, "tc")


@pytest.fixture(scope="session")
def sma2_executor(sma2_system):
    return GemmExecutor(sma2_system, "sma")


@pytest.fixture(scope="session")
def sma3_executor(sma3_system):
    return GemmExecutor(sma3_system, "sma")


@pytest.fixture(scope="session")
def fp16():
    return DataType.FP16


@pytest.fixture(scope="session")
def fp32():
    return DataType.FP32


@pytest.fixture()
def close_after_probe(monkeypatch):
    """Arm: close a cluster server right after dispatch's capacity probe.

    The server answers ``status`` (so it is dealt a shard) and then
    refuses every connection, which is how a server that dies between
    the probe and its submit looks to the dispatcher.
    """
    from repro.cluster import dispatch

    def arm(server) -> None:
        probe = dispatch.server_capacities

        def probe_then_close(*args, **kwargs):
            capacities = probe(*args, **kwargs)
            server.close()
            return capacities

        monkeypatch.setattr(dispatch, "server_capacities", probe_then_close)

    return arm
