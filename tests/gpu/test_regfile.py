"""Register-file port-capacity tests."""

import pytest

from repro.config import GpuConfig
from repro.errors import SimulationError
from repro.gpu.regfile import RegisterFileModel


class TestRegisterFileModel:
    def test_capacity_from_banks(self):
        rf = RegisterFileModel(GpuConfig(), collector_efficiency=0.75)
        assert rf.read_capacity == pytest.approx(6.0)
        assert rf.write_capacity == pytest.approx(3.0)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(SimulationError):
            RegisterFileModel(GpuConfig(), collector_efficiency=0.0)
