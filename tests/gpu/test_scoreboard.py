"""Scoreboard dependence-tracking tests."""

from repro.gpu.scoreboard import Scoreboard


class TestScoreboard:
    def test_ready_when_no_pending(self):
        sb = Scoreboard(2)
        assert sb.ready(0, [1, 2, 3], now=0.0)

    def test_blocks_until_ready_time(self):
        sb = Scoreboard(1)
        sb.set_pending(0, [5], ready_at=10.0)
        assert not sb.ready(0, [5], now=9.0)
        assert sb.ready(0, [5], now=10.0)

    def test_per_warp_isolation(self):
        sb = Scoreboard(2)
        sb.set_pending(0, [5], ready_at=10.0)
        assert sb.ready(1, [5], now=0.0)

    def test_waw_keeps_latest(self):
        sb = Scoreboard(1)
        sb.set_pending(0, [5], ready_at=10.0)
        sb.set_pending(0, [5], ready_at=8.0)  # earlier write cannot shrink
        assert not sb.ready(0, [5], now=9.0)

    def test_earliest_ready(self):
        sb = Scoreboard(1)
        sb.set_pending(0, [1], ready_at=4.0)
        sb.set_pending(0, [2], ready_at=9.0)
        assert sb.earliest_ready(0, [1, 2]) == 9.0
        assert sb.earliest_ready(0, [3]) == 0.0
