"""Property-based tests on the memory-system models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import CounterBag
from repro.gpu.coalescer import coalesce
from repro.gpu.shared_memory import SharedMemoryModel
from repro.isa.instructions import MemAccess, MemSpace

_ADDRESSES = st.lists(
    st.integers(min_value=0, max_value=1 << 20).map(lambda v: v * 4),
    min_size=1,
    max_size=32,
)


class TestSharedMemoryProperties:
    @given(_ADDRESSES)
    @settings(max_examples=60, deadline=None)
    def test_conflict_degree_bounds(self, addresses):
        smem = SharedMemoryModel()
        result = smem.cost_addresses(tuple(addresses))
        assert 1 <= result.cycles <= 32
        assert result.words_touched <= len(addresses)

    @given(_ADDRESSES)
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, addresses):
        smem = SharedMemoryModel()
        forward = smem.cost_addresses(tuple(addresses))
        backward = smem.cost_addresses(tuple(reversed(addresses)))
        assert forward.cycles == backward.cycles

    @given(_ADDRESSES)
    @settings(max_examples=40, deadline=None)
    def test_more_banks_never_hurt(self, addresses):
        narrow = SharedMemoryModel(num_banks=8)
        wide = SharedMemoryModel(num_banks=32)
        assert (
            wide.cost_addresses(tuple(addresses)).cycles
            <= narrow.cost_addresses(tuple(addresses)).cycles
        )


class TestCoalescerProperties:
    @given(_ADDRESSES)
    @settings(max_examples=60, deadline=None)
    def test_sector_bounds(self, addresses):
        access = MemAccess(MemSpace.GLOBAL, tuple(addresses))
        result = coalesce(access)
        assert 1 <= result.sectors <= len(addresses)
        assert result.lines <= result.sectors
        assert 0 < result.efficiency <= 1.0


class TestCounterBagProperties:
    @given(
        st.dictionaries(st.text(min_size=1, max_size=6),
                        st.floats(0, 1e9), max_size=8),
        st.dictionaries(st.text(min_size=1, max_size=6),
                        st.floats(0, 1e9), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_commutative(self, left, right):
        a = CounterBag(left).merged(CounterBag(right))
        b = CounterBag(right).merged(CounterBag(left))
        for key in set(left) | set(right):
            assert a[key] == b[key]

    @given(
        st.dictionaries(st.text(min_size=1, max_size=6),
                        st.floats(0, 1e6), max_size=8),
        st.floats(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_distributes(self, counts, factor):
        bag = CounterBag(counts)
        scaled = bag.scaled(factor)
        for key in counts:
            assert scaled[key] == bag[key] * factor
