"""Tests for the symmetric heap and signal arrays."""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU, Storage
from repro.nvshmem import NVSHMEMRuntime
from repro.nvshmem.heap import element_range
from repro.runtime import MultiGPUContext


@pytest.fixture
def rt():
    return NVSHMEMRuntime(MultiGPUContext(HGX_A100_8GPU.scaled_to(4)))


class TestSymmetricArray:
    def test_malloc_allocates_on_every_pe(self, rt):
        arr = rt.malloc("grid", (8, 8))
        assert arr.n_pes == 4
        for pe in range(4):
            buf = arr.on(pe)
            assert buf.device == pe
            assert buf.shape == (8, 8)
            assert buf.storage is Storage.SYMMETRIC

    def test_malloc_duplicate_name_rejected(self, rt):
        rt.malloc("a", (2,))
        with pytest.raises(ValueError):
            rt.malloc("a", (2,))

    def test_local_returns_backing_array(self, rt):
        arr = rt.malloc("grid", (4,), fill=2.0)
        assert np.all(arr.local(1) == 2.0)
        arr.local(1)[0] = 9.0
        assert arr.on(1).data[0] == 9.0

    def test_pe_out_of_range(self, rt):
        arr = rt.malloc("grid", (4,))
        with pytest.raises(ValueError):
            arr.on(4)

    def test_free_releases_all_pes(self, rt):
        before = [rt.ctx.memory.used_bytes(pe) for pe in range(4)]
        arr = rt.malloc("tmp", (1000,))
        rt.heap.free(arr)
        after = [rt.ctx.memory.used_bytes(pe) for pe in range(4)]
        assert before == after

    def test_free_foreign_array_rejected(self, rt):
        arr = rt.malloc("tmp", (4,))
        rt.heap.free(arr)
        with pytest.raises(RuntimeError):
            rt.heap.free(arr)

    def test_get_by_name(self, rt):
        arr = rt.malloc("named", (2,))
        assert rt.heap.get("named") is arr


class TestBlockLayout:
    """Every allocation is one ``(n_pes, *shape)`` block; each PE's
    buffer is its row, accounted on its own device."""

    def test_each_pe_buffer_is_a_view_of_the_block(self, rt):
        arr = rt.malloc("grid", (3, 5))
        assert arr.block.shape == (4, 3, 5)
        assert arr.block.flags.c_contiguous
        for pe in range(4):
            assert arr.on(pe).data.base is arr.block
            arr.block[pe] = pe + 1.0
            assert np.all(arr.local(pe) == pe + 1.0)
        arr.local(2)[1, 1] = -7.0
        assert arr.block[2, 1, 1] == -7.0

    @pytest.mark.parametrize("fill", [0.0, 1.5])
    def test_fill_is_honoured(self, rt, fill):
        arr = rt.malloc("grid", (2, 3), fill=fill)
        assert np.all(arr.block == fill)
        assert not np.signbit(arr.block).any()

    def test_fill_none_allocates_uninitialised(self, rt):
        arr = rt.malloc("grid", (2, 3), dtype=np.float32, fill=None)
        assert arr.block.shape == (4, 2, 3)
        assert arr.dtype == np.float32
        assert arr.shape == (2, 3)

    def test_int_shape(self, rt):
        arr = rt.malloc("vec", 5, fill=2.0)
        assert arr.shape == (5,)
        assert arr.block.shape == (4, 5)
        assert arr.local(3).shape == (5,)
        assert np.all(arr.local(3) == 2.0)

    def test_accounting_is_per_pe(self, rt):
        memory = rt.ctx.memory
        before = [memory.used_bytes(pe) for pe in range(4)]
        arr = rt.malloc("grid", (10,))
        for pe in range(4):
            assert memory.used_bytes(pe) == before[pe] + 80
            names = [b.name for b in memory.buffers_on(pe)]
            assert names.count("sym:grid") == 1
            assert arr.on(pe) in list(memory.buffers_on(pe))
        rt.heap.free(arr)
        assert [memory.used_bytes(pe) for pe in range(4)] == before
        assert all("sym:grid" not in [b.name for b in memory.buffers_on(pe)]
                   for pe in range(4))

    def test_capacity_checked_before_the_block_is_allocated(self):
        from repro.hw.memory import MemoryManager
        from repro.nvshmem.heap import SymmetricHeap
        from repro.sim import Simulator

        memory = MemoryManager(num_gpus=2, capacity_bytes=64)
        heap = SymmetricHeap(memory, Simulator(), 2)
        heap.malloc("fits", (8,))
        with pytest.raises(MemoryError):
            heap.malloc("overflows", (1,))
        assert [memory.used_bytes(pe) for pe in range(2)] == [64, 64]
        with pytest.raises(KeyError):
            heap.get("overflows")

    def test_stencil_setup_fills_slabs_and_zeroes_padding(self):
        """18 interior rows over 4 ranks: slabs of 4 or 5 rows (+2 halo)
        in blocks of 7 rows, so short slabs leave one zero padding row."""
        from repro.stencil import StencilConfig
        from repro.stencil.base import default_initial
        from repro.stencil.runner import VARIANTS

        config = StencilConfig(global_shape=(20, 10), num_gpus=4, iterations=1)
        variant = VARIANTS["cpufree"](config)
        variant.setup()
        initial = default_initial(config.global_shape, config.seed)
        padded = 0
        for sym in variant.sym:
            assert sym.block.shape == (4, 7, 10)
            for rank, (lo, hi) in enumerate(variant.decomp.ranges):
                rows = hi - lo + 2
                np.testing.assert_array_equal(sym.block[rank, :rows],
                                              initial[lo - 1:hi + 1])
                assert np.all(sym.block[rank, rows:] == 0.0)
                padded += 7 - rows
        assert padded > 0

    def test_stencil_views_alias_the_heap_after_restore(self):
        """Rollback writes snapshots back in place, so a variant's
        per-rank arrays keep pointing into the heap blocks."""
        from repro.stencil import StencilConfig
        from repro.stencil.runner import VARIANTS

        variant = VARIANTS["cpufree"](StencilConfig(
            global_shape=(20, 10), num_gpus=4, iterations=1))
        variant.setup()
        heap = variant.nvshmem.heap
        views = [list(pair) for pair in variant.arrays]
        snap = heap.snapshot(epoch=0)
        saved = [[v.copy() for v in pair] for pair in views]
        for pair in views:
            for view in pair:
                view[...] = -1.0
        heap.restore(snap)
        for rank, pair in enumerate(variant.arrays):
            for parity, view in enumerate(pair):
                assert view is views[rank][parity]
                assert np.shares_memory(view, variant.sym[parity].block)
                np.testing.assert_array_equal(view, saved[rank][parity])


class TestSignalArray:
    def test_four_signals_per_pe_like_the_paper(self, rt):
        """Paper §4.1.1: pairs of flags for top and bottom neighbors —
        four in total for each PE."""
        sig = rt.malloc_signals("halo_flags", 4)
        for pe in range(4):
            for i in range(4):
                assert sig.value(pe, i) == 0

    def test_signals_are_per_pe_independent(self, rt):
        sig = rt.malloc_signals("s", 2)
        sig.flag(1, 0).set(5)
        assert sig.value(1, 0) == 5
        assert sig.value(0, 0) == 0
        assert sig.value(1, 1) == 0

    def test_out_of_range(self, rt):
        sig = rt.malloc_signals("s", 2)
        with pytest.raises(ValueError):
            sig.flag(4, 0)
        with pytest.raises(ValueError):
            sig.flag(0, 2)

    def test_duplicate_signal_name_rejected(self, rt):
        rt.malloc_signals("s", 1)
        with pytest.raises(ValueError):
            rt.malloc_signals("s", 1)


class TestRuntime:
    def test_more_pes_than_gpus_rejected(self):
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2))
        with pytest.raises(ValueError):
            NVSHMEMRuntime(ctx, n_pes=3)

    def test_device_handle_range(self, rt):
        rt.device(0)
        rt.device(3)
        with pytest.raises(ValueError):
            rt.device(4)

    def test_host_barrier_all(self, rt):
        times = []

        def host(rank, delay):
            from repro.sim import Delay
            yield Delay(delay)
            yield from rt.host_barrier_all(rank)
            times.append(rt.ctx.sim.now)

        for r in range(4):
            rt.ctx.sim.spawn(host(r, float(r)), name=f"h{r}")
        rt.ctx.run()
        assert len(set(times)) == 1
        assert times[0] >= 3.0 + rt.ctx.cost.nvshmem_host_barrier_us


class TestElementRange:
    """Edge cases of the flat covering-interval computation the
    sanitizer uses to express heap accesses."""

    def test_zero_length_slice_is_empty_interval(self):
        assert element_range((8,), slice(3, 3)) == (0, 0)
        assert element_range((8,), slice(5, 2)) == (0, 0)
        assert element_range((4, 4), (slice(0, 0), slice(None))) == (0, 0)

    def test_end_of_heap_slices(self):
        assert element_range((8,), slice(6, None)) == (6, 8)
        assert element_range((8,), slice(None)) == (0, 8)
        assert element_range((8,), 7) == (7, 8)
        assert element_range((2, 3), (1, 2)) == (5, 6)
        assert element_range((4, 6), (slice(2, 4), slice(None))) == (12, 24)

    def test_negative_index_resolves_to_heap_end(self):
        assert element_range((8,), -1) == (7, 8)
        assert element_range((8,), slice(-2, None)) == (6, 8)

    def test_strided_selection_is_conservative_covering(self):
        lo, hi = element_range((4, 6), (slice(None), 2))
        assert (lo, hi) == (2, 21)  # covers skipped elements
        assert hi - lo >= 4

    def test_ranges_are_element_based_for_any_itemsize(self, rt):
        """Offsets count elements, not bytes: the same index on arrays
        of 4-, 8-, and 16-byte dtypes yields one identical interval,
        and hi never exceeds the element count."""
        import numpy as np

        shape, index = (4, 6), (slice(1, 3), slice(None))
        want = element_range(shape, index)
        for dtype in (np.float32, np.float64, np.complex128):
            arr = rt.malloc(f"er_{np.dtype(dtype).name}", shape, dtype=dtype)
            assert element_range(arr.shape, index) == want
            assert want[1] <= int(np.prod(arr.shape))

    def test_cache_returns_consistent_results(self):
        first = element_range((16,), slice(4, 9))
        second = element_range((16,), slice(4, 9))
        assert first == second == (4, 9)
