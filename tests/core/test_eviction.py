"""Pool-eviction interplay: LRU order, transparent re-programming, pinning.

These tests program more operators than the macro complement can hold and
verify the compiler-runtime contract: least-recently-used operands lose
their macros first, handles self-heal by re-programming on next use, the
solver's operator cache is purged on eviction (the seed leaked evicted
entries forever), and pinned operators are never sacrificed.
"""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.errors import CapacityError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver


def _solver(num_macros=4, size=16, seed=0) -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=num_macros, rows=size, cols=size),
            rng=np.random.default_rng(seed),
        ),
        rng=np.random.default_rng(seed + 1),
    )


def _matrix(rng, n=12):
    # 2n > 16 columns forces the paired-arrays layout: two macros per operand.
    return rng.uniform(-1, 1, size=(n, n))


class TestLRUOrder:
    def test_oldest_operator_is_evicted_first(self, rng):
        solver = _solver()
        op_a = solver.compile(_matrix(rng))
        op_b = solver.compile(_matrix(rng))
        assert solver.pool.free_count == 0
        op_c = solver.compile(_matrix(rng))
        assert not op_a.resident
        assert op_b.resident
        assert op_c.resident
        assert solver.pool.evictions == 1

    def test_use_refreshes_lru_position(self, rng):
        solver = _solver()
        op_a = solver.compile(_matrix(rng))
        op_b = solver.compile(_matrix(rng))
        op_a @ rng.uniform(-1, 1, 12)  # touch a → b becomes LRU
        solver.compile(_matrix(rng))
        assert op_a.resident
        assert not op_b.resident

    def test_overflowing_the_sixteen_macro_chip(self, rng):
        """Programming >16 macros' worth cycles the pool without leaking."""
        solver = _solver(num_macros=16)
        handles = [solver.compile(_matrix(rng)) for _ in range(12)]  # 24 macros
        resident = [op for op in handles if op.resident]
        assert len(resident) == 8  # 16 macros / 2 per operand
        # LRU means exactly the *last* eight survive, in order.
        assert resident == handles[4:]
        # The operator cache holds only resident entries — the seed's leak
        # (evicted operator handles retained forever) is fixed.
        assert len(solver._operators) == 8


class TestTransparentReprogramming:
    def test_evicted_handle_self_heals(self, rng):
        solver = _solver()
        matrix = _matrix(rng)
        op = solver.compile(matrix)
        solver.compile(_matrix(rng))
        solver.compile(_matrix(rng))  # evicts op
        assert not op.resident

        x = rng.uniform(-1, 1, 12)
        result = op.mvm(x)
        assert np.all(np.isfinite(result.value))
        assert op.resident
        assert op.program_count == 2

    def test_facade_reprograms_after_eviction(self, rng):
        solver = _solver()
        matrix = _matrix(rng)
        solver.compile(matrix).mvm(rng.uniform(-1, 1, 12))
        solver.compile(_matrix(rng))
        solver.compile(_matrix(rng))
        # A fresh compile transparently resolves to a reprogrammed handle.
        result = solver.compile(matrix).mvm(rng.uniform(-1, 1, 12))
        assert np.all(np.isfinite(result.value))

    def test_cache_purged_on_eviction(self, rng):
        solver = _solver()
        before = len(solver._operators)
        op = solver.compile(_matrix(rng))
        solver.compile(_matrix(rng))
        solver.compile(_matrix(rng))
        assert not op.resident
        assert len(solver._operators) == before + 2


class TestStaleHandles:
    def test_stale_close_does_not_release_replacement(self, rng):
        """A superseded handle must not free (or unpin) its successor's macros."""
        solver = _solver()
        matrix = _matrix(rng)
        old = solver.compile(matrix)
        solver.compile(_matrix(rng))
        solver.compile(_matrix(rng))  # evicts `old`
        replacement = solver.compile(matrix)  # fresh handle, same key
        assert replacement is not old
        replacement.pin()

        old.close()
        assert old.closed
        assert replacement.resident
        assert replacement.is_pinned
        # The pin still protects the replacement from eviction pressure.
        solver.compile(_matrix(rng))
        assert replacement.resident

    def test_stale_unpin_does_not_unpin_replacement(self, rng):
        solver = _solver()
        matrix = _matrix(rng)
        old = solver.compile(matrix, pin=True)
        old.unpin()
        solver.compile(_matrix(rng))
        solver.compile(_matrix(rng))  # evicts `old`
        replacement = solver.compile(matrix, pin=True)
        old.unpin()  # stale handle: must be a local no-op
        solver.compile(_matrix(rng))
        assert replacement.resident


class TestPinnedCapacity:
    def test_pinned_is_never_evicted(self, rng):
        solver = _solver()
        pinned = solver.compile(_matrix(rng), pin=True)
        other = solver.compile(_matrix(rng))
        solver.compile(_matrix(rng))  # must evict `other`, not the pinned op
        assert pinned.resident
        assert not other.resident

    def test_all_pinned_raises_capacity_error(self, rng):
        solver = _solver()
        solver.compile(_matrix(rng), pin=True)
        solver.compile(_matrix(rng), pin=True)
        with pytest.raises(CapacityError):
            solver.compile(_matrix(rng))

    def test_closing_a_pinned_operator_frees_capacity(self, rng):
        solver = _solver()
        solver.compile(_matrix(rng), pin=True)
        op = solver.compile(_matrix(rng), pin=True)
        op.close()
        replacement = solver.compile(_matrix(rng))
        assert replacement.resident

    def test_oversized_request_still_raises(self, rng):
        solver = _solver(num_macros=2, size=16)
        with pytest.raises(CapacityError):
            # 40 columns → three paired-array tiles → more than two macros.
            solver.compile(rng.uniform(-1, 1, size=(4, 40)), AMCMode.MVM)

    def test_pinv_planes_must_coreside(self, rng):
        """A PINV solve whose A and Aᵀ planes cannot fit together raises
        rather than solving against a stale, re-programmed binding."""
        solver = _solver(num_macros=2, size=32)
        solver.compile(rng.uniform(-1, 1, size=(8, 8)), pin=True)  # 1 macro left
        # A (12×4) and Aᵀ (4×12) each need one paired-columns macro, but
        # only one evictable slot exists — they keep evicting each other.
        op = solver.compile(rng.standard_normal((12, 4)), AMCMode.PINV)
        with pytest.raises(CapacityError):
            op.lstsq(rng.uniform(-1, 1, 12))
