"""Handle lifetime parity: one script over every handle kind.

A single-array INV handle, a PINV handle (with its transpose plane) and a
2×2 tile grid run the same lifetime script: compile twice, pin, unpin,
close one holder, evict under pool pressure, solve (which re-programs),
refresh, quarantine a held macro, close the last holder.  After each
step the pool's owners, ``resident``, ``is_pinned``, the handle's
program count and the ledger's write pulses must equal the recorded
trace.  Owners are listed in LRU order as ``label:macro ids``, with a
``*`` when pinned; labels name them by the step that first saw them
(``h0``… the handle's own, ``f0``… the filler operand's), so the trace
reads without the content-hash keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver

STEPS = (
    "compile twice",
    "pin",
    "unpin",
    "close one holder",
    "evict under pressure",
    "solve",
    "refresh",
    "quarantine",
    "close last holder",
)


def _operand(kind: str) -> tuple[np.ndarray, AMCMode, dict]:
    rng = np.random.default_rng(3)
    if kind == "inv":
        return np.eye(8) * 2.0 + rng.normal(0.0, 0.05, (8, 8)), AMCMode.INV, {}
    if kind == "pinv":
        return rng.normal(0.0, 1.0, (12, 8)), AMCMode.PINV, {}
    return np.eye(16) * 4.0 + rng.normal(0.0, 0.05, (16, 16)), AMCMode.INV, {"tile": 8}


def _programs(op) -> int:
    return op.program_events if hasattr(op, "program_events") else op.program_count


def _trace(kind: str) -> list[tuple]:
    pool = MacroPool(PoolConfig(num_macros=8, rows=16, cols=16), rng=np.random.default_rng(5))
    solver = GramcSolver(pool=pool, rng=np.random.default_rng(6))
    matrix, mode, kwargs = _operand(kind)
    labels: dict[str, str] = {}
    records: list[tuple] = []

    def record(op, filler: bool = False) -> None:
        owners = []
        for owner, stats in pool.owner_stats().items():
            if owner not in labels:
                prefix = "f" if filler else "h"
                labels[owner] = f"{prefix}{sum(v[0] == prefix for v in labels.values())}"
            ids = ",".join(str(i) for i in stats["macro_ids"])
            owners.append(f"{labels[owner]}:{ids}{'*' if stats['pinned'] else ''}")
        records.append(
            (
                tuple(owners),
                op.resident,
                op.is_pinned,
                _programs(op),
                solver.cost.total.write_pulses,
            )
        )

    op = solver.compile(matrix, mode, **kwargs)
    assert solver.compile(matrix, mode, **kwargs) is op
    record(op)
    op.pin()
    record(op)
    op.unpin()
    record(op)
    op.close()
    assert not op.closed
    record(op)
    # Drop any pin left, then compile an operand that wants the whole pool.
    op.unpin()
    filler = solver.compile(np.ones((16, 64)), AMCMode.MVM)
    record(op, filler=True)
    filler.close()
    b = np.linspace(-1.0, 1.0, matrix.shape[0])
    if mode is AMCMode.PINV:
        op.lstsq(b)
    else:
        op.solve(b)
    record(op)
    op.refresh()
    record(op)
    assert pool.quarantine(op.macro_ids[0])
    record(op)
    op.close()
    assert op.closed
    record(op)
    return records


EXPECTED: dict[str, list[tuple]] = {
    "inv": [
        (("h0:0",), True, False, 1, 1152),  # compile twice
        (("h0:0*",), True, True, 1, 1152),  # pin
        (("h0:0",), True, False, 1, 1152),  # unpin
        (("h0:0",), True, False, 1, 1152),  # close one holder
        (("f0:1,2", "f1:3,4", "f2:5,6", "f3:7,0"), False, False, 1, 19584),  # evict under pressure
        (("h0:1",), True, False, 2, 20736),  # solve
        (("h0:1",), True, False, 3, 21888),  # refresh
        ((), False, False, 3, 21888),  # quarantine
        ((), False, False, 3, 21888),  # close last holder
    ],
    "pinv": [
        (("h0:0", "h1:1,2"), True, False, 1, 3456),  # compile twice
        (("h0:0*", "h1:1,2*"), True, True, 1, 3456),  # pin
        (("h0:0", "h1:1,2"), True, False, 1, 3456),  # unpin
        (("h0:0", "h1:1,2"), True, False, 1, 3456),  # close one holder
        (("f0:3,4", "f1:5,6", "f2:7,0", "f3:1,2"), False, False, 1, 21888),  # evict under pressure
        (("h0:3", "h1:4,5"), True, False, 2, 25344),  # solve
        (("h0:3", "h1:4,5"), True, False, 3, 28800),  # refresh
        (("h1:4,5",), False, False, 3, 28800),  # quarantine
        ((), False, False, 3, 28800),  # close last holder
    ],
    "grid": [
        (("h0:0*", "h1:3*", "h2:1*", "h3:2*"), True, True, 4, 4608),  # compile twice
        (("h0:0*", "h1:3*", "h2:1*", "h3:2*"), True, True, 4, 4608),  # pin
        (("h0:0*", "h1:3*", "h2:1*", "h3:2*"), True, True, 4, 4608),  # unpin
        (("h0:0*", "h1:3*", "h2:1*", "h3:2*"), True, True, 4, 4608),  # close one holder
        (("f0:4,5", "f1:6,7", "f2:0,3", "f3:1,2"), False, False, 4, 23040),  # evict under pressure
        (("h0:4", "h1:5", "h2:6", "h3:7"), True, False, 8, 27648),  # solve
        (("h0:4", "h1:5", "h2:6", "h3:7"), True, False, 12, 32256),  # refresh
        (("h1:5", "h2:6", "h3:7"), False, False, 12, 32256),  # quarantine
        ((), False, False, 0, 32256),  # close last holder
    ],
}


@pytest.mark.parametrize("kind", ["inv", "pinv", "grid"])
def test_lifetime_script_matches_the_recorded_trace(kind):
    records = _trace(kind)
    assert len(records) == len(STEPS)
    for step, got, want in zip(STEPS, records, EXPECTED[kind]):
        assert got == want, step
