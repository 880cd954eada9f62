"""Transmission-gate fabric: the legal wirings between lines and OPAs.

The register array's configuration closes a specific set of transmission
gates.  This module builds the explicit connection list for each mode —
useful both as executable documentation of Fig. 2 and as a structural
validator: a legal configuration drives every line from exactly one source
and never shorts two drivers together.

The wiring depends only on ``(mode, rows, cols, differential)``, so
:func:`check_wiring` — what :meth:`AMCMacro.configure
<repro.macro.amc_macro.AMCMacro.configure>` calls — builds and validates
it once per distinct shape and keeps no connection list: a 16 × 16 tile
grid configures 256 macros but checks its two tile shapes once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from repro.analog.topologies import AMCMode


class Terminal(Enum):
    """Sources/sinks a line can be gated to."""

    DAC = "dac"
    OPA_OUT = "opa_out"
    OPA_VIN = "opa_vin"  # inverting input (virtual ground)
    INVERTER_OUT = "inverter_out"
    GROUND = "ground"
    ADC = "adc"


@dataclass(frozen=True)
class Connection:
    """One closed transmission gate: ``line`` ← driven by / sensed at ``terminal``."""

    line: str  # e.g. "BL[3]" or "SL[17]"
    terminal: Terminal
    index: int  # which DAC/OPA/inverter channel


def build_connections(mode: AMCMode, rows: int, cols: int, differential: bool) -> list[Connection]:
    """The closed-gate list for a mode on an ``rows × cols`` active region.

    With ``differential`` mappings the negative plane occupies a second set
    of ``cols`` bit lines driven by inverters (paired-array layouts put them
    on the partner macro; the connection list is the same electrically).
    """
    connections: list[Connection] = []

    def bl(j: int) -> str:
        return f"BL[{j}]"

    def sl(i: int) -> str:
        return f"SL[{i}]"

    if mode is AMCMode.MVM:
        for j in range(cols):
            connections.append(Connection(bl(j), Terminal.DAC, j))
            if differential:
                connections.append(Connection(f"BLN[{j}]", Terminal.INVERTER_OUT, j))
        for i in range(rows):
            connections.append(Connection(sl(i), Terminal.OPA_VIN, i))
            connections.append(Connection(f"OUT[{i}]", Terminal.ADC, i))
    elif mode is AMCMode.INV:
        for i in range(rows):
            connections.append(Connection(sl(i), Terminal.OPA_VIN, i))
            connections.append(Connection(sl(i), Terminal.DAC, i))  # input currents
            connections.append(Connection(f"OUT[{i}]", Terminal.ADC, i))
        for j in range(cols):
            connections.append(Connection(bl(j), Terminal.OPA_OUT, j))
            if differential:
                connections.append(Connection(f"BLN[{j}]", Terminal.INVERTER_OUT, j))
    elif mode is AMCMode.PINV:
        for i in range(rows):  # stage 1: rows of G
            connections.append(Connection(sl(i), Terminal.OPA_VIN, i))
            connections.append(Connection(sl(i), Terminal.DAC, i))
        for j in range(cols):  # stage 2 outputs drive the columns
            connections.append(Connection(bl(j), Terminal.OPA_OUT, rows + j))
            connections.append(Connection(f"OUT[{j}]", Terminal.ADC, j))
            if differential:
                connections.append(Connection(f"BLN[{j}]", Terminal.INVERTER_OUT, j))
    elif mode is AMCMode.EGV:
        for i in range(rows):
            connections.append(Connection(sl(i), Terminal.OPA_VIN, i))
            connections.append(Connection(bl(i), Terminal.INVERTER_OUT, i))
            connections.append(Connection(f"OUT[{i}]", Terminal.ADC, i))
            if differential:
                connections.append(Connection(f"BLN[{i}]", Terminal.OPA_OUT, i))
    else:  # pragma: no cover - enum exhausts modes
        raise ValueError(f"unknown mode {mode!r}")
    return connections


def validate_connections(connections: list[Connection]) -> None:
    """Reject configurations that short two drivers onto one line.

    A line may carry at most one *driving* terminal (DAC, OPA_OUT,
    INVERTER_OUT, GROUND); sensing terminals (OPA_VIN, ADC) may share.  The
    INV topology's current-injection DAC shares the OPA_VIN node — current
    sources do not fight voltage observers.
    """
    drivers = {Terminal.OPA_OUT, Terminal.INVERTER_OUT, Terminal.GROUND}
    seen: dict[str, Connection] = {}
    for connection in connections:
        if connection.terminal not in drivers:
            continue
        if connection.line in seen:
            other = seen[connection.line]
            raise ValueError(
                f"short: {connection.line} driven by both {other.terminal.value}"
                f"[{other.index}] and {connection.terminal.value}[{connection.index}]"
            )
        seen[connection.line] = connection


@lru_cache(maxsize=1024)
def check_wiring(mode: AMCMode, rows: int, cols: int, differential: bool) -> None:
    """Build and validate the wiring of one shape; raises on a short.

    Cached by its arguments: a shape is checked once, and a shape that
    fails is checked again on every call (exceptions are not cached).
    """
    validate_connections(build_connections(mode, rows, cols, differential))
