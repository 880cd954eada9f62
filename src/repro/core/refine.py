"""Digital refinement: float-accurate answers from analog solves.

An analog solve is *cheap but inexact*: quantization (one part in the
level map), programming/read noise and converter resolution bound its
relative error at η ≈ 1e-2..1e-1 — and the blocked sweep engine stalls at
an O(η·κ) residual floor on top.  The paper (§III) uses such answers as
"seed solutions to speed up the convergence towards precise final
solutions"; the AMC tutorial (Sun & Ielmini, arXiv:2205.05853,
§"mixed-precision") makes the analog solve the inner solver of a digital
outer loop.  Here that loop is **flexible GMRES** (Saad, SIAM J. Sci.
Comput., 1993) with the analog solve on the resident operator as its
preconditioner — GMRES-based iterative refinement (Carson & Higham, SIAM
J. Sci. Comput., 2018) whose preconditioner may change from call to call
(fresh noise, fresh ranging), which is what the *flexible* variant
allows:

.. code-block:: text

    x = analog_solve(b)                         # η-accurate seed
    repeat (a cycle of at most RESTART steps):
        r = b − A·x,  v₀ = r/‖r‖    (float64)   # digital residual, exact A
        for j = 0, 1, …:
            z_j = analog_solve(v_j)             # the RESIDENT operator
            A·z_j orthogonalised against v₀…v_j → v_{j+1}, H
            ‖b − A·x‖ estimate from the Givens-rotated H
        x += Z·y,  y = argmin ‖ ‖r‖·e₁ − H·y ‖

A stationary loop (``x += analog_solve(r)``) contracts by about η·κ per
step, so it crawls or diverges once η·κ nears 1.  FGMRES minimises the
residual over ``x + span(Z)`` with the same analog solves, so within a
cycle the residual cannot grow (a cycle that rounding made worse is
undone), and it converges where the stationary loop cannot.

**The contract.**  A column counts as converged only on its recomputed
float64 residual ``‖b − A·x‖/‖b‖``, never on the Arnoldi estimate alone:
the residual is re-measured at every restart and at exit.  A refined
solve never raises for accuracy: each column either meets its ``rtol``
or comes back flagged unconverged, with its re-measured residual, once
the step budget is spent.

Residual norms are overflow-safe: each column is scaled by a power of
two before it is normed, which is exact, so a right-hand side near the
float64 range limits (1e±300) refines like any other.

The loop is **column-masked**: each column runs its own Arnoldi cycle on
its own clock, and drops out of the next batched analog call once its
estimate meets its target, so a mixed-``rtol`` batch (the serve layer
coalesces requests with different accuracy targets into one analog step)
only pays for the columns that still need work.  Every reduction is
taken per column with batch-independent shapes — residuals through
:func:`repro.analog.determinism.apply_matrix_per_column`, the Arnoldi
inner products and updates as one stacked product per column over its
own basis, norms as one dot product per column — so under the
column-independent engine mode a column's value, residual and verdict
are bitwise independent of its batch siblings: coalescing stays
bit-transparent through refinement.  A step whose columns all sit at
one cycle position (the common case) works on views of the state.

This module is deliberately engine-agnostic: it sees the float64 matrix,
the analog first guess, and a ``resolve(columns)`` callable.
:meth:`AnalogOperator.solve` and :meth:`TiledOperator.solve` own the
wiring (and the dispatch accounting that makes the analog/digital work
split observable in the solver's cost ledger).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analog.determinism import apply_matrix_per_column
from repro.core.errors import InputError, ShapeError
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.results import SolveResult

RESTART = 30
"""Arnoldi steps per FGMRES cycle, GMRES(30): after that many steps a
column's basis is dropped and its residual re-measured."""

DEFAULT_MAX_STEPS = 60
"""Default step budget: batched analog preconditioner calls per refined
solve.  Well-conditioned operands meet 1e-8..1e-10 in 10–30 steps; the
slowest measured case that still converges (a 256-unknown 4×4 grid at
block coupling 0.08, Jacobi sweeps, ``rtol=1e-10``) takes 43.  The
budget bounds stagnant solves (η·κ ≫ 1), which end unconverged."""


@dataclass
class RefineReport:
    """What the refinement loop did to one (batched) solve."""

    steps: int
    """Batched preconditioner calls (Arnoldi steps) made (0: the analog
    answer already met every column's target)."""

    residual: float
    """Worst per-column relative residual ``‖b_j − A·x_j‖/‖b_j‖`` at exit,
    taken over the columns with *finite* targets (columns that opted out
    with ``rtol=inf`` sit at the analog floor by design and are excluded;
    see ``per_column_residual`` for every column's value)."""

    per_column_residual: np.ndarray
    """Final float64-measured relative residual of every column, shape
    ``(k,)``."""

    per_column_converged: np.ndarray
    """Whether each column reached its ``rtol``, shape ``(k,)`` bool."""

    residual_trace: tuple[float, ...]
    """Worst-column relative residual after each step, starting with the
    raw analog answer (index 0) — the accuracy-vs-steps curve.  Mid-cycle
    columns contribute their Arnoldi estimate, the others their float64
    re-measure."""

    macs: int
    """Float64 multiply-accumulates the loop spent: residual re-measures,
    ``A·z`` products, orthogonalisation and solution updates."""

    @property
    def converged(self) -> bool:
        return bool(self.per_column_converged.all())


def as_rtol_vector(rtol, columns: int) -> np.ndarray:
    """Validate and broadcast an ``rtol`` request to one target per column.

    ``rtol`` may be a positive scalar or a ``(columns,)`` array; ``inf``
    entries are legal and mean "this column rides the shared analog step
    but wants no refinement" — that is how the serve layer coalesces
    mixed-accuracy requests into one batch.
    """
    vector = np.asarray(rtol, dtype=float)
    # Checked before a scalar is broadcast: a zero-column batch must not
    # let a bad target through as an empty vector.
    if np.any(np.isnan(vector)) or np.any(vector <= 0.0):
        raise InputError("rtol targets must be positive (inf = no refinement)")
    if vector.ndim == 0:
        vector = np.full(columns, float(vector))
    if vector.shape != (columns,):
        raise ShapeError(
            f"rtol must be a scalar or a ({columns},) per-column vector; "
            f"got shape {vector.shape}"
        )
    return vector


WORST_COLUMNS_REPORTED = 4
"""How many offending columns a failed contract names (enough to spot a
pattern — one tenant, one tile — without dumping the whole batch)."""


def worst_columns_of(
    residuals: np.ndarray,
    mask: np.ndarray,
    k: int = WORST_COLUMNS_REPORTED,
) -> tuple[int, ...]:
    """The ``k`` worst offending column indices, highest residual first.

    ``mask`` selects the columns eligible to be blamed (still
    unconverged); non-finite residuals sort as worst of all.
    """
    candidates = np.flatnonzero(np.asarray(mask, dtype=bool))
    if candidates.size == 0:
        return ()
    values = np.asarray(residuals, dtype=float)[candidates]
    order = np.argsort(np.where(np.isfinite(values), -values, -np.inf))
    return tuple(int(c) for c in candidates[order[:k]])


def _power_of_two_scale(peak: np.ndarray) -> np.ndarray:
    """The largest power of two at or below each finite, nonzero ``peak``
    (1 elsewhere) — always a finite float, even for a peak at the top
    of the float64 range.  Dividing by it is exact, so a norm taken on
    the scaled data and multiplied back equals the unscaled norm bit for
    bit wherever the unscaled one neither overflows nor underflows."""
    peak = np.asarray(peak, dtype=float)
    usable = np.isfinite(peak) & (peak > 0.0)
    _, exponent = np.frexp(np.where(usable, peak, 1.0))
    return np.where(usable, np.ldexp(1.0, exponent - 1), 1.0)


_PLAIN_NORM_FLOOR = float(np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps)
"""Above this a plain 2-norm cannot have lost precision to underflow:
its squared terms that fall below the smallest normal float are then
smaller than one ulp of the sum."""


def scaled_norm(vector: np.ndarray) -> float:
    """Overflow- and underflow-safe 2-norm of a whole array.

    The plain norm is returned whenever it is finite and above
    :data:`_PLAIN_NORM_FLOOR` (the common case, at no extra cost);
    otherwise the array is rescaled by a power of two and normed again."""
    vector = np.asarray(vector, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        plain = float(np.linalg.norm(vector))
    if np.isfinite(plain) and plain > _PLAIN_NORM_FLOOR:
        return plain
    if vector.size == 0:
        return 0.0
    scale = float(_power_of_two_scale(np.max(np.abs(vector))))
    return scale * float(np.linalg.norm(vector / scale))


def _column_norms(block: np.ndarray) -> np.ndarray:
    """Per-column 2-norms, overflow-safe, with a batch-width-independent
    reduction order.

    ``np.linalg.norm(block, axis=0)`` reduces along strided views whose
    blocking can depend on the batch width; here each column, divided by
    its power-of-two scale (see :func:`scaled_norm`), is one contiguous
    dot product, whichever siblings share its batch."""
    scales = _power_of_two_scale(np.max(np.abs(block), axis=0))
    return scales * _row_norms(np.divide(block.T, scales[:, None], order="C"))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of each row of an ``(a, n)`` block, one dot product per row."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _cohorts(cols: np.ndarray, lengths: np.ndarray, columns: int):
    """``(length, rows, index)`` groups of ``cols`` with equal ``lengths``
    (``rows`` indexes arrays aligned with ``cols``, ``index`` the state;
    both are views when ``cols`` is every column, at one length).  A
    stacked product over a group has a batch-independent shape."""
    if cols.size == columns and (lengths == lengths[0]).all():
        yield int(lengths[0]), slice(None), slice(None)
        return
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        yield int(length), rows, cols[rows]


def refine_solution(
    matrix: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    resolve: Callable[[np.ndarray], np.ndarray],
    rtol: np.ndarray,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[np.ndarray, RefineReport]:
    """Refine ``x0`` by flexible GMRES until every column meets ``rtol``.

    Parameters
    ----------
    matrix:
        The *original* float64 operand (not its quantized image) — the
        residual must be measured against what the user asked to solve.
    b, x0:
        Right-hand side and the analog first guess, both ``(n, k)``.
    resolve:
        ``resolve(v)`` → approximate ``A⁻¹·v`` for an ``(n, j)`` block of
        unit basis vectors (``j`` ≤ ``k``: columns whose estimate met
        their target are masked out).  This is the analog solve on the
        resident operator, the preconditioner; it must not reprogram
        anything.
    rtol:
        Per-column targets from :func:`as_rtol_vector`.
    max_steps:
        Budget of batched ``resolve`` calls.

    Returns the refined solution and a :class:`RefineReport`.  Never
    raises for accuracy: a column still above its target when the budget
    is spent comes back with ``per_column_converged`` False and its
    float64-measured residual.
    """
    x = np.array(x0, dtype=float)
    b = np.asarray(b, dtype=float)
    n, columns = b.shape
    macs = 0

    b_norms = _column_norms(b)
    # An all-zero column's solution is exactly zero; judge it absolutely.
    denominators = np.where(b_norms == 0.0, 1.0, b_norms)

    # ``inf`` targets ("ride the batch, no refinement") are excluded from
    # the scalar aggregates: the reported residual / trace describe the
    # columns that actually contracted for accuracy, not the analog-floor
    # residual of columns that opted out.
    tracked = np.isfinite(rtol)
    if not tracked.any():
        tracked = np.ones(columns, dtype=bool)

    def worst(values: np.ndarray) -> float:
        return float(np.max(values[tracked])) if columns else 0.0

    # Per-column FGMRES state.  Column c is ``pos[c]`` steps into its
    # cycle; ``basis[c, :pos+1]`` are its Arnoldi vectors, ``directions``
    # its preconditioned vectors Z, ``tri[c, i]`` column i of its rotated
    # Hessenberg matrix R and ``rhs`` the rotated ``‖r‖·e₁``.  Steps write
    # what they read (``basis[:, 0]`` aside, for a non-finite residual).
    # One block holds basis and directions: freed, the C allocator keeps a
    # block this size for the next solve, while two half-size ones go back
    # to the system and every page a step writes faults in again.
    krylov = np.empty((columns, 2 * RESTART + 1, n))
    basis, directions = krylov[:, : RESTART + 1], krylov[:, RESTART + 1 :]
    basis[:, 0] = 0.0
    tri = np.empty((columns, RESTART, RESTART))
    cos = np.ones((columns, RESTART))
    sin = np.zeros((columns, RESTART))
    rhs = np.zeros((columns, RESTART + 1))
    pos = np.zeros(columns, dtype=int)
    start = x.copy()
    beta = np.full(columns, np.inf)  # ‖b − A·x‖ at each cycle's start
    res = np.empty(columns)
    converged = np.zeros(columns, dtype=bool)

    def restart(cols: np.ndarray) -> None:
        """Float64 residual of ``cols``, then a fresh cycle for each."""
        nonlocal macs
        residual = b[:, cols] - apply_matrix_per_column(matrix, x[:, cols])
        macs += matrix.size * cols.size
        norms = _column_norms(residual)
        # The residual cannot grow over a cycle in exact arithmetic; a
        # cycle that rounding made worse (or non-finite) is undone, and
        # the column restarts from its previous iterate and basis.
        kept = norms <= beta[cols]
        undone, fresh = cols[~kept], cols[kept]
        x[:, undone] = start[:, undone]
        start[:, fresh] = x[:, fresh]
        beta[fresh] = norms[kept]
        basis[fresh, 0] = np.divide(
            residual[:, kept], norms[kept],
            out=np.zeros((n, fresh.size)), where=norms[kept] > 0.0,
        ).T
        res[cols] = beta[cols] / denominators[cols]
        converged[cols] = res[cols] <= rtol[cols]
        pos[cols] = 0
        cos[cols], sin[cols], rhs[cols] = 1.0, 0.0, 0.0
        rhs[cols, 0] = beta[cols]

    def finish(cols: np.ndarray) -> None:
        """Close the cycles of ``cols``: ``x += Z·y`` with ``R·y = rhs``."""
        nonlocal macs
        for length, _, done in _cohorts(cols, pos[cols], columns):
            if length == 0:
                continue
            upper = tri[done, :length, :length].transpose(0, 2, 1)
            y = np.linalg.solve(upper, rhs[done, :length, None])
            x[:, done] += (y.transpose(0, 2, 1) @ directions[done, :length])[:, 0, :].T
            macs += n * length * y.shape[0]
        restart(cols)

    restart(np.arange(columns))
    trace = [worst(res)]
    steps = 0

    while steps < max_steps and not converged.all():
        active = np.flatnonzero(~converged)
        with obs_trace.span(
            "refine_step", step=steps + 1, active=int(active.size)
        ) as sp:
            j = pos[active]
            # In lockstep (every column active at one position) views.
            lockstep = active.size == columns and (j == j[0]).all()
            cols, at = (slice(None), int(j[0])) if lockstep else (active, j)
            z = resolve(np.ascontiguousarray(basis[cols, at].T))
            w = np.ascontiguousarray(apply_matrix_per_column(matrix, z).T)
            steps += 1
            reach = _row_norms(w)  # ‖A·z‖, the rounding yardstick below

            # Classical Gram-Schmidt, twice, against each column's cycle
            # basis; columns at the same position share one stacked product.
            # ``h[i]`` holds entry i of every active column's new column.
            h = np.zeros((RESTART + 1, active.size))
            for length, rows, index in _cohorts(active, j + 1, columns):
                cycle = basis[index, :length]
                part = w[rows]
                for _ in range(2):
                    coeff = (cycle @ part[:, :, None])[:, :, 0]
                    part -= (coeff[:, None, :] @ cycle)[:, 0, :]
                    h[:length, rows] += coeff.T
                w[rows] = part
            fresh = _row_norms(w)
            finite = np.isfinite(h).all(axis=0) & np.isfinite(fresh)
            macs += (matrix.size + 6 * n) * active.size + 4 * n * int(j.sum())

            # Earlier rotations, in place and elementwise across the active
            # columns (identity past a column's own position) ...
            span = int(j.max())
            cos_seen, sin_seen = cos[cols, :span].T, sin[cols, :span].T
            for i in range(span):
                c, s, upper, lower = cos_seen[i], sin_seen[i], h[i], h[i + 1]
                rotated = c * upper + s * lower
                lower *= c
                lower -= s * upper
                upper[:] = rotated
            # ... then the one that annihilates the new subdiagonal entry.
            lanes = slice(None) if lockstep else np.arange(active.size)
            top = h[at, lanes]
            rho = np.sqrt(top * top + fresh * fresh)
            # A direction within rounding of the span already built adds
            # nothing the least-squares solve can use.
            usable = finite & (rho > n * np.finfo(float).eps * reach)
            rho = np.where(usable, rho, 1.0)
            c, s = top / rho, fresh / rho
            h[at, lanes] = rho

            whole = lockstep and usable.all()
            keep, u, ju = (slice(None), cols, at) if whole else (usable, active[usable], j[usable])
            tri[u, ju] = h[:RESTART, keep].T
            cos[u, ju], sin[u, ju] = c[keep], s[keep]
            carried = rhs[u, ju]
            rhs[u, ju + 1] = -s[keep] * carried
            rhs[u, ju] = c[keep] * carried
            directions[u, ju] = z.T[keep]
            basis[u, ju + 1] = w[keep] / np.where(fresh > 0.0, fresh, 1.0)[keep, None]
            pos[u] += 1
            res[u] = np.abs(rhs[u, ju + 1]) / denominators[u]

            ended = ~usable | (res[cols] <= rtol[cols]) | (pos[cols] == RESTART)
            if steps == max_steps:
                ended[:] = True
            if ended.any():
                finish(active[ended])
            trace.append(worst(res))
            sp.set(residual=trace[-1])

    report = RefineReport(
        steps=steps,
        residual=worst(res),
        per_column_residual=res,
        per_column_converged=converged,
        residual_trace=tuple(trace),
        macs=macs,
    )
    return x, report


class _CorrectionFold:
    """Folds each preconditioner solve's scalar diagnostics into running
    totals.

    The refinement loop wants a plain ``columns → array`` callable; the
    operator layers produce full result objects.  This adapter bridges
    the two while keeping ``attempts`` / ``stable`` / ``saturated`` honest
    across the whole refined solve.
    """

    def __init__(self, solve_correction: Callable[[np.ndarray], "object"]):
        self._solve = solve_correction
        self.attempts = 0
        self.stable = True
        self.saturated = False

    def __call__(self, columns: np.ndarray) -> np.ndarray:
        inner = self._solve(columns)
        self.attempts += inner.attempts
        self.stable &= inner.stable
        self.saturated |= inner.saturated
        return inner.value


def refine_solve_result(
    base: "SolveResult",
    *,
    matrix: np.ndarray,
    b: np.ndarray,
    rtol,
    max_steps: int,
    solve_correction: Callable[[np.ndarray], "object"],
    solver,
) -> "SolveResult":
    """Run refinement on top of a base analog :class:`SolveResult`.

    ``solve_correction(v)`` must return an object with ``value`` /
    ``attempts`` / ``stable`` / ``saturated`` (a :class:`SolveResult` or
    duck-equivalent) for an ``(n, j)`` block, solved on the resident
    operator.  The returned result carries the refined value, the
    aggregated scalar diagnostics, the refinement metadata and
    ``converged`` set to the contract's verdict; ``solver``'s cost ledger
    is charged the step/dispatch/MAC accounting (the analog/digital work
    split of the contract).
    """
    vector = b.ndim == 1
    big_b = b[:, None] if vector else b
    targets = as_rtol_vector(rtol, big_b.shape[1])
    x0 = base.value[:, None] if vector else base.value
    fold = _CorrectionFold(solve_correction)
    dispatches_before = solver.engine_dispatches
    refined, report = refine_solution(
        matrix, big_b, x0, fold, targets, max_steps=max_steps
    )
    solver.cost.add_refine(
        report.steps, solver.engine_dispatches - dispatches_before, report.macs
    )
    return replace(
        base,
        value=refined[:, 0] if vector else refined,
        attempts=base.attempts + fold.attempts,
        stable=base.stable and fold.stable,
        saturated=base.saturated or fold.saturated,
        converged=report.converged,
        refine_steps=report.steps,
        refined_residual=report.residual,
        per_column_converged=report.per_column_converged,
        refine_residual_trace=report.residual_trace,
        per_column_residual=report.per_column_residual,
        # An unmet contract names its offenders: "which columns" is the
        # first question any operator asks of it.
        worst_columns=(
            None
            if report.converged
            else worst_columns_of(
                report.per_column_residual, ~report.per_column_converged
            )
        ),
    )
