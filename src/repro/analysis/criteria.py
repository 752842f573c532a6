"""Validity criteria on schedules (Section 4.5).

A schedule ``S_f`` is valid iff for every call site with descent
``r``: ``S_f(x) - S_f(r(x)) > 0`` for all ``x`` in the domain. With
``S_f = a . x`` this becomes

    ``a1*(x1 - r1(x)) + ... + an*(xn - rn(x)) > 0  for all x``

Each call site yields one :class:`Criterion`. For uniform descents
(``r_k = x_k + c_k``) the left-hand side is the constant
``sum(-a_k * c_k)`` and the criterion is domain-independent; general
affine or free components need the runtime extents (Section 4.5/4.9).

Range-reduction descents (Section 5's looping extension) add binder
variables ``lo(x) <= k <= hi(x)``: the delta is affine in ``(x, k)``,
so it is minimised by pinning each binder to one of its (affine)
bounds and minimising the resulting affine functions over the box,
subject to the ranges being non-empty — a small linear program.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..lang.errors import ScheduleError
from ..lang.typecheck import CheckedFunction
from .affine import Affine
from .descent import DescentFunction, extract_descents


def min_affine_over_box(
    affine: Affine,
    extents: Mapping[str, int],
    constraints: Sequence[Affine] = (),
) -> Optional[float]:
    """``min affine(x)`` over the box, subject to ``c(x) >= 0``.

    Returns ``None`` when the constrained region is empty (a vacuous
    criterion) — including the degenerate boxes: any dimension the
    function (or a constraint) mentions with extent < 1 makes the box
    itself empty. A single-point dimension (extent 1) pins its
    coordinate at 0 and is handled by the ordinary corner formula.
    Without constraints this is the exact corner formula; with
    constraints it is the LP-relaxation minimum — a safe lower bound
    for the integer minimum (the criterion only needs a positive lower
    bound).
    """
    names = sorted(
        set(affine.dims()).union(
            *[set(c.dims()) for c in constraints]
        )
    )
    if any(extents[d] < 1 for d in names if d in extents):
        return None
    if not constraints:
        return float(affine.min_over_box(extents))

    from scipy.optimize import linprog
    if not names:
        for con in constraints:
            if con.const < 0:
                return None
        return float(affine.const)
    objective = [affine.coefficient(d) for d in names]
    a_ub = [[-con.coefficient(d) for d in names] for con in constraints]
    b_ub = [float(con.const) for con in constraints]
    bounds = [(0.0, float(extents[d] - 1)) for d in names]
    result = linprog(
        objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
    )
    if result.status == 2:  # infeasible: the ranges are never entered
        return None
    if not result.success:
        raise ScheduleError(
            f"could not minimise {affine} over the constrained box: "
            f"{result.message}"
        )
    return float(result.fun) + affine.const


@dataclass(frozen=True)
class Criterion:
    """The schedule condition contributed by one recursive call site.

    ``delta(a) = S(x) - S(r(x))`` decomposes into an affine part (over
    the dimensions and any range binders) plus free terms whose worst
    case is ``-|a_k| * (N_k - 1)``.
    """

    dims: Tuple[str, ...]
    descent: DescentFunction

    @property
    def is_uniform(self) -> bool:
        """Are all of the descent's components uniform?"""
        return self.descent.is_uniform

    @property
    def requires_extents(self) -> bool:
        """Does evaluating this criterion need the runtime box?"""
        return not self.is_uniform

    def delta_affine(self, coeffs: Mapping[str, int]) -> Affine:
        """The affine part of ``S(x) - S(r(x))`` for schedule ``a``.

        May mention range-binder names as extra variables; free
        components are handled separately (:meth:`min_delta`).
        """
        total = Affine.constant(0)
        for comp in self.descent.components:
            a_k = coeffs.get(comp.dim, 0)
            if a_k == 0:
                continue
            if comp.is_free:
                continue  # handled by _free_minimum
            assert comp.affine is not None
            difference = Affine.variable(comp.dim) - comp.affine
            total = total + difference.scale(a_k)
        return total

    def _free_minimum(
        self, coeffs: Mapping[str, int], extents: Optional[Mapping[str, int]]
    ) -> int:
        total = 0
        for comp in self.descent.components:
            if not comp.is_free:
                continue
            a_k = coeffs.get(comp.dim, 0)
            if a_k == 0:
                continue
            if extents is None:
                raise ScheduleError(
                    f"criterion for call {self.descent.call} has a free "
                    f"component in dimension {comp.dim!r}; validity needs "
                    f"the runtime extents (or a zero coefficient)"
                )
            # x_k - fresh, both in 0..N_k-1: worst case -(N_k - 1),
            # scaled by |a_k| whatever the sign of a_k.
            total -= abs(a_k) * (extents[comp.dim] - 1)
        return total

    def _binder_candidates(
        self, delta: Affine
    ) -> Tuple[List[Affine], List[Affine]]:
        """Pin every used binder to its bounds.

        Returns the candidate delta functions (one per assignment of
        binders to {lo, hi}) and the non-emptiness constraints
        ``hi - lo >= 0``; an affine function of a binder is extremised
        at one of its ends, so the true minimum is among the
        candidates.
        """
        used = [
            b for b in self.descent.binders
            if delta.coefficient(b.name) != 0
        ]
        constraints = [b.hi - b.lo for b in self.descent.binders]
        if not used:
            return [delta], constraints
        candidates: List[Affine] = []
        for ends in itertools.product((0, 1), repeat=len(used)):
            substitution = {
                b.name: (b.lo if end == 0 else b.hi)
                for b, end in zip(used, ends)
            }
            candidates.append(delta.substitute(substitution))
        return candidates, constraints

    def min_delta(
        self,
        coeffs: Mapping[str, int],
        extents: Optional[Mapping[str, int]] = None,
    ) -> float:
        """``min over x of S(x) - S(r(x))``; needs extents unless uniform."""
        delta = self.delta_affine(coeffs)
        free_part = self._free_minimum(coeffs, extents)
        if delta.is_constant and not self.descent.binders:
            return delta.const + free_part
        if extents is None:
            raise ScheduleError(
                f"criterion for call {self.descent.call} is not "
                f"uniform; validity needs the runtime extents"
            )
        candidates, constraints = self._binder_candidates(delta)
        minima = [
            min_affine_over_box(candidate, extents, constraints)
            for candidate in candidates
        ]
        feasible = [m for m in minima if m is not None]
        if not feasible:
            # The reduction range is empty everywhere: the dependence
            # never materialises.
            return math.inf
        return min(feasible) + free_part

    def is_satisfied(
        self,
        coeffs: Mapping[str, int],
        extents: Optional[Mapping[str, int]] = None,
    ) -> bool:
        """Does schedule ``coeffs`` satisfy this criterion?"""
        return self.min_delta(coeffs, extents) > 0

    def __str__(self) -> str:
        terms = []
        for comp in self.descent.components:
            if comp.is_free:
                terms.append(f"a_{comp.dim}*({comp.dim} - *)")
            else:
                assert comp.affine is not None
                diff = Affine.variable(comp.dim) - comp.affine
                if diff.is_constant and diff.const == 0:
                    continue
                terms.append(f"a_{comp.dim}*({diff})")
        body = " + ".join(terms) if terms else "0"
        text = f"{body} > 0"
        if self.descent.binders:
            text += " for " + ", ".join(
                str(b) for b in self.descent.binders
            )
        return text


def schedule_criteria(func: CheckedFunction) -> Tuple[Criterion, ...]:
    """One criterion per recursive call site of ``func``.

    Memoised on the function (criteria are frozen and depend on the
    body alone): every ``map`` re-derives its schedule set, and the
    descent extraction would otherwise rerun each time.
    """
    criteria = func.__dict__.get("_schedule_criteria")
    if criteria is None:
        dims = func.dim_names
        criteria = func.__dict__["_schedule_criteria"] = tuple(
            Criterion(dims, descent) for descent in extract_descents(func)
        )
    return criteria
