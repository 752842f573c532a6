"""Independent references the benchmark checks every output against.

None of these runs the schedule solver, the code generators or the
native runtime, so a fault in those layers shows as a mismatch:

* align-large — ``repro.apps.baselines.ssearch.sw_score``, the
  anti-diagonal NumPy Smith-Waterman of the ssearch baseline;
* search-map — :func:`log_forward`, a forward recursion in log space
  (``hmm_tools.forward_reference`` works in direct space and
  underflows past about 300 residues);
* serve-mixed — plain-Python :func:`edit_distance` and
  :func:`local_alignment_score`;
* compile-cold — the memoised recursive interpreter
  (``repro.resilience.reference.serial_reference_run``).

All references run outside the timed interval.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

#: Relative tolerance for probabilities: the kernels and the
#: references sum in different orders, so the last digits may differ.
PROB_REL_TOL = 1e-9
#: Below this a likelihood is subnormal or zero in double precision,
#: where a relative comparison means nothing.
PROB_ABS_TOL = 1e-300


def edit_distance(s: str, t: str) -> int:
    """Unit-cost Levenshtein distance, one row at a time."""
    previous = list(range(len(t) + 1))
    for i, a in enumerate(s, 1):
        current = [i]
        for j, b in enumerate(t, 1):
            if a == b:
                current.append(previous[j - 1])
            else:
                current.append(
                    min(previous[j], current[j - 1], previous[j - 1]) + 1
                )
        previous = current
    return previous[-1]


def local_alignment_score(
    q: str, d: str, match: int, mismatch: int, gap: int
) -> int:
    """Smith-Waterman with a match/mismatch score and a linear gap:
    the best cell anywhere in the table."""
    best = 0
    previous = [0] * (len(d) + 1)
    for a in q:
        current = [0]
        for j, b in enumerate(d, 1):
            cell = max(
                0,
                previous[j - 1] + (match if a == b else mismatch),
                previous[j] - gap,
                current[j - 1] - gap,
            )
            current.append(cell)
            best = max(best, cell)
        previous = current
    return best


def log_forward(hmm, text: str) -> float:
    """Natural log of the forward likelihood of ``text`` under ``hmm``.

    The recursion of the paper's Figure 11 — the end state is silent,
    every other state emits ``text[i-1]`` at position ``i`` — summed
    with ``logaddexp`` over a dense transition matrix, so it never
    underflows.
    """
    n = len(hmm.states)
    with np.errstate(divide="ignore"):
        log_trans = np.full((n, n), -np.inf)
        for t in hmm.transitions:
            log_trans[t.source, t.target] = np.logaddexp(
                log_trans[t.source, t.target], math.log(t.prob)
            )
        chars = hmm.alphabet.chars
        log_emit = np.log(
            np.array(
                [[s.emission(c) for c in chars] for s in hmm.states]
            )
        )
    for s in hmm.states:
        if s.is_end:
            log_emit[s.index, :] = 0.0
    column = {c: k for k, c in enumerate(chars)}
    previous = np.full(n, -np.inf)
    previous[hmm.start_state.index] = 0.0
    for ch in text:
        incoming = np.logaddexp.reduce(previous[:, None] + log_trans, axis=0)
        previous = incoming + log_emit[:, column[ch]]
    return float(previous[hmm.end_state.index])


def likelihood_matches(value: float, log_reference: float) -> bool:
    """Does a direct-space likelihood equal ``exp(log_reference)``?"""
    reference = math.exp(log_reference) if log_reference > -745.2 else 0.0
    return math.isclose(
        value, reference, rel_tol=PROB_REL_TOL, abs_tol=PROB_ABS_TOL
    )


def smith_waterman_scores(pairs: Sequence, matrix, gap: int) -> list:
    """ssearch-baseline scores of protein ``(query, target)`` pairs of
    ``repro`` sequences under ``matrix``."""
    from repro.apps.baselines.ssearch import sw_score

    return [
        sw_score(
            q, d, matrix.scores,
            matrix.row_alphabet.index_table(),
            matrix.col_alphabet.index_table(),
            gap=gap,
        )
        for q, d in pairs
    ]


def program_reference(spec) -> object:
    """The interpreter's value of a compile-cold program's ``print``.

    The program text is parsed and checked again here; the call is
    then evaluated by the memoised recursive interpreter, which
    shares no code with scheduling, lowering or native execution.
    """
    from repro.extensions.hmm import Hmm
    from repro.extensions.submatrix import SubstitutionMatrix
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import check_program
    from repro.resilience.reference import serial_reference_run
    from repro.runtime.values import Alphabet, Sequence as Seq

    checked = check_program(parse_program(spec.text))
    alphabets = {
        name: Alphabet(name, chars)
        for name, chars in checked.alphabets.items()
    }
    dna = alphabets["dna"]
    bindings: Dict[str, object] = {
        name: Seq(text, dna) for name, text in spec.args.items()
    }
    if spec.kind == "forward":
        hmm = Hmm.from_decl(checked.hmms["h"], alphabets)
        bindings["h"] = hmm
        at = {"s": hmm.end_state.index, "i": len(spec.args["x"])}
    else:
        first, second = spec.args.values()
        at = {"i": len(first), "j": len(second)}
        if spec.kind == "smith-waterman":
            bindings["m"] = SubstitutionMatrix.from_decl(
                checked.matrices["score"], alphabets
            )
    return serial_reference_run(
        checked.function(spec.function), bindings, at=at
    )


def values_match(value: object, reference: object) -> bool:
    """Exact for integers, :data:`PROB_REL_TOL` for probabilities."""
    if isinstance(reference, float) or isinstance(value, float):
        return math.isclose(
            float(value), float(reference),
            rel_tol=PROB_REL_TOL, abs_tol=PROB_ABS_TOL,
        )
    return value == reference
