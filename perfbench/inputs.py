"""Seeded inputs of the benchmark's four workloads.

Everything a workload feeds the program comes from here, as plain
data (strings, ints, program texts), and depends only on the workload
seed: the same seed gives byte-identical inputs (``digest`` checks
it). Each draw uses its own ``random.Random`` seeded with a string,
which Python hashes with SHA-512, so the stream does not depend on
``PYTHONHASHSEED`` or on the draws of any other input.

Properties that set how much work an operation does (sequence
lengths, the length profile and order of the database, the mix of
program templates and request kinds, the spread of request sizes) are
fixed per workload; the seed picks the residues and the program
constants. Two seeds therefore load the layers the same way, and the
spread between seeds is the program's, not the inputs'. (The order of
the database matters: the batched native kernel splits the problem
axis into one contiguous block per OpenMP thread, so where the long
sequences sit sets the load balance.)
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

PROTEIN_CHARS = "ARNDCQEGHILKMFPSTWYV"
DNA_CHARS = "acgt"


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _text(rng: random.Random, chars: str, length: int) -> str:
    return "".join(rng.choice(chars) for _ in range(length))


def digest(data: object) -> str:
    """SHA-256 of the canonical JSON form of generated inputs."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- align-large ---------------------------------------------------------------

def align_pairs(seed: int, length: int = 2048, pairs: int = 3) -> List[Tuple[str, str]]:
    """``pairs`` protein (query, target) pairs of ``length`` residues."""
    rng = _rng("align-large", seed)
    return [
        (_text(rng, PROTEIN_CHARS, length), _text(rng, PROTEIN_CHARS, length))
        for _ in range(pairs)
    ]


# -- search-map ----------------------------------------------------------------

def database_lengths(count: int = 64, mean: int = 240) -> List[int]:
    """The fixed length profile of the search database.

    A truncated normal with a 35% spread, the shape of
    ``repro.runtime.sequences.random_database``: the same lengths for
    every seed, so the cells per search do not vary between seeds.
    """
    rng = _rng("search-map", "lengths", count, mean)
    return [max(16, round(rng.gauss(mean, 0.35 * mean))) for _ in range(count)]


def search_database(seed: int, count: int = 64, mean: int = 240) -> List[str]:
    """The protein database of one search-map run: seeded residues
    over the fixed length profile, in its fixed order."""
    rng = _rng("search-map", seed)
    return [_text(rng, PROTEIN_CHARS, n) for n in database_lengths(count, mean)]


# -- compile-cold --------------------------------------------------------------

@dataclass(frozen=True)
class ProgramSpec:
    """One compile-cold operation: a new program and its call.

    ``text`` ends in one ``print`` of ``function``; ``args`` are the
    call's sequence arguments (the texts bound by ``let`` in
    ``text``) and ``cells`` the DP cells the call computes.
    """

    kind: str
    text: str
    function: str
    args: Dict[str, str]
    cells: int


_EDIT = """\
alphabet dna = "acgt"

int d(seq[dna] s, index[s] i, seq[dna] t, index[t] j) =
  if i == 0 then j * {ins}
  else if j == 0 then i * {dele}
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) + {dele}) min (d(i, j-1) + {ins}) min (d(i-1, j-1) + {sub})

let s = "{s}"
let t = "{t}"
print d(s, |s|, t, |t|)
"""

_SMITH_WATERMAN = """\
alphabet dna = "acgt"

matrix score[dna, dna] {{
  header a c g t
{rows}
}}

int sw(matrix[dna, dna] m, seq[dna] q, index[q] i,
       seq[dna] d, index[d] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else 0 max (sw(i-1, j-1) + m[q[i-1], d[j-1]])
         max (sw(i-1, j) - {down})
         max (sw(i, j-1) - {right})

let q = "{q}"
let d = "{d}"
print sw(score, q, |q|, d, |d|)
"""

_FORWARD = """\
alphabet dna = "acgt"

hmm h [dna] {{
  state b : start
  state x emits {{ {ex} }}
  state y emits {{ {ey} }}
  state e : end
  trans b -> x : {bx}
  trans b -> y : {by}
  trans x -> x : {xx}
  trans x -> y : {xy}
  trans x -> e : {xe}
  trans y -> y : {yy}
  trans y -> x : {yx}
  trans y -> e : {ye}
}}

prob fw(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * fw(t.start, i - 1)) * {scale}

let x = "{x}"
print fw(h, h.end, x, |x|)
"""

#: Program templates, cycled in this order so every seed runs the
#: same mix: edit distance with seeded costs, Smith-Waterman with
#: seeded gaps and matrix, and an HMM forward with a seeded model and
#: per-position scale (the paper's three application families).
#: Matrices and models are run-time context, not part of a function's
#: canonical form, so each template also has seeded constants in the
#: function body; those are what make every program new.
TEMPLATES = ("edit", "smith-waterman", "forward")


def _split(rng: random.Random, parts: int, total: int = 1000) -> List[str]:
    """``parts`` probabilities in thousandths summing exactly to 1."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0, *cuts, total]
    return [f"{(hi - lo) / total:.3f}" for lo, hi in zip(edges, edges[1:])]


def _program(kind: str, rng: random.Random, length: int) -> Tuple[tuple, ProgramSpec]:
    if kind == "edit":
        costs = (rng.randint(1, 60), rng.randint(1, 60), rng.randint(1, 60))
        s, t = _text(rng, DNA_CHARS, length), _text(rng, DNA_CHARS, length)
        text = _EDIT.format(ins=costs[0], dele=costs[1], sub=costs[2], s=s, t=t)
        return costs, ProgramSpec(kind, text, "d", {"s": s, "t": t}, length * length)
    if kind == "smith-waterman":
        scores = [
            [rng.randint(1, 9) if r == c else -rng.randint(1, 9) for c in range(4)]
            for r in range(4)
        ]
        down, right = rng.randint(1, 20), rng.randint(1, 20)
        rows = "\n".join(
            f"  row {ch} : " + " ".join(f"{v:2d}" for v in row)
            for ch, row in zip(DNA_CHARS, scores)
        )
        q, d = _text(rng, DNA_CHARS, length), _text(rng, DNA_CHARS, length)
        text = _SMITH_WATERMAN.format(rows=rows, down=down, right=right, q=q, d=d)
        return (down, right), ProgramSpec(kind, text, "sw", {"q": q, "d": d}, length * length)
    ex, ey = _split(rng, 4), _split(rng, 4)
    bx, by = _split(rng, 2)
    xx, xy, xe = _split(rng, 3)
    yy, yx, ye = _split(rng, 3)
    scale = f"{rng.randint(5000, 9999) / 10000:.4f}"
    x = _text(rng, DNA_CHARS, length)
    text = _FORWARD.format(
        ex=", ".join(f"{c}: {p}" for c, p in zip(DNA_CHARS, ex)),
        ey=", ".join(f"{c}: {p}" for c, p in zip(DNA_CHARS, ey)),
        bx=bx, by=by, xx=xx, xy=xy, xe=xe, yy=yy, yx=yx, ye=ye,
        scale=scale, x=x,
    )
    return (scale,), ProgramSpec(kind, text, "fw", {"x": x}, 4 * (length + 1))


def compile_cold_programs(seed: object, length: int = 32) -> Iterator[ProgramSpec]:
    """An endless stream of new programs, each on a small input.

    Every program's function-body constants differ from every earlier
    program of its template in the stream, so each canonical form (and
    each generated C source) is new: no cache keyed on the function's
    content can answer it.
    """
    seen = set()
    index = 0
    while True:
        kind = TEMPLATES[index % len(TEMPLATES)]
        attempt = 0
        while True:
            rng = _rng("compile-cold", seed, index, attempt)
            key, spec = _program(kind, rng, length)
            if (kind, key) not in seen:
                seen.add((kind, key))
                break
            attempt += 1
        yield spec
        index += 1


# -- serve-mixed ---------------------------------------------------------------

#: The one program every serve-mixed request runs: a local alignment
#: score against a +2/-1 matrix with gap 2 (``sw``) and a unit-cost
#: edit distance (``ed``).
SERVE_PROGRAM = """\
alphabet dna = "acgt"

matrix m[dna, dna] {
  header a c g t
  row a :  2 -1 -1 -1
  row c : -1  2 -1 -1
  row g : -1 -1  2 -1
  row t : -1 -1 -1  2
}

int sw(matrix[dna, dna] m, seq[dna] q, index[q] i,
       seq[dna] d, index[d] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else 0 max (sw(i-1, j-1) + m[q[i-1], d[j-1]])
         max (sw(i-1, j) - 2)
         max (sw(i, j-1) - 2)

int ed(seq[dna] s, index[s] i, seq[dna] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then ed(i-1, j-1)
  else (ed(i-1, j) min ed(i, j-1) min ed(i-1, j-1)) + 1
"""

SERVE_MATCH, SERVE_MISMATCH, SERVE_GAP = 2, -1, 2


@dataclass(frozen=True)
class Request:
    """One serve-mixed request, sent at its ``event``'s due time.

    ``sw`` requests score two reads of one fixed length (whole-table
    max) and share one batch group key. ``ed`` requests are edit
    distances with explicit result coordinates, so the coordinates
    enter the group key and they do not coalesce.
    """

    event: int
    function: str
    args: Dict[str, object]
    reduce: object
    cells: int

    @property
    def fixed(self) -> bool:
        return self.function == "sw"


#: Fixed-length reads sent together at each even event.
BURST = 4


def serve_shapes(points: int) -> List[Tuple[int, int]]:
    """Distinct (rows, columns) domain shapes of about ``points`` cells,
    from square to 4 : 1 either way."""
    side = points ** 0.5
    shapes = set()
    for rows in range(round(side / 2), round(side * 2) + 1):
        cols = round(points / rows)
        shapes.update({(rows, cols), (cols, rows)})
    return sorted(shapes)


def serve_requests(seed: object, read_length: int = 48, points: int = 1600) -> Iterator[Request]:
    """The endless request stream: even events send a burst of
    :data:`BURST` fixed-length reads, odd events one edit distance on
    a domain of about ``points`` cells.

    A burst coalesces into one batch, so the batcher and the batched
    native rung do real work, and its reads share one latency. The
    variable-length pairs walk a seeded order of :func:`serve_shapes`,
    so no domain repeats within ``len(serve_shapes(points))`` of them
    (81 for the default): each new domain (at most 4096 points) pays
    the verifier's brute-force edge walk, and all cost about the same.
    With four reads per variable-length request, the median lies among
    reads that did not overlap a variable-length request (whose
    pure-Python verification holds the interpreter lock) and the 90th
    percentile among the variable-length requests.
    """
    shapes = serve_shapes(points)
    _rng("serve-mixed", seed, "shapes").shuffle(shapes)
    event = 0
    while True:
        rng = _rng("serve-mixed", seed, event)
        if event % 2 == 0:
            for _ in range(BURST):
                q = _text(rng, DNA_CHARS, read_length)
                d = _text(rng, DNA_CHARS, read_length)
                yield Request(event, "sw", {"q": q, "d": d}, "max", read_length * read_length)
        else:
            rows, cols = shapes[(event // 2) % len(shapes)]
            a, b = rows - 1, cols - 1
            s, t = _text(rng, DNA_CHARS, a), _text(rng, DNA_CHARS, b)
            yield Request(event, "ed", {"s": s, "i": a, "t": t, "j": b}, None, a * b)
        event += 1
