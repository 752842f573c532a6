"""Case study 3: profile HMM database search (Section 6.3).

Profile HMMs represent a family of sequences: one match state per
conserved position (with position-specific residue statistics),
flanked by insert states. Database search runs the forward algorithm
for every database sequence against the profile and ranks by
likelihood.

Layout note: classic Plan7 profiles include *silent* delete states,
which introduce same-position dependencies between states and would
force a schedule ordering within positions. Like the paper's Figure 11
recursion (whose only silent states are start/end), we fold deletions
into match-skip transitions ``M_k -> M_{k+2}`` — the standard
small-model simplification; the recursion then schedules on the
sequence position alone (``S = i``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence as Seq

from ..extensions.hmm import Hmm, HmmBuilder
from ..runtime.engine import Engine, MapResult
from ..runtime.values import PROTEIN, Alphabet, Sequence
from .hmm_algorithms import forward_function


def build_profile_hmm(
    match_emissions: Seq[Dict[str, float]],
    alphabet: Optional[Alphabet] = None,
    name: str = "profile",
    insert_prob: float = 0.05,
    skip_prob: float = 0.03,
    insert_extend: float = 0.4,
) -> Hmm:
    """A match/insert profile of ``len(match_emissions)`` positions."""
    alphabet = alphabet or PROTEIN
    positions = len(match_emissions)
    if positions < 1:
        raise ValueError("a profile needs at least one position")
    builder = HmmBuilder(name, alphabet)
    builder.start("begin")
    background = {c: 1.0 / len(alphabet) for c in alphabet.chars}
    for k in range(1, positions + 1):
        builder.add_state(f"M{k}", match_emissions[k - 1])
        builder.add_state(f"I{k}", background)
    builder.end("finish")

    match_next = 1.0 - insert_prob - skip_prob
    builder.transition("begin", "M1", 1.0 - insert_prob)
    builder.transition("begin", "I1", insert_prob)
    for k in range(1, positions + 1):
        target = f"M{k + 1}" if k < positions else "finish"
        skip_target = f"M{k + 2}" if k + 2 <= positions else "finish"
        builder.transition(f"M{k}", target, match_next)
        builder.transition(f"M{k}", f"I{k}", insert_prob)
        builder.transition(f"M{k}", skip_target, skip_prob)
        builder.transition(f"I{k}", f"I{k}", insert_extend)
        builder.transition(f"I{k}", target, 1.0 - insert_extend)
    return builder.build()


def random_profile(
    positions: int,
    alphabet: Optional[Alphabet] = None,
    seed: int = 0,
    name: str = "profile",
    conservation: float = 0.6,
) -> Hmm:
    """A synthetic family profile: each position strongly prefers one
    residue (``conservation``) over a uniform background."""
    alphabet = alphabet or PROTEIN
    rng = random.Random(seed)
    rest = (1.0 - conservation) / (len(alphabet) - 1)
    emissions = []
    for _ in range(positions):
        favourite = rng.choice(alphabet.chars)
        emissions.append(
            {
                c: (conservation if c == favourite else rest)
                for c in alphabet.chars
            }
        )
    return build_profile_hmm(emissions, alphabet, name=name)


#: The paper's Figure 14 model: "the TK model of 10 positions".
def tk_model(seed: int = 42) -> Hmm:
    """The paper's Figure 14 model: 10 profile positions."""
    return random_profile(10, seed=seed, name="TK")


@dataclass
class ProfileSearchResult:
    likelihoods: List[float]
    map_result: MapResult

    @property
    def seconds(self) -> float:
        """Simulated device time of the search."""
        return self.map_result.seconds

    @property
    def log_likelihoods(self) -> List[float]:
        """Natural-log likelihoods, one per database sequence.

        Read from the log-space table when the engine runs in log
        space: ``likelihoods`` (their ``exp``) underflow to 0.0 past
        roughly 250 residues, these do not.
        """
        if self.map_result.log_values:
            return list(self.map_result.log_values)
        return [
            math.log(p) if p > 0 else float("-inf")
            for p in self.likelihoods
        ]


class ProfileSearch:
    """Profile-vs-database forward search on the simulated GPU."""

    def __init__(
        self,
        profile: Hmm,
        engine: Optional[Engine] = None,
    ) -> None:
        self.engine = engine or Engine(prob_mode="logspace")
        self.profile = profile
        self.func = forward_function()

    def likelihood(self, sequence: Sequence) -> float:
        """Forward likelihood of one sequence under the profile."""
        return self.engine.run(
            self.func, {"h": self.profile, "x": sequence}
        ).value

    def search(self, database: Seq[Sequence]) -> ProfileSearchResult:
        """Score a whole database (one problem per SM)."""
        result = self.engine.map_run(
            self.func,
            {"h": self.profile},
            [{"x": seq} for seq in database],
        )
        return ProfileSearchResult(list(result.values), result)

    def rank(
        self, database: Seq[Sequence], top: int = 10
    ) -> List[Sequence]:
        """Database entries most likely to belong to the family."""
        scores = self.search(database).log_likelihoods
        order = sorted(range(len(database)), key=lambda k: -scores[k])
        return [database[k] for k in order[:top]]
