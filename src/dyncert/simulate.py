"""Monte Carlo simulation of the three-time protocol.

Each round picks one of the three probing times k tau T/3 uniformly at
random and scores 1 when the position measured then is positive, which
happens with the Born probability P_k (``protocol.round_probabilities``).
A chunk of m rounds therefore splits over the times as
Multinomial(m; 1/3, 1/3, 1/3), and its m_k rounds at time k score
Binomial(m_k, P_k): the chunk draws those four counts, not its rounds, and
no position is sampled.
"""

import json
from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import protocol
from .errors import DomainError, check_integer

CHUNK_ROUNDS = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    p3_hat: float
    stderr: float
    n_rounds: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p3_hat <= 1.0:
            raise DomainError(f"estimate {self.p3_hat} outside [0, 1]")
        if self.n_rounds < 1:
            raise DomainError("n_rounds must be positive")

    def to_json(self):
        return json.dumps({"seed": self.seed, "n_rounds": self.n_rounds,
                           "p3_hat": self.p3_hat, "stderr": self.stderr})


def _chunk_count(probs, seed, chunk, m):
    """Rounds of one chunk of m that score 1, given the P_k of ``probs``:
    the rounds per probing time, then the scoring rounds among them."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, chunk], dtype=np.uint64)))
    per_time = rng.multinomial(m, [1.0 / 3.0] * 3)
    return int(rng.binomial(per_time, probs).sum())


def run_protocol(state, tau, n_rounds, seed, workers=1):
    """Monte Carlo estimate of P3 for a state at probing ratio tau.

    Rounds are processed in fixed-size chunks, each driven by a Philox
    stream keyed by (seed, chunk index), and the chunk counts are exact
    integers, so the result is bit-for-bit reproducible regardless of the
    worker count or scheduling. ``n_rounds``, ``seed`` (the Philox key) and
    ``workers`` must be integers; anything else raises DomainError before
    any draw.
    """
    check_integer("n_rounds", n_rounds, 1)
    check_integer("seed", seed, 0)
    check_integer("workers", workers, 1)
    probs = protocol.round_probabilities(state, tau)
    plan = [(c, min(CHUNK_ROUNDS, n_rounds - c * CHUNK_ROUNDS))
            for c in range(-(-n_rounds // CHUNK_ROUNDS))]

    def count(share):
        return sum(_chunk_count(probs, seed, c, m) for c, m in share)

    shares = [plan[w::workers] for w in range(min(workers, len(plan)))]
    if len(shares) > 1:
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(len(shares)) as ex:
            counts = list(ex.map(count, shares))
    else:
        counts = [count(plan)]
    mean = sum(counts) / n_rounds
    # 0/1 scores: sample variance n mean (1 - mean) / (n - 1), over n
    stderr = sqrt(mean * (1.0 - mean) / max(n_rounds - 1, 1))
    return McEstimate(mean, stderr, n_rounds, seed)
