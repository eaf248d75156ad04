"""Seeded Monte Carlo estimates for bunkbed connection probabilities.

Randomness comes from numpy's Philox counter-based generator.  Samples
are split into fixed-size shards; shard b draws from the stream keyed by
(seed, b), so results depend only on (seed, sample count) and are
byte-identical for every worker count.  An edge is open iff its raw
64-bit draw falls below ceil(p * 2^64), the exact integer threshold of
the rational p, so no double rounding is involved.

Each shard runs bit-parallel: column j of its open-bit matrix becomes
one Python int lane with bit i = sample i, and pinned posts get the
all-ones lane.  Reachability starts as all ones at u0 and spreads as
(reach[a] | reach[b]) & lane over every edge until a sweep changes
nothing; the popcounts of reach[v0], reach[v1] and their xor are the
shard's same-level, cross-level and squared-difference totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .enumeration import _spread
from .exact import _bunkbed_layout
from .graphs import Multigraph, Vertex

GENERATOR = "philox4x64-raw"
SHARD_SAMPLES = 1 << 14


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error, sample count, and seed."""

    mean: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class DifferenceEstimates:
    """Paired estimates: same-level, cross-level, and their difference."""

    same_level: Estimate
    cross_level: Estimate
    difference: Estimate


def _threshold(p: Fraction) -> int:
    """Smallest integer T with: raw < T iff raw * den < num * 2^64."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    num, den = p.numerator, p.denominator
    return -((-num << 64) // den)


def _shard_bits(seed: int, shard: int, count: int, columns: int, threshold: int):
    import numpy as np

    key = np.array([seed % (1 << 64), shard], dtype=np.uint64)
    raws = np.random.Philox(key=key).random_raw(count * columns)
    if threshold >= 1 << 64:
        open_bits = np.ones(count * columns, dtype=bool)
    else:
        open_bits = raws < np.uint64(threshold)
    return open_bits.reshape(count, columns)


def _estimate(total: int, total_sq: int, samples: int, seed: int) -> Estimate:
    mean = total / samples
    if samples > 1:
        variance = (total_sq - samples * mean * mean) / (samples - 1)
        variance = max(variance, 0.0)
    else:
        variance = 0.0
    return Estimate(
        mean=mean,
        stderr=math.sqrt(variance / samples),
        samples=samples,
        seed=seed,
    )


def estimate_difference(
    g: Multigraph,
    u: Vertex,
    v: Vertex,
    p: Fraction,
    samples: int,
    seed: int,
    pinned: Optional[Iterable[Vertex]] = None,
    *,
    workers: int = 1,
) -> DifferenceEstimates:
    """Paired estimates of the two endpoint connections and their difference.

    Both indicators are evaluated on the same sampled configuration, so
    the difference estimate inherits their positive correlation.
    """
    g.require_vertex(u)
    g.require_vertex(v)
    if samples < 1:
        raise ValueError("need at least one sample")
    index, base_pairs, items = _bunkbed_layout(g, pinned)
    random_pairs = [pair for _, (pair,) in items]
    threshold = _threshold(p)
    columns = len(items)
    u0 = index[(u, 0)]
    v0 = index[(v, 0)]
    v1 = index[(v, 1)]

    shards = range((samples + SHARD_SAMPLES - 1) // SHARD_SAMPLES)

    def run_shard(shard: int) -> tuple[int, int, int, int]:
        import numpy as np

        start = shard * SHARD_SAMPLES
        count = min(SHARD_SAMPLES, samples - start)
        bits = _shard_bits(seed, shard, count, max(1, columns), threshold)
        # packbits zero-fills the last byte, so bits at or past `count`
        # are closed in every lane and never reached.
        packed = np.packbits(bits[:, :columns].T, axis=1, bitorder="little")
        full = (1 << count) - 1
        edges = [
            (a, b, int.from_bytes(lane.tobytes(), "little"))
            for (a, b), lane in zip(random_pairs, packed)
        ]
        edges += [(a, b, full) for a, b in base_pairs]
        reach = [0] * (2 * g.vertex_count)
        reach[u0] = full
        _spread(reach, edges)
        same_lane, cross_lane = reach[v0], reach[v1]
        same = same_lane.bit_count()
        cross = cross_lane.bit_count()
        return same, cross, same - cross, (same_lane ^ cross_lane).bit_count()

    totals = [0, 0, 0, 0]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_shard, shards))
    else:
        parts = [run_shard(b) for b in shards]
    for part in parts:
        for i, value in enumerate(part):
            totals[i] += value

    same, cross, diff, diff_sq = totals
    return DifferenceEstimates(
        same_level=_estimate(same, same, samples, seed),
        cross_level=_estimate(cross, cross, samples, seed),
        difference=_estimate(diff, diff_sq, samples, seed),
    )


def agreement_check(estimate: Estimate, exact: Fraction, k: float) -> bool:
    """|mean - exact| <= k * stderr; a zero stderr demands exact equality."""
    exact = Fraction(exact)
    if estimate.stderr == 0:
        return Fraction(estimate.mean) == exact
    return abs(Fraction(estimate.mean) - exact) <= Fraction(k) * Fraction(estimate.stderr)


def estimate_to_json_obj(estimate: Estimate) -> dict:
    return {
        "mean": estimate.mean,
        "stderr": estimate.stderr,
        "samples": estimate.samples,
        "seed": estimate.seed,
        "generator": GENERATOR,
    }
