"""Seeded experiment harness: Monte Carlo and exhaustive estimation of
tuple properties over the few-relator random model, with deterministic CSV
output.

Per-trial seeds are derived from (master seed, length, trial index) by
hashing, so results are reproducible and independent of the worker count;
rows are reduced in trial order.  Exhaustive mode reports exact fractions,
deciding one tuple per orbit under rotating and permuting the relators and
weighting it by the orbit's size; Monte Carlo mode reports the point
estimate with a Wilson 95% interval.  Wall-clock columns default to 0 so
that identical configurations produce byte-identical CSV; timing is
opt-in.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import os
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .abelian import (
    _box_slopes,
    _primitive,
    count_slope_classes,
    enumerate_valid_slopes,
    first_betti_number,
    slope_basis,
)
from .fox import parse_fraction
from .mincond import MinConditionWitness, _tau_insert, check_minimum_condition
from .smallcanc import _lambda, _verdicts
from .words import (
    CyclicWord,
    Presentation,
    count_cyclically_reduced,
    enumerate_cyclically_reduced,
    enumerate_necklaces,
    sample_cyclically_reduced,
)

PREDICATES = ("c-prime", "b1", "min-condition", "slope-classes")
MODES = ("monte-carlo", "exhaustive")

# trials per task sent to a worker process, and per batched piece scan
_CHUNK = 16

# 97.5% normal quantile, fixed to keep output byte-stable across platforms
_WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class PredicateSpec:
    """Which tuple property a run estimates.

    name: c-prime | b1 | min-condition | slope-classes
    lam:  the C'(lambda) threshold (c-prime only)
    k:    class count (slope-classes)
    box:  slope search box (min-condition, slope-classes)
    """

    name: str
    lam: Optional[Fraction] = None
    k: Optional[int] = None
    box: int = 8

    def label(self) -> str:
        if self.name == "c-prime":
            return f"c-prime:{self.lam}"
        if self.name == "b1":
            return "b1"
        if self.name == "min-condition":
            return f"min-condition:box={self.box}"
        if self.name == "slope-classes":
            return f"slope-classes:k={self.k},box={self.box}"
        raise ValueError(f"unknown predicate {self.name}")

    def validate(self, n: int, m: int) -> None:
        if self.name == "c-prime":
            if self.lam is None:
                raise ValueError("c-prime needs 0 < lambda <= 1")
            _lambda(self.lam)
        elif self.name == "b1":
            pass
        elif self.name == "min-condition":
            if m >= n:
                raise ValueError("min-condition needs m < n")
            if self.box < 1:
                raise ValueError("box must be >= 1")
        elif self.name == "slope-classes":
            if self.k is None or self.k < 1 or self.box < 1:
                raise ValueError("slope-classes needs k >= 1 and box >= 1")
        else:
            raise ValueError(f"unknown predicate {self.name}")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    m: int
    lengths: tuple[int, ...]
    predicate: PredicateSpec
    mode: str = "monte-carlo"  # or "exhaustive"
    trials: int = 100
    seed: int = 0
    workers: int = 1
    budget: int = 1_000_000
    timing: bool = False
    out: Optional[str] = None

    def validate(self) -> None:
        if self.n < 2 or self.m < 1:
            raise ValueError("need n >= 2 and m >= 1")
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be positive")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.predicate.validate(self.n, self.m)


@dataclass(frozen=True)
class ExperimentRow:
    predicate: str
    n: int
    m: int
    l: int
    mode: str
    trials: int
    successes: int
    estimate_num: Optional[int]  # exhaustive only
    estimate_den_or_point: str  # denominator, or repr(point estimate)
    ci_lo: Optional[float]
    ci_hi: Optional[float]
    seed: int
    wall_ms: int

    @property
    def estimate(self) -> Fraction | float:
        if self.estimate_num is not None:
            return Fraction(self.estimate_num, int(self.estimate_den_or_point))
        return float(self.estimate_den_or_point)

    def csv_fields(self) -> list[str]:
        """One CSV field per dataclass field: empty for None, repr for a float."""
        values = (getattr(self, f.name) for f in fields(self))
        return ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values]


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRow))


def derive_seed(master: int, length: int, trial: int) -> int:
    """Stable per-trial seed from (master, length, trial), hash-based so it
    is independent of worker scheduling and platform."""
    digest = hashlib.sha256(f"{master}:{length}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    >>> lo, hi = wilson_interval(0, 10)
    >>> lo == 0.0 and 0 < hi < 0.35
    True
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} not in [0, {trials}]")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def sample_tuple(
    n: int, m: int, length: int, rng: random.Random
) -> tuple[CyclicWord, ...]:
    """An ordered m-tuple of independent uniform cyclically reduced words."""
    return tuple(sample_cyclically_reduced(n, length, rng) for _ in range(m))


def evaluate_predicate(
    spec: PredicateSpec, n: int, relators: Sequence[CyclicWord]
) -> bool:
    """Whether the relator tuple has the property `spec` names.

    Every verdict is unchanged when a relator is rotated or the relators
    are permuted, which is what lets exhaustive mode decide one tuple per
    orbit:

    - c-prime: a piece position is (relator, orientation, cyclic offset);
      rotating a relator shifts its offsets and permuting relators renames
      them, a bijection of positions that keeps every cyclic subword and
      every carrying relator's length, so the pieces and the bound match.
    - b1: exponent sums count letters, so rotation keeps each row of the
      exponent-sum matrix and permutation only reorders the rows; the rank
      is unchanged.
    - min-condition: the kernel slopes depend on the rows alone.  For a
      kernel slope phi the heights of a rotated relator are the old ones
      shifted and lowered by a constant (phi(r) = 0), so its lower section
      moves rigidly with the same flanking letters and forced i-roles;
      permuting the relators permutes the i-roles, whose existence and
      distinctness, and so the first passing n-role, stay the same.
    - slope-classes: the valid slopes depend on the rows alone.  A rotation
      shifts the minimal vertices and flat edges of every slope by the same
      amount, and a permutation reorders every signature alike, so two
      slopes share a signature before iff they do after.
    """
    relators = tuple(relators)
    m = len(relators)
    p = Presentation(n, relators)
    if spec.name == "c-prime":
        return _verdicts((relators,), spec.lam)[0]
    if spec.name == "b1":
        return first_betti_number(p) == max(n - m, 0)
    if spec.name == "min-condition":
        # the walk builds each primitive slope only when `any` reaches it
        return any(
            isinstance(check_minimum_condition(relators, phi), MinConditionWitness)
            for phi in _box_slopes(p, spec.box, _primitive)
        )
    if spec.name == "slope-classes":
        slopes = enumerate_valid_slopes(p, spec.box)
        if not slopes:
            return False
        count, _ = count_slope_classes(p, slopes)
        return count >= spec.k
    raise ValueError(f"unknown predicate {spec.name}")


def _successes(
    spec: PredicateSpec, n: int, tuples: Sequence[Sequence[CyclicWord]], weights: Iterable[int]
) -> int:
    """The summed weights of the tuples that satisfy the predicate; c-prime
    decides them all in one batched piece scan."""
    if spec.name == "c-prime":
        verdicts = _verdicts(tuples, spec.lam)
    else:
        verdicts = [evaluate_predicate(spec, n, t) for t in tuples]
    return sum(itertools.compress(weights, verdicts))


def _run_trials(args: tuple[PredicateSpec, int, int, int, int, int, int]) -> int:
    """Successes among Monte Carlo trials lo..hi-1, each sampled from its own
    derived seed."""
    spec, n, m, length, master, lo, hi = args
    tuples = [
        sample_tuple(n, m, length, random.Random(derive_seed(master, length, t)))
        for t in range(lo, hi)
    ]
    return _successes(spec, n, tuples, itertools.repeat(1))


def _space(n: int, m: int, length: int, budget: int) -> int:
    """The number of ordered m-tuples of cyclically reduced length-l words;
    refused when it exceeds the budget."""
    total = count_cyclically_reduced(n, length) ** m
    if total > budget:
        raise ValueError(f"exhaustive space {total} exceeds budget {budget}")
    return total


def _orbits(
    n: int, m: int, length: int, budget: int
) -> tuple[int, Iterator[tuple[tuple[CyclicWord, ...], int]]]:
    """The number of ordered m-tuples, as `_space` counts and budgets it,
    and an iterator over their orbits under rotating any relator and
    permuting the relators: one (representative, orbit size) per multiset
    of rotation classes.

    A multiset with classes of periods p_1..p_m, each class c taken k_c
    times, is the orbit of p_1 * ... * p_m * m! / prod(k_c!) ordered tuples.
    Every orbit is counted once, so the sizes sum to the tuple count; the
    iterator checks that when it is exhausted."""
    total = _space(n, m, length, budget)
    reps, periods = zip(*enumerate_necklaces(n, length))
    orderings = math.factorial(m)

    def orbits() -> Iterator[tuple[tuple[CyclicWord, ...], int]]:
        counted = 0
        for combo in itertools.combinations_with_replacement(range(len(reps)), m):
            repeats = math.prod(math.factorial(len(list(g))) for _, g in itertools.groupby(combo))
            size = math.prod([periods[c] for c in combo]) * orderings // repeats
            counted += size
            yield tuple([reps[c] for c in combo]), size
        if counted != total:
            raise AssertionError(f"orbit sizes sum to {counted}, not {total}")

    return total, orbits()


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """One row per configured length; deterministic for a fixed config.

    Monte Carlo trials go to up to `cfg.workers` processes; exhaustive mode
    runs in the calling process whatever `cfg.workers` says."""
    cfg.validate()
    # a fork pool starts every worker at once: start one pool for the whole
    # run, with no more workers than chunks of trials per length or CPUs
    workers = min(cfg.workers, -(-cfg.trials // _CHUNK), os.cpu_count() or 1)
    if cfg.mode == "exhaustive" or workers == 1:
        return [_experiment_row(cfg, length, map) for length in cfg.lengths]
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [_experiment_row(cfg, length, pool.map) for length in cfg.lengths]


def _experiment_row(cfg: ExperimentConfig, length: int, trial_map) -> ExperimentRow:
    """The row of one length; Monte Carlo chunks of trials go through
    `trial_map`, which yields their success counts in chunk order."""
    t0 = time.perf_counter()
    if cfg.mode == "exhaustive":
        # one predicate call per orbit, weighted by the orbit's size
        trials, orbits = _orbits(cfg.n, cfg.m, length, cfg.budget)
        chunks = iter(lambda: tuple(itertools.islice(orbits, _CHUNK)), ())
        successes = sum(_successes(cfg.predicate, cfg.n, *zip(*chunk)) for chunk in chunks)
        est = Fraction(successes, trials)
        estimate = (est.numerator, str(est.denominator), None, None)
    else:
        trials = cfg.trials
        tasks = [
            (cfg.predicate, cfg.n, cfg.m, length, cfg.seed, lo, min(lo + _CHUNK, trials))
            for lo in range(0, trials, _CHUNK)
        ]
        successes = sum(trial_map(_run_trials, tasks))
        estimate = (None, repr(successes / trials), *wilson_interval(successes, trials))
    wall_ms = int((time.perf_counter() - t0) * 1000) if cfg.timing else 0
    return ExperimentRow(
        cfg.predicate.label(), cfg.n, cfg.m, length, cfg.mode,
        trials, successes, *estimate, cfg.seed, wall_ms,
    )


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(row.csv_fields())
    return buf.getvalue()


@dataclass(frozen=True)
class TauCountResult:
    """Exact counting data for the commutator-insertion map at one length:
    all (n-1)-tuples R_l, the Betti-1 subset R'_l, the tau image size
    (= |R'_l| iff tau is injective), and the ratio |image| / |R_{l+4}| —
    a lower bound on the minimum-condition fraction at length l+4."""

    n: int
    l: int
    r_count: int
    r_prime_count: int
    tau_image_count: int
    r_count_extended: int  # |R_{l+4}|

    @property
    def injective(self) -> bool:
        return self.tau_image_count == self.r_prime_count

    @property
    def image_fraction(self) -> Fraction:
        return Fraction(self.tau_image_count, self.r_count_extended)


def tau_count(n: int, length: int, budget: int = 1_000_000) -> TauCountResult:
    """Enumerate all (n-1)-tuples of cyclically reduced length-l words,
    filter to first Betti number 1, push through tau_deficiency_one, and
    count the image exactly."""
    if n < 2:
        raise ValueError("tau-count needs n >= 2")
    m = n - 1
    r_count = _space(n, m, length, budget)  # refused before any enumeration
    r_prime = 0
    image = set()
    bases: dict[tuple, list] = {}  # the basis depends only on the exponent sums
    for combo in itertools.product(enumerate_cyclically_reduced(n, length), repeat=m):
        key = tuple(tuple([r.exponent_sum(g) for g in range(1, n + 1)]) for r in combo)
        basis = bases.get(key)
        if basis is None:
            basis = bases[key] = slope_basis(Presentation(n, combo))
        if len(basis) != 1:  # first Betti number is not 1
            continue
        r_prime += 1
        image.add(_tau_insert(combo, basis[0]))
    return TauCountResult(
        n=n,
        l=length,
        r_count=r_count,
        r_prime_count=r_prime,
        tau_image_count=len(image),
        r_count_extended=count_cyclically_reduced(n, length + 4) ** m,
    )


# -- config file: `key = value` lines, '#' comments ----------------------
#
# `relators experiment` takes the same keys as flags of the same names, and
# a flag that is given wins over the file's key.


def parse_lengths(text: str) -> tuple[int, ...]:
    """Comma-separated lengths; empty items are skipped."""
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_flag(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


# how each config key's text becomes its value
CONFIG_PARSERS = {
    "n": int,
    "m": int,
    "lengths": parse_lengths,
    "trials": int,
    "seed": int,
    "mode": str,
    "predicate": str,
    "lambda": parse_fraction,
    "k": int,
    "box": int,
    "workers": int,
    "budget": int,
    "timing": _parse_flag,
    "out": str,
}
_CONFIG_KEYS = frozenset(CONFIG_PARSERS)
# the keys that set a PredicateSpec field, and that field's name
_SPEC_FIELDS = {"predicate": "name", "lambda": "lam", "k": "k", "box": "box"}


def build_config(values: Mapping[str, object]) -> ExperimentConfig:
    """The config for parsed key values; a key that is not given keeps its
    dataclass default."""
    for required in ("n", "m", "lengths", "predicate"):
        if required not in values:
            raise ValueError(f"config is missing {required!r}")
    spec = {_SPEC_FIELDS[k]: v for k, v in values.items() if k in _SPEC_FIELDS}
    rest = {k: v for k, v in values.items() if k not in _SPEC_FIELDS}
    return ExperimentConfig(predicate=PredicateSpec(**spec), **rest)


def config_values(text: str) -> dict[str, object]:
    """The parsed value of each key set in a config file; the last line of a
    repeated key wins."""
    texts: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        texts[key] = val.strip()
    return {key: CONFIG_PARSERS[key](val) for key, val in texts.items()}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the simple key-value config format, e.g.::

        predicate = c-prime
        lambda = 1/6
        n = 2
        m = 1
        lengths = 50, 100, 200
        trials = 500
        seed = 7
    """
    return build_config(config_values(text))
