import csv
import io
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relators import experiment, smallcanc
from relators.abelian import abelianization_matrix, enumerate_kernel_slopes, first_betti_number
from relators.experiment import (
    CSV_HEADER,
    MODES,
    PREDICATES,
    ExperimentConfig,
    ExperimentRow,
    PredicateSpec,
    TauCountResult,
    derive_seed,
    evaluate_predicate,
    parse_config,
    parse_fraction,
    rows_to_csv,
    run_experiment,
    sample_tuple,
    tau_count,
    wilson_interval,
)
from relators.mincond import MinConditionWitness, check_minimum_condition, tau_deficiency_one
from relators.smallcanc import _verdicts
from relators.words import (
    CyclicWord,
    Presentation,
    count_cyclically_reduced,
    enumerate_cyclically_reduced,
    enumerate_necklaces,
    parse_cyclic_word,
    sample_cyclically_reduced,
)


def test_derive_seed_frozen():
    # hash-derived, so any platform or refactor that changes these breaks
    # reproducibility of every published run
    assert derive_seed(0, 3, 0) == 11607376061417288873
    assert derive_seed(0, 3, 1) == 1909054318005221268
    assert derive_seed(7, 100, 42) == 1848276623568420282
    assert derive_seed(1, 1, 1) == 11190952098382641382


def test_derive_seed_distinct_over_grid():
    seen = {
        derive_seed(master, length, trial)
        for master in range(3)
        for length in range(1, 5)
        for trial in range(20)
    }
    assert len(seen) == 3 * 4 * 20


def test_wilson_boundaries_are_exact():
    lo, hi = wilson_interval(0, 200)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(200, 200)
    assert hi == 1.0 and 0.95 < lo < 1
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


@pytest.mark.parametrize("successes", [5, -1])
def test_wilson_refuses_successes_outside_the_trials(successes):
    with pytest.raises(ValueError, match=rf"^successes {successes} not in \[0, 3\]$"):
        wilson_interval(successes, 3)


def test_wilson_endpoints_solve_score_quadratic():
    z = 1.959963984540054
    for successes, trials in ((7, 50), (1, 10), (33, 40), (250, 500)):
        phat = successes / trials
        for p in wilson_interval(successes, trials):
            assert math.isclose(
                (phat - p) ** 2, z * z * p * (1 - p) / trials, rel_tol=1e-9
            )


def test_wilson_contains_estimate_and_tightens():
    lo1, hi1 = wilson_interval(30, 100)
    lo2, hi2 = wilson_interval(300, 1000)
    assert lo1 < 0.3 < hi1 and lo2 < 0.3 < hi2
    assert hi2 - lo2 < hi1 - lo1


def test_sample_tuple_is_seed_deterministic():
    a = sample_tuple(3, 2, 9, random.Random(5))
    b = sample_tuple(3, 2, 9, random.Random(5))
    c = sample_tuple(3, 2, 9, random.Random(6))
    assert a == b
    assert a != c
    assert len(a) == 2
    assert all(len(w) == 9 and w.rank == 3 for w in a)


def test_evaluate_predicate_c_prime():
    spec = PredicateSpec("c-prime", lam=Fraction(1, 6))
    # a lone letter has no piece at all; a commutator already shares single
    # letters with its inverse text, and 6 * 1 >= 4
    assert evaluate_predicate(spec, 2, (parse_cyclic_word("x1", 2),))
    assert not evaluate_predicate(spec, 2, (parse_cyclic_word("x1 x2 X1 X2", 2),))
    power = (parse_cyclic_word("x1 x1 x1 x1 x1 x1 x1 x1", 2),)
    assert not evaluate_predicate(spec, 2, power)
    assert evaluate_predicate(
        PredicateSpec("c-prime", lam=Fraction(1, 2)), 2, (parse_cyclic_word("x1 x2 X1 X2", 2),)
    )


def test_evaluate_predicate_b1():
    spec = PredicateSpec("b1")
    # x1 x2 abelianizes onto a rank-1 row: b1 = 1 = max(n - m, 0)
    assert evaluate_predicate(spec, 2, (parse_cyclic_word("x1 x2", 2),))
    # a commutator dies under abelianization: b1 = 2 != 1
    assert not evaluate_predicate(spec, 2, (parse_cyclic_word("x1 x2 X1 X2", 2),))


def test_evaluate_predicate_min_condition():
    spec = PredicateSpec("min-condition", box=4)
    assert evaluate_predicate(spec, 2, (parse_cyclic_word("x1 x2 X1 X2", 2),))
    doubled = (parse_cyclic_word("x1 x2 X1 X2 x1 x2 X1 X2", 2),)
    assert not evaluate_predicate(spec, 2, doubled)


def test_lazy_min_condition_checks_the_listed_slopes(monkeypatch):
    # the old verdict: any(...) over the full sorted list of primitive slopes
    seen = []

    def counting(relators, phi):
        seen.append(phi.values)
        return check_minimum_condition(relators, phi)

    monkeypatch.setattr(experiment, "check_minimum_condition", counting)
    verdicts = []
    for n, m, length, box in ((2, 1, 6, 3), (3, 1, 16, 4), (4, 2, 12, 4), (3, 2, 10, 2)):
        spec = PredicateSpec("min-condition", box=box)
        for trial in range(25):
            tup = sample_tuple(n, m, length, random.Random(derive_seed(3, length, trial)))
            listed = enumerate_kernel_slopes(Presentation(n, tup), box, primitive_only=True)
            checked = []
            for phi in listed:
                checked.append(phi.values)
                if isinstance(check_minimum_condition(tup, phi), MinConditionWitness):
                    break
            want = any(
                isinstance(check_minimum_condition(tup, phi), MinConditionWitness)
                for phi in listed
            )
            seen.clear()
            assert evaluate_predicate(spec, n, tup) == want
            assert seen == checked  # the same calls, in the same order
            verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


def test_evaluate_predicate_slope_classes():
    # x1 x2 pins the slope line (t, -t): two classes in any box; the
    # commutator annihilates everything, giving four classes already at box 2
    simple = (parse_cyclic_word("x1 x2", 2),)
    assert evaluate_predicate(PredicateSpec("slope-classes", k=2, box=2), 2, simple)
    assert not evaluate_predicate(PredicateSpec("slope-classes", k=3, box=2), 2, simple)
    commutator = (parse_cyclic_word("x1 x2 X1 X2", 2),)
    assert evaluate_predicate(PredicateSpec("slope-classes", k=4, box=2), 2, commutator)
    assert not evaluate_predicate(
        PredicateSpec("slope-classes", k=5, box=2), 2, commutator
    )


def test_predicate_validation():
    with pytest.raises(ValueError):
        PredicateSpec("c-prime").validate(2, 1)
    with pytest.raises(ValueError):
        PredicateSpec("c-prime", lam=Fraction(3, 2)).validate(2, 1)
    with pytest.raises(ValueError):
        PredicateSpec("min-condition").validate(2, 2)  # m >= n
    with pytest.raises(ValueError):
        PredicateSpec("slope-classes", box=2).validate(2, 1)  # k missing
    with pytest.raises(ValueError):
        PredicateSpec("slope-classes", k=0, box=2).validate(2, 1)
    with pytest.raises(ValueError):
        PredicateSpec("nope").validate(2, 1)
    with pytest.raises(ValueError):
        PredicateSpec("nope").label()
    assert PredicateSpec("c-prime", lam=Fraction(1, 6)).label() == "c-prime:1/6"
    assert PredicateSpec("min-condition", box=8).label() == "min-condition:box=8"


def test_exhaustive_min_condition_fractions_frozen():
    cfg = ExperimentConfig(
        n=2,
        m=1,
        lengths=(3, 4, 5),
        predicate=PredicateSpec("min-condition", box=8),
        mode="exhaustive",
    )
    rows = run_experiment(cfg)
    assert [(r.successes, r.trials) for r in rows] == [(24, 28), (72, 84), (240, 244)]
    assert [r.estimate for r in rows] == [
        Fraction(6, 7),
        Fraction(6, 7),
        Fraction(60, 61),
    ]
    assert all(r.ci_lo is None and r.ci_hi is None for r in rows)


def ordered_exhaustive_rows(cfg):
    """Oracle: exhaustive rows from every ordered tuple, in lexicographic
    order and chunks of 16, one predicate verdict per tuple."""
    rows = []
    for length in cfg.lengths:
        trials = experiment._space(cfg.n, cfg.m, length, cfg.budget)
        tuples = itertools.product(enumerate_cyclically_reduced(cfg.n, length), repeat=cfg.m)
        successes = 0
        for chunk in iter(lambda: tuple(itertools.islice(tuples, 16)), ()):
            if cfg.predicate.name == "c-prime":
                successes += sum(_verdicts(chunk, cfg.predicate.lam))
            else:
                successes += sum(evaluate_predicate(cfg.predicate, cfg.n, t) for t in chunk)
        est = Fraction(successes, trials)
        rows.append(
            ExperimentRow(
                cfg.predicate.label(), cfg.n, cfg.m, length, cfg.mode, trials, successes,
                est.numerator, str(est.denominator), None, None, cfg.seed, 0,
            )
        )
    return rows


_THIRD = PredicateSpec("c-prime", lam=Fraction(1, 3))
_HALF = PredicateSpec("c-prime", lam=Fraction(1, 2))
_B1 = PredicateSpec("b1")
_MIN = PredicateSpec("min-condition", box=3)
_CLASSES = PredicateSpec("slope-classes", k=2, box=2)
# (predicate, n, m, lengths): spaces of at most 20,000 ordered tuples
ORBIT_GRID = [
    (_THIRD, 2, 1, (6, 7, 8)),
    (_HALF, 2, 2, (3, 4)),
    (_HALF, 3, 2, (2, 3)),
    (_HALF, 2, 3, (2,)),
    (_HALF, 4, 3, (1,)),
    (_B1, 2, 1, (7, 8)),
    (_B1, 2, 2, (3, 4)),
    (_B1, 3, 2, (3,)),
    (_B1, 2, 3, (1, 2)),
    (_B1, 4, 3, (1,)),
    (_MIN, 2, 1, (5, 6)),
    (_MIN, 3, 1, (4, 5)),
    (_MIN, 3, 2, (2,)),
    (_MIN, 4, 3, (1,)),
    (_CLASSES, 2, 1, (5, 6)),
    (PredicateSpec("slope-classes", k=3, box=2), 3, 1, (4,)),
    (_CLASSES, 3, 2, (2,)),
    (_CLASSES, 2, 3, (2,)),
]


@pytest.mark.parametrize(
    "spec,n,m,lengths", ORBIT_GRID,
    ids=lambda v: v.label() if isinstance(v, PredicateSpec) else str(v),
)
def test_orbit_rows_equal_ordered_enumeration(spec, n, m, lengths):
    cfg = ExperimentConfig(n=n, m=m, lengths=lengths, predicate=spec, mode="exhaustive", budget=20_000)
    rows = run_experiment(cfg)
    assert rows_to_csv(rows).encode() == rows_to_csv(ordered_exhaustive_rows(cfg)).encode()


def test_orbit_sizes_are_checked_against_the_tuple_count(monkeypatch):
    # a lost rotation class leaves the orbit sizes short of count**m
    lossy = lambda n, length: itertools.islice(enumerate_necklaces(n, length), 1, None)
    monkeypatch.setattr(experiment, "enumerate_necklaces", lossy)
    cfg = ExperimentConfig(n=2, m=2, lengths=(3,), predicate=_B1, mode="exhaustive")
    with pytest.raises(AssertionError, match="orbit sizes sum to .*, not 784"):
        run_experiment(cfg)


@st.composite
def moved_tuples(draw, below_rank):
    """(n, relators, the relators rotated and permuted): fresh words, proper
    powers and repeated relators; m < n when `below_rank`."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1 if below_rank else 3))
    relators = []
    for _ in range(m):
        kind = draw(st.sampled_from(("fresh", "power", "repeat")))
        seed = draw(st.integers(0, 2**32))
        if kind == "repeat" and relators:
            relators.append(relators[draw(st.integers(0, len(relators) - 1))])
        elif kind == "power":
            root = sample_cyclically_reduced(n, draw(st.integers(1, 4)), seed)
            relators.append(CyclicWord(root.letters * draw(st.integers(2, 3)), n))
        else:
            relators.append(sample_cyclically_reduced(n, draw(st.integers(1, 10)), seed))
    order = draw(st.permutations(range(m)))
    shifts = draw(st.lists(st.integers(0, 40), min_size=m, max_size=m))
    moved = tuple(relators[i].rotation(k) for i, k in zip(order, shifts))
    return n, tuple(relators), moved


_INVARIANT_SPECS = {
    "c-prime": st.sampled_from([Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]).map(
        lambda lam: PredicateSpec("c-prime", lam=lam)
    ),
    "b1": st.just(_B1),
    "min-condition": st.integers(1, 3).map(lambda box: PredicateSpec("min-condition", box=box)),
    "slope-classes": st.tuples(st.integers(1, 4), st.integers(1, 2)).map(
        lambda kb: PredicateSpec("slope-classes", k=kb[0], box=kb[1])
    ),
}


@pytest.mark.parametrize("name", PREDICATES)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_predicate_invariant_under_rotation_and_relator_order(name, data):
    spec = data.draw(_INVARIANT_SPECS[name])
    n, relators, moved = data.draw(moved_tuples(name in ("min-condition", "slope-classes")))
    verdict = evaluate_predicate(spec, n, relators)
    assert evaluate_predicate(spec, n, moved) == verdict
    if name == "c-prime":  # the batched scan the exhaustive path runs
        assert _verdicts([relators, moved], spec.lam) == [verdict, verdict]


def test_float_lambda_raises_one_type_error():
    # run_experiment once died on lam.denominator while evaluate_predicate
    # took Fraction(0.5); every c-prime entry now raises the lambda rule's error
    spec = PredicateSpec("c-prime", lam=0.5)
    messages = []
    for mode in MODES:
        cfg = ExperimentConfig(n=2, m=1, lengths=(3,), predicate=spec, mode=mode, trials=4)
        with pytest.raises(TypeError) as info:
            run_experiment(cfg)
        messages.append(str(info.value))
    with pytest.raises(TypeError) as info:
        evaluate_predicate(spec, 2, (parse_cyclic_word("x1 x2", 2),))
    messages.append(str(info.value))
    assert messages == ["lambda must be an int or Fraction, not float: 0.5"] * 3


def test_exhaustive_budget_guard():
    cfg = ExperimentConfig(
        n=2,
        m=1,
        lengths=(12,),
        predicate=PredicateSpec("b1"),
        mode="exhaustive",
        budget=1000,
    )
    with pytest.raises(ValueError, match="budget"):
        run_experiment(cfg)


def test_monte_carlo_impossible_event_row():
    # at n=2, l=12 every possible two-letter subword occurs, so some piece is
    # always >= 2 = 12/6 and C'(1/6) never holds
    cfg = ExperimentConfig(
        n=2,
        m=1,
        lengths=(12,),
        predicate=PredicateSpec("c-prime", lam=Fraction(1, 6)),
        trials=60,
        seed=3,
    )
    (row,) = run_experiment(cfg)
    assert row.successes == 0
    assert row.ci_lo == 0.0
    assert row.estimate == 0.0
    assert row.estimate_num is None
    assert row.wall_ms == 0  # timing disabled by default
    assert row.predicate == "c-prime:1/6"


def test_monte_carlo_agrees_with_exhaustive():
    spec = PredicateSpec("min-condition", box=8)
    (mc,) = run_experiment(
        ExperimentConfig(n=2, m=1, lengths=(3,), predicate=spec, trials=400, seed=11)
    )
    assert mc.ci_lo <= 6 / 7 <= mc.ci_hi


def test_csv_identical_across_worker_counts():
    def csv_for(workers):
        cfg = ExperimentConfig(
            n=2,
            m=1,
            lengths=(8, 12),
            predicate=PredicateSpec("c-prime", lam=Fraction(1, 6)),
            trials=64,
            seed=5,
            workers=workers,
        )
        return rows_to_csv(run_experiment(cfg))

    assert csv_for(1).encode() == csv_for(8).encode()


def test_chunked_c_prime_matches_per_trial_replay():
    # 37 trials: two full chunks of 16 and a last chunk of 5
    spec = PredicateSpec("c-prime", lam=Fraction(1, 4))
    cfg = ExperimentConfig(n=3, m=2, lengths=(10, 16), predicate=spec, trials=37, seed=9)
    for row in run_experiment(cfg):
        replay = sum(
            evaluate_predicate(spec, 3, sample_tuple(3, 2, row.l, random.Random(derive_seed(9, row.l, t))))
            for t in range(37)
        )
        assert row.successes == replay
        assert 0 < replay < 37


@pytest.mark.parametrize(
    "mode,trials,calls",
    [("monte-carlo", 37, [3, 3]), ("monte-carlo", 32, [2, 2]), ("exhaustive", 1, [1, 2])],
)
def test_one_piece_scan_per_chunk(monkeypatch, mode, trials, calls):
    # exhaustive n=2 lengths 3, 4: 28 and 84 tuples in 12 and 26 rotation
    # classes, one scanned representative each
    sizes = []
    scan = smallcanc._pair_maxima_batch
    monkeypatch.setattr(smallcanc, "_pair_maxima_batch", lambda ts: sizes.append(len(ts)) or scan(ts))
    counts = []
    for length in (3, 4):
        sizes.clear()
        cfg = ExperimentConfig(
            n=2, m=1, lengths=(length,), predicate=PredicateSpec("c-prime", lam=Fraction(1, 6)),
            mode=mode, trials=trials, seed=2,
        )
        (row,) = run_experiment(cfg)
        scanned = row.trials if mode == "monte-carlo" else len(list(enumerate_necklaces(2, length)))
        assert sum(sizes) == scanned and max(sizes) <= 16
        counts.append(len(sizes))
    assert counts == calls


@pytest.mark.parametrize("trials,cpus,pool", [(40, 8, 3), (200, 2, 2), (16, 8, None)])
def test_worker_pool_is_capped(monkeypatch, trials, cpus, pool):
    # ceil(trials / 16) chunks and the CPU count bound the pool; one worker
    # runs in this process
    requests = []

    class SerialPool:
        """Records max_workers and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            requests.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)

    def csv_for(workers, lengths=(8,)):
        cfg = ExperimentConfig(
            n=2, m=1, lengths=lengths, predicate=PredicateSpec("b1"),
            trials=trials, seed=3, workers=workers,
        )
        return rows_to_csv(run_experiment(cfg))

    assert csv_for(10_000) == csv_for(1)
    assert requests == ([] if pool is None else [pool])
    # one pool serves every length of a run
    requests.clear()
    assert csv_for(10_000, (4, 8, 12)) == csv_for(1, (4, 8, 12))
    assert requests == ([] if pool is None else [pool])


def test_csv_shape():
    cfg = ExperimentConfig(
        n=2, m=1, lengths=(4,), predicate=PredicateSpec("b1"), trials=20, seed=1
    )
    text = rows_to_csv(run_experiment(cfg))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == (
        "predicate,n,m,l,mode,trials,successes,"
        "estimate_num,estimate_den_or_point,ci_lo,ci_hi,seed,wall_ms"
    )
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 2
    assert len(parsed[1]) == len(CSV_HEADER.split(","))
    assert parsed[1][0] == "b1"


def test_parse_config_full():
    cfg = parse_config(
        """
        # estimate the small-cancellation fraction
        predicate = c-prime
        lambda = 1/6
        n = 2
        m = 1
        lengths = 50, 100, 200
        trials = 500
        seed = 7
        workers = 4
        mode = monte-carlo
        timing = true
        out = runs.csv
        """
    )
    assert cfg.n == 2 and cfg.m == 1
    assert cfg.lengths == (50, 100, 200)
    assert cfg.predicate == PredicateSpec("c-prime", lam=Fraction(1, 6))
    assert cfg.trials == 500 and cfg.seed == 7 and cfg.workers == 4
    assert cfg.timing is True
    assert cfg.out == "runs.csv"


@pytest.mark.parametrize(
    "text, value",
    [("1", True), ("true", True), ("YES", True), ("True", True), ("0", False), ("false", False), ("No", False)],
)
def test_timing_flag_texts(text, value):
    assert parse_config(f"predicate = b1\nn = 3\nm = 2\nlengths = 4\ntiming = {text}").timing is value


@pytest.mark.parametrize("text", ["ture", "on", "2", ""])
def test_timing_flag_refuses_other_text(text):
    with pytest.raises(ValueError, match=f"^not a true/false value: {text!r}$"):
        parse_config(f"predicate = b1\nn = 3\nm = 2\nlengths = 4\ntiming = {text}")


def test_parse_config_defaults_and_errors():
    cfg = parse_config("predicate = b1\nn = 3\nm = 2\nlengths = 4")
    assert cfg.mode == "monte-carlo"
    assert cfg.trials == 100 and cfg.seed == 0 and cfg.workers == 1
    assert cfg.timing is False and cfg.out is None
    assert cfg.predicate.box == 8
    with pytest.raises(ValueError, match="missing"):
        parse_config("predicate = b1\nn = 3\nm = 2")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("predicate = b1\nn = 3\nm = 2\nlengths = 4\nfoo = 1")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("predicate b1")


def test_config_validation():
    good = ExperimentConfig(
        n=2, m=1, lengths=(4,), predicate=PredicateSpec("b1"), trials=10
    )
    good.validate()
    bad = [
        ExperimentConfig(n=1, m=1, lengths=(4,), predicate=PredicateSpec("b1")),
        ExperimentConfig(n=2, m=1, lengths=(), predicate=PredicateSpec("b1")),
        ExperimentConfig(n=2, m=1, lengths=(0,), predicate=PredicateSpec("b1")),
        ExperimentConfig(n=2, m=1, lengths=(4,), predicate=PredicateSpec("b1"), mode="x"),
        ExperimentConfig(n=2, m=1, lengths=(4,), predicate=PredicateSpec("b1"), trials=0),
        ExperimentConfig(n=2, m=1, lengths=(4,), predicate=PredicateSpec("b1"), workers=0),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            cfg.validate()


def test_tau_count_frozen():
    res = tau_count(2, 3)
    assert (res.r_count, res.r_prime_count, res.tau_image_count) == (28, 28, 28)
    assert res.r_count_extended == 2188
    assert res.injective
    assert res.image_fraction == Fraction(28, 2188)
    res = tau_count(2, 4)
    assert (res.r_count, res.r_prime_count, res.tau_image_count) == (84, 76, 76)
    assert res.r_count_extended == 6564
    assert res.injective


def _tau_count_oracle(n, length):
    """tau_count as one first-Betti check and one insertion per tuple."""
    tuples = list(itertools.product(enumerate_cyclically_reduced(n, length), repeat=n - 1))
    image = set()
    r_prime = 0
    for combo in tuples:
        if first_betti_number(Presentation(n, combo)) != 1:
            continue
        r_prime += 1
        image.add(tau_deficiency_one(combo, n))
    extended = count_cyclically_reduced(n, length + 4) ** (n - 1)
    return TauCountResult(n, length, len(tuples), r_prime, len(image), extended), tuples


@pytest.mark.parametrize("n,length", [(2, l) for l in range(3, 8)] + [(3, 2), (3, 3)])
def test_tau_count_one_slope_basis_per_exponent_sum_matrix(monkeypatch, n, length):
    expected, tuples = _tau_count_oracle(n, length)
    calls = []
    real = experiment.slope_basis

    def counting(p):
        calls.append(abelianization_matrix(p).rows)
        return real(p)

    monkeypatch.setattr(experiment, "slope_basis", counting)
    assert tau_count(n, length) == expected
    matrices = {abelianization_matrix(Presentation(n, t)).rows for t in tuples}
    assert len(calls) == len(set(calls)) == len(matrices)
    if (n, length) == (2, 7):
        assert (len(matrices), len(tuples)) == (64, 2188)


def test_tau_count_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        tau_count(2, 10, budget=100)


def test_parse_fraction_refuses_exponent_notation_fast():
    assert parse_fraction("1/6") == Fraction(1, 6)
    assert parse_fraction("0.5") == Fraction(1, 2)
    # Fraction itself expands these digit by digit: 1e-10000000 took 12 s
    for text in ("1e-1000000", "1E-10000000", "2e3", "-0.5e1"):
        t0 = time.process_time()
        with pytest.raises(ValueError, match="exponent notation"):
            parse_fraction(text)
        assert time.process_time() - t0 < 0.01
