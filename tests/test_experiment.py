import csv
import io
import math
import random
import time
from fractions import Fraction

import pytest

from relators import experiment, smallcanc
from relators.abelian import enumerate_kernel_slopes
from relators.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    PredicateSpec,
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
from relators.mincond import MinConditionWitness, check_minimum_condition
from relators.words import Presentation, parse_cyclic_word


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
    [("monte-carlo", 37, [3, 3]), ("monte-carlo", 32, [2, 2]), ("exhaustive", 1, [2, 6])],
)
def test_one_piece_scan_per_chunk(monkeypatch, mode, trials, calls):
    # exhaustive n=2 lengths 3, 4: 28 and 84 tuples
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
        assert sum(sizes) == row.trials and max(sizes) <= 16
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

    monkeypatch.setattr("relators.experiment.ProcessPoolExecutor", SerialPool)
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
    assert lines[0] == CSV_HEADER
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
