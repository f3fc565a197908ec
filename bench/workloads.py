"""The benchmark's four workloads.

Each ``build_<name>(rl, seed)`` builds the seeded inputs (this is the timed
set-up) and returns the round's operations.  An ``Op`` runs one call into the
package, counts the work it did, fingerprints its output so later rounds can
be compared with the first, and checks that output against the independent
computations in ``oracles``.

Calls go through module attributes of ``rl`` (the imported ``relators``
package) at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles as orc


class CheckFailed(AssertionError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    work: Callable[[Any], int]
    digest: Callable[[Any], Any]
    check: Callable[[Any], None]


def _terms(e) -> dict:
    return {w.letters: c for w, c in e.terms().items()}


def _relabel(images: tuple[int, ...], letters) -> tuple[int, ...]:
    return tuple(images[abs(a) - 1] if a > 0 else -images[abs(a) - 1] for a in letters)


def _check_relabeled_slope(images, phi: tuple[int, ...], std_phi: tuple[int, ...]) -> None:
    for g in range(1, len(phi) + 1):
        require(
            orc.slope_value((images[g - 1],), std_phi) == phi[g - 1],
            f"standardized slope does not match x{g}",
        )


# -- certify ------------------------------------------------------------

# Classes of commutator-insertion tuples: (rank n, source length, highest
# order, tuples, i-role letters per relator).  Image length is source length
# + 4; each tuple is certified at orders 1..highest.  A tuple is kept only
# when each relator carries the class's most common count of i-role letters,
# which fixes the number of terms of B.  Even so the cost of one tuple at
# order 5 or 6 varies by a factor of two or more between tuples, so those
# tuples come from a fixed seed and are the same in every run; the tuples
# drawn from --seed stop at orders 3-4, where one tuple's cost varies by
# 6-30%, and there are enough of them that a round's cost stays close
# across seeds.
CERT_FIXED_SEED = 106
CERT_FIXED = (
    (2, 4, 6, 2, 4),
    (2, 8, 5, 1, 6),
    (3, 4, 5, 1, 5),
)
CERT_SEEDED = (
    (2, 4, 4, 5, 4),
    (2, 8, 4, 5, 6),
    (2, 12, 3, 6, 8),
    (3, 4, 4, 5, 5),
    (3, 8, 3, 8, 8),
    (4, 4, 4, 5, 5),
)
# the worked examples of acceptance criterion 6, at orders 1..6
CERT_WORKED = (
    (2, ("x2 x1 X2 X1",), (0, -1)),
    (3, ("x3 x1 X3 X1", "x3 x2 X3 X2"), (0, 0, -1)),
    (2, ("x1 x2 x2 X1 X2 x1 x1 X2",), (0, -1)),
)


def _insertion_tuple(rl, rng: random.Random, n: int, src: int, target: int):
    while True:
        t = tuple(rl.sample_cyclically_reduced(n, src, rng) for _ in range(n - 1))
        p = rl.Presentation(n, t)
        if rl.first_betti_number(p) != 1:
            continue
        out = rl.tau_deficiency_one(t, n)
        phi = rl.slope_basis(p)[0]
        witness = rl.check_minimum_condition(out, phi)
        roles = set(witness.i_roles)
        if all(sum(1 for a in r.letters if abs(a) in roles) == target for r in out):
            return rl.Presentation(n, out), phi


def _cert_digest(cert):
    return (cert.term_count, cert.error_min_degree, hash((cert.truncated_inverse, cert.error_matrix)))


def check_certificate(p, phi, order: int, cert, rep_seed: int) -> None:
    """Re-verify a certificate under a seeded finite-field representation:
    A is the normalized Jacobian of the standardized tuple, C_K equals
    sum_{k<K} (-B)^k, and A*C_K - I = C_K*A - I = E = -(-B)^K; every word of
    E has slope degree >= K."""
    n, m = p.rank, len(p.relators)
    images = cert.relabeling.images
    std_phi = cert.slope.values
    _check_relabeled_slope(images, phi.values, std_phi)
    std = [_relabel(images, r.letters) for r in p.relators]
    rep = orc.FiniteFieldRep(n, rep_seed)
    A = cert.normalized_matrix
    for i, r in enumerate(std):
        require(orc.slope_value(r, std_phi) == 0, f"slope does not annihilate row {i}")
        row = cert.lowest_terms.rows[i]
        low = row.lowest_word.letters
        require(row.lowest_coeff in (1, -1), f"row {i}: lowest coefficient not a sign")
        require(
            orc.slope_value(low, std_phi) == min(orc.prefix_heights(r, std_phi)[:-1]),
            f"row {i}: lowest word is not at the minimum height",
        )
        unit = orc.mat_scale(rep.word(orc.invert(low)), rep.scalar(1 / Fraction(row.lowest_coeff)))
        require(_terms(A[i][i]).get(()) == 1, f"A[{i}][{i}] has no constant term 1")
        for j in range(m):
            expect = orc.mat_mul(unit, rep.fox_derivative(r, j + 1))
            require(rep.element(_terms(A[i][j])) == expect, f"A[{i}][{j}] is not the normalized Jacobian")
            for w, c in _terms(A[i][j]).items():
                if not (i == j and w == () and c == 1):
                    require(orc.slope_value(w, std_phi) >= 1, f"A[{i}][{j}] - I has a term below degree 1")

    def image(mat):
        return orc.block([[rep.element(_terms(e)) for e in row] for row in mat])

    size = m * orc.DIM
    eye = orc.mat_eye(size)
    rho_a = image(A)
    minus_b = orc.mat_add(eye, orc.mat_scale(rho_a, orc.P - 1))
    series = [[0] * size for _ in range(size)]
    power = eye
    for _ in range(order):
        series = orc.mat_add(series, power)
        power = orc.mat_mul(power, minus_b)
    expected_error = orc.mat_scale(power, orc.P - 1)
    rho_c = image(cert.truncated_inverse)
    require(rho_c == series, "C_K is not sum_{k<K} (-B)^k")
    minus_eye = orc.mat_scale(eye, orc.P - 1)
    require(orc.mat_add(orc.mat_mul(rho_a, rho_c), minus_eye) == expected_error, "A*C_K - I != -(-B)^K")
    require(orc.mat_add(orc.mat_mul(rho_c, rho_a), minus_eye) == expected_error, "C_K*A - I != -(-B)^K")
    require(image(cert.error_matrix) == expected_error, "reported error != -(-B)^K")
    degrees = [orc.slope_value(w, std_phi) for row in cert.error_matrix for e in row for w in _terms(e)]
    require(all(deg >= order for deg in degrees), "an error word has degree below the order")
    require(cert.error_min_degree == (min(degrees) if degrees else None), "error_min_degree is wrong")
    require(
        cert.term_count == sum(e.term_count() for row in cert.truncated_inverse for e in row),
        "term_count does not count C_K",
    )


def _cert_ops(rl, label: str, p, phi, top: int, rep_seed: int) -> list[Op]:
    return [
        Op(
            label=f"certify {label} K={order}",
            run=lambda order=order: rl.injectivity_certificate(p, phi, order),
            work=lambda cert: cert.term_count,
            digest=_cert_digest,
            check=lambda cert, order=order: check_certificate(p, phi, order, cert, rep_seed),
        )
        for order in range(1, top + 1)
    ]


def build_certify(rl, seed: int) -> list[Op]:
    rng = random.Random(seed)
    fixed_rng = random.Random(CERT_FIXED_SEED)
    ops = []
    for n, rels, phi in CERT_WORKED:
        p = rl.Presentation(n, [rl.parse_cyclic_word(r, n) for r in rels])
        ops += _cert_ops(rl, f"worked {rels[0]}", p, rl.Slope(phi), 6, rng.randrange(1 << 30))
    for source, classes in ((fixed_rng, CERT_FIXED), (rng, CERT_SEEDED)):
        for n, src, top, count, target in classes:
            for k in range(count):
                p, phi = _insertion_tuple(rl, source, n, src, target)
                label = f"n={n} l={src + 4} {'fixed' if source is fixed_rng else 'seeded'} #{k}"
                ops += _cert_ops(rl, label, p, phi, top, rng.randrange(1 << 30))
    return ops


# -- pieces -------------------------------------------------------------

PIECE_RANK = 2
PIECE_LENGTH = 5000
PLANTED = PIECE_LENGTH // 4  # > |r|/6, so a tuple carrying it fails C'(1/6)
LAMBDA = Fraction(1, 6)


def _planted_relator(rl, rng, shared: tuple[int, ...]):
    """A relator of PIECE_LENGTH letters containing `shared`, rotated."""
    while True:
        filler = rl.sample_reduced(PIECE_RANK, PIECE_LENGTH - len(shared), rng).letters
        if filler[0] != -shared[-1] and filler[-1] != -shared[0]:
            break
    letters = shared + filler
    k = rng.randrange(PIECE_LENGTH)
    return rl.CyclicWord(letters[k:] + letters[:k], PIECE_RANK)


def _piece_tuples(rl, rng):
    tuples = []
    for _ in range(2):  # independent uniform relators: pass
        tuples.append(tuple(rl.sample_cyclically_reduced(PIECE_RANK, PIECE_LENGTH, rng) for _ in range(2)))
    for inverted in (False, True):  # a planted common subword: fail
        r1 = rl.sample_cyclically_reduced(PIECE_RANK, PIECE_LENGTH, rng)
        k = rng.randrange(PIECE_LENGTH - PLANTED)
        shared = r1.letters[k : k + PLANTED]
        tuples.append((r1, _planted_relator(rl, rng, orc.invert(shared) if inverted else shared)))
    return tuples


def _check_piece_witness(texts: orc.PieceTexts, report) -> tuple[int, int]:
    a = 2 * report.location_a.relator + report.location_a.inverted
    b = 2 * report.location_b.relator + report.location_b.inverted
    k = report.longest_piece_length
    sub = report.subword.letters
    require(len(sub) == k, "witness length differs from the reported length")
    require(texts.window(a, report.location_a.offset, k) == sub, "witness missing at location a")
    require(texts.window(b, report.location_b.offset, k) == sub, "witness missing at location b")
    require(
        (a, report.location_a.offset) != (b, report.location_b.offset), "witness locations coincide"
    )
    return (a, b) if a <= b else (b, a)


def check_sc_verdict(relators, lam: Fraction, result) -> None:
    """Verdict against the k-gram scan; on success the report is the longest
    piece, on failure a violating piece as long as any violating piece."""
    ok, report = result
    texts = orc.PieceTexts([r.letters for r in relators])
    violating = orc.violating_pairs(texts, lam)
    require(ok == (not violating), f"verdict {ok} but k-gram scan finds {sorted(violating)}")
    if ok:
        longest = orc.longest_piece_length(texts)
        require(report.longest_piece_length == longest, f"longest piece {report.longest_piece_length} != {longest}")
        if longest:
            _check_piece_witness(texts, report)
        return
    pair = _check_piece_witness(texts, report)
    require(pair in violating, "reported witness pair does not violate C'")
    longer = orc.pieces_at(texts, report.longest_piece_length + 1)
    require(not any(p in longer for p in violating), "a longer violating piece exists")


def _sc_digest(result):
    ok, rep = result
    return (ok, rep.longest_piece_length, rep.location_a, rep.location_b)


def build_pieces(rl, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for k, t in enumerate(_piece_tuples(rl, rng)):
        ops.append(
            Op(
                label=f"pieces #{k}",
                run=lambda t=t: rl.check_small_cancellation(t, LAMBDA),
                work=lambda _res, t=t: sum(len(r) for r in t),
                digest=_sc_digest,
                check=lambda res, t=t: check_sc_verdict(t, LAMBDA, res),
            )
        )
    return ops


# -- embed --------------------------------------------------------------

EMBED_RANK = 3
EMBED_LENGTH = 100
EMBED_SOURCES = 1
EPSILON = Fraction(1)


def w_words(n: int, m: int, phi: tuple[int, ...], big_n: int) -> list[tuple[int, ...]]:
    """The generator images w_1..w_n over y_1..y_m, z (z = m+1), written out
    from the block pattern: z^1 Y z^2 Y .. z^N Y z^-N Y .. z^-1 Y z^-phi(x_i) Y
    for i < n, and z^-phi(x_n) Y z^1 Y .. z^(N-1) Y z^-(N-1) Y .. z^-1 Y for
    x_n; Y is y_i for i <= m and y_1 repeated otherwise."""
    z = m + 1
    out = []
    for i in range(1, n + 1):
        y = (i,) if i <= m else (1,) * ((i if i < n else n) - m + 1)
        if i < n:
            runs = list(range(1, big_n + 1)) + list(range(-big_n, 0)) + [-phi[i - 1]]
        else:
            runs = [-phi[n - 1]] + list(range(1, big_n)) + list(range(-(big_n - 1), 0))
        letters: list[int] = []
        for e in runs:
            letters.extend((z if e > 0 else -z,) * abs(e))
            letters.extend(y)
        out.append(tuple(letters))
    return out


def _embed_sources(rl, rng, count: int):
    out = []
    while len(out) < count:
        r = rl.sample_cyclically_reduced(EMBED_RANK, EMBED_LENGTH, rng)
        p = rl.Presentation(EMBED_RANK, (r,))
        if not rl.check_small_cancellation((r,), 1 / (6 + EPSILON))[0]:
            continue
        phi = next(
            (s for s in rl.enumerate_kernel_slopes(p, 8, primitive_only=True) if rl.check_minimum_condition((r,), s)),
            None,
        )
        if phi is not None:
            out.append((p, phi))
    return out


def check_embedding(p, phi, result) -> None:
    plan, report = result
    n, m = p.rank, len(p.relators)
    big_n = plan.block_growth
    std_phi = plan.slope.values
    images = report.relabeling.images
    _check_relabeled_slope(images, phi.values, std_phi)
    std = [_relabel(images, r.letters) for r in p.relators]
    words = w_words(n, m, std_phi, big_n)
    require([w.letters for w in plan.words] == words, "w-words differ from the block pattern")
    psi = (0,) * m + (-1,)
    require(plan.target_slope.values == psi, "target slope is not y -> 0, z -> -1")
    for i, w in enumerate(words):
        require(orc.slope_value(w, psi) == std_phi[i], f"psi(w_{i + 1}) != phi(x_{i + 1})")
    for i, r in enumerate(std):
        raw = [a for x in r for a in (words[x - 1] if x > 0 else orc.invert(words[-x - 1]))]
        target = orc.cyclic_core(orc.substitute_and_reduce(r, words))
        require(report.target[i].letters == target, f"target {i} is not the reduced image")
        phi_min = min(orc.prefix_heights(r, std_phi)[:-1])
        psi_min = min(orc.prefix_heights(raw, psi))
        require(report.phi_min[i] == phi_min, f"phi_min[{i}] wrong")
        require(psi_min == phi_min - big_n * (big_n + 1) // 2, f"psi_min[{i}] != phi_min - N(N+1)/2")
        require(report.psi_min[i] == psi_min, f"reported psi_min[{i}] wrong")
        # the lower section of the target: one flat y_i edge between z letters
        h = orc.prefix_heights(target, psi)[:-1]
        low = min(h)
        size = len(target)
        verts = [v for v in range(size) if h[v] == low]
        flat = [e for e in verts if h[(e + 1) % size] == low and abs(target[e]) <= m]
        require(len(verts) == 2 and len(flat) == 1, f"target {i}: lower section is not a lone edge")
        e = flat[0]
        require(abs(target[e]) == i + 1, f"target {i}: flat edge is not y_{i + 1}")
        require(
            abs(target[e - 1]) == m + 1 and abs(target[(e + 1) % size]) == m + 1,
            f"target {i}: flat edge is not flanked by z",
        )
    require(report.small_cancellation_ok is True, "C'(1/6) not reported on the target")
    require(report.word_small_cancellation_ok is True, "C'(1/12) not reported on the w-words")
    targets = orc.PieceTexts([s.letters for s in report.target])
    require(not orc.violating_pairs(targets, Fraction(1, 6)), "target fails C'(1/6) by k-gram scan")
    w_texts = orc.PieceTexts(words)
    require(not orc.violating_pairs(w_texts, Fraction(1, 12)), "w-words fail C'(1/12) by k-gram scan")
    for texts, rep in ((targets, report.piece_report), (w_texts, report.word_piece_report)):
        require(rep.longest_piece_length == orc.longest_piece_length(texts), "longest piece length wrong")
        _check_piece_witness(texts, rep)


def build_embed(rl, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for k, (p, phi) in enumerate(_embed_sources(rl, rng, EMBED_SOURCES)):
        ops.append(
            Op(
                label=f"embed #{k}",
                run=lambda p=p, phi=phi: rl.embed_presentation(p, phi, EPSILON, guarantee_c16=True),
                work=lambda _res: 1,
                digest=lambda res: (res[0].block_growth, tuple(s.letters for s in res[1].target)),
                check=lambda res, p=p, phi=phi: check_embedding(p, phi, res),
            )
        )
    return ops


# -- experiment ---------------------------------------------------------

MC_TRIALS = {"c-prime": 500, "b1": 1000, "min-condition": 500}
EXHAUSTIVE_LENGTH = 8
TAU_LENGTH = 7  # tau-count enumerates |R_{l+4}|: 177,148 words at n=2


def _experiment_argvs(seed: int) -> list[list[str]]:
    t = MC_TRIALS
    return [
        ["experiment", "--n", "2", "--m", "1", "--lengths", "16,24", "--predicate", "c-prime",
         "--lambda", "1/6", "--trials", str(t["c-prime"]), "--seed", str(seed)],
        ["experiment", "--n", "3", "--m", "2", "--lengths", "12", "--predicate", "b1",
         "--trials", str(t["b1"]), "--seed", str(seed)],
        ["experiment", "--n", "3", "--m", "1", "--lengths", "16", "--predicate", "min-condition",
         "--box", "4", "--trials", str(t["min-condition"]), "--seed", str(seed)],
        ["experiment", "--n", "2", "--m", "1", "--lengths", str(EXHAUSTIVE_LENGTH), "--predicate", "b1",
         "--mode", "exhaustive"],
        ["tau-count", "--n", "2", "--l", str(TAU_LENGTH)],
    ]


def _run_cli(rl, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = rl.cli.main(argv)
    return status, buf.getvalue()


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _exponent_rows(n: int, relators) -> list[list[int]]:
    rows = []
    for r in relators:
        row = [0] * n
        for a in r.letters:
            row[abs(a) - 1] += 1 if a > 0 else -1
        rows.append(row)
    return rows


def _check_mc_row(row: dict, trials: int) -> None:
    succ = int(row["successes"])
    require(int(row["trials"]) == trials, "Monte-Carlo trial count wrong")
    require(0 <= succ <= trials, "successes out of range")
    require(row["estimate_den_or_point"] == repr(succ / trials), "point estimate wrong")
    require(float(row["ci_lo"]) <= succ / trials <= float(row["ci_hi"]), "estimate outside its interval")


def _redecide(rl, row: dict, n: int, m: int, decide) -> None:
    """Rebuild every trial's tuple from derive_seed and decide it again."""
    length, seed, trials = int(row["l"]), int(row["seed"]), int(row["trials"])
    hits = 0
    for t in range(trials):
        trial_rng = random.Random(rl.experiment.derive_seed(seed, length, t))
        tup = rl.experiment.sample_tuple(n, m, length, trial_rng)
        hits += decide(tup)
    require(int(row["successes"]) == hits, f"{row['predicate']} l={length}: {row['successes']} != re-decided {hits}")


def check_cli(rl, argv: list[str], result) -> None:
    status, out = result
    require(status == 0, f"exit status {status}")
    if argv[0] == "tau-count":
        n, l = int(argv[2]), int(argv[4])
        data = json.loads(out)
        vecs = orc.exponent_vectors(n, l)
        # n - 1 = 1 relator: Betti number 1 iff its exponent vector is nonzero
        betti1 = sum(c for v, c in vecs.items() if any(v))
        require(data["tuple_count"] == orc.closed_form_count(n, l) ** (n - 1), "tuple count != closed form")
        require(sum(vecs.values()) == data["tuple_count"], "tuple count != enumeration")
        require(
            data["tuple_count_at_l_plus_4"] == orc.closed_form_count(n, l + 4) ** (n - 1),
            "l+4 tuple count != closed form",
        )
        require(data["betti1_count"] == betti1, "Betti-1 count != exponent-sum count")
        require(data["tau_image_count"] == betti1 and data["injective"] is True, "tau image != Betti-1 count")
        require(
            Fraction(data["image_fraction"]) == Fraction(betti1, data["tuple_count_at_l_plus_4"]),
            "image fraction wrong",
        )
        return
    opts = dict(zip(argv[1::2], argv[2::2]))
    n, m = int(opts["--n"]), int(opts["--m"])
    rows = _rows(out)
    require([int(r["l"]) for r in rows] == [int(x) for x in opts["--lengths"].split(",")], "rows != lengths")
    for row in rows:
        length = int(row["l"])
        if opts.get("--mode") == "exhaustive":
            total = orc.closed_form_count(n, length) ** m
            require(int(row["trials"]) == total, "exhaustive trials != closed form")
            vecs = orc.exponent_vectors(n, length)
            require(m == 1 and opts["--predicate"] == "b1", "only exhaustive b1 with one relator is checked")
            # one relator: b1 == n - 1 iff the exponent vector is nonzero
            succ = sum(c for v, c in vecs.items() if any(v))
            require(int(row["successes"]) == succ, "exhaustive b1 successes != exponent-sum count")
            est = Fraction(succ, total)
            require(
                (int(row["estimate_num"]), int(row["estimate_den_or_point"])) == (est.numerator, est.denominator),
                "exhaustive estimate wrong",
            )
            continue
        _check_mc_row(row, int(opts["--trials"]))
        pred = opts["--predicate"]
        if pred == "c-prime":
            lam = Fraction(opts["--lambda"])
            _redecide(rl, row, n, m, lambda tup: not orc.violating_pairs(orc.PieceTexts([r.letters for r in tup]), lam))
        elif pred == "b1":
            _redecide(rl, row, n, m, lambda tup: _rank(_exponent_rows(n, tup)) == m)


def build_experiment(rl, seed: int) -> list[Op]:
    ops = []
    for argv in _experiment_argvs(seed):
        ops.append(
            Op(
                label=" ".join(argv),
                run=lambda argv=argv: _run_cli(rl, argv),
                work=lambda res, argv=argv: _cli_work(argv, res),
                digest=lambda res: res,
                check=lambda res, argv=argv: check_cli(rl, argv, res),
            )
        )
    return ops


def _cli_work(argv: list[str], result) -> int:
    """Trials for experiment commands, enumerated tuples for tau-count."""
    _status, out = result
    if argv[0] == "tau-count":
        return json.loads(out)["tuple_count"]
    return sum(int(r["trials"]) for r in _rows(out))


BUILDERS = {
    "certify": build_certify,
    "pieces": build_pieces,
    "embed": build_embed,
    "experiment": build_experiment,
}
