import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import relators
from relators.cli import main, to_jsonable
from relators.experiment import run_experiment
from relators.words import parse_cyclic_word, parse_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["tau-count", "--n", "2", "--l", "3"]
    src = str(pathlib.Path(relators.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "relators", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_cli(capsys, *argv)[1]


def test_cli_import_loads_no_process_pool():
    # every `relators` command imports the package; only a run with more
    # than one worker needs the pool machinery
    src = str(pathlib.Path(relators.__file__).resolve().parents[1])
    code = (
        "import sys, relators.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_sample_is_seeded(capsys, tmp_path):
    code, out1 = run_cli(capsys, "sample", "-n", "2", "-l", "12", "--count", "3", "--seed", "9")
    assert code == 0
    code, out2 = run_cli(capsys, "sample", "-n", "2", "-l", "12", "--count", "3", "--seed", "9")
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        w = parse_cyclic_word(line, 2)
        assert len(w) == 12


def test_check_sc_pass_and_fail(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("# a commutator\nx1 x2 X1 X2\n")
    code, out = run_cli(capsys, "check-sc", "--lambda", "1/2", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["lambda"] == "1/2"
    assert data["report"]["longest_piece_length"] == 1

    code, out = run_cli(capsys, "check-sc", "--lambda", "1/6", str(f))
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_check_sc_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x1 x1 x1\n"))
    code, out = run_cli(capsys, "check-sc", "--lambda", "1/6", "-")
    assert code == 1
    assert json.loads(out)["report"]["longest_piece_length"] == 2


def test_mincond_witness_and_failure(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("x2 x1 X2 X1\n")
    code, out = run_cli(capsys, "mincond", "--phi", "0,-1", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["satisfied"] is True
    assert data["witness"]["n_role"] == 2
    assert data["witness"]["i_roles"] == [1]

    f.write_text("x1 x2 X1 X2 x1 x2 X1 X2\n")
    code, out = run_cli(capsys, "mincond", "--phi", "1,-1", str(f))
    assert code == 1
    data = json.loads(out)
    assert data["satisfied"] is False
    assert data["failure"]["reason"] == "multi-component"


def test_tau_output_parses_and_round_trips(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("x1 x2 x1 X2\n")
    code, out = run_cli(capsys, "tau", "--rank", "2", str(f))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    image = parse_cyclic_word(lines[0], 2)
    assert len(image) == 8  # l + 4


def test_slopes_json(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("x1 x2\n")
    code, out = run_cli(capsys, "slopes", "--box", "2", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2
    assert data["kernel_basis"] == [[-1, 1]]
    assert data["valid_slopes"] == [[-2, 2], [-1, 1], [1, -1], [2, -2]]
    assert data["class_count"] == 2
    assert len(data["class_representatives"]) == 2


def test_certify_json(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("x2 x1 X2 X1\n")
    code, out = run_cli(capsys, "certify", "--phi", "0,-1", "--order", "4", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    assert data["error_min_degree"] >= 4
    assert data["rows"][0]["min_height"] == -1
    assert data["rows"][0]["lowest_word"] == "x2"
    assert data["rows"][0]["case"] == "edge-flat-i"
    assert data["witness"]["n_role"] == 2


# sha256 (first 16 hex digits) of `relators certify` stdout at orders 1..6
# for the three worked examples of acceptance criterion 6
CERTIFY_GOLDEN = [
    ("0,-1", "x2 x1 X2 X1", (
        "33ca3701bffbc4e2", "0ecb5bb7cd8a1f48", "79b56afb5aafad3c",
        "bd542752dde79b7d", "fedf60c231252609", "ef849e345c9bd953",
    )),
    ("0,0,-1", "x3 x1 X3 X1\nx3 x2 X3 X2", (
        "db2f7dbf5f3cc6a5", "4d231ec958ddb506", "99629dde24fd2058",
        "21da7428e5f27d82", "b1cfab11c7c92a6a", "32f47c877862cee4",
    )),
    ("0,-1", "x1 x2 x2 X1 X2 x1 x1 X2", (
        "2d420d6387c8acb4", "9b5435fba5cdbcb1", "17aa1ff86639d890",
        "d007f2a9d9d1d21b", "1460be8885843a9e", "b35ec11239c1bc7c",
    )),
]


@pytest.mark.parametrize("phi,relators,digests", CERTIFY_GOLDEN, ids=["commutator", "two-commutators", "insertion"])
def test_certify_stdout_golden(capsys, tmp_path, phi, relators, digests):
    f = tmp_path / "rel.txt"
    f.write_text(relators + "\n")
    got = []
    for order in range(1, 7):
        code, out = run_cli(capsys, "certify", "--phi", phi, "--order", str(order), str(f))
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(got) == digests


# a C'(1/7) relator of length 86 > 12 + 72/epsilon at epsilon = 1; its slope
# (-3, -1, 0) is zero on x3, and its lower section is one flat x3 edge
_EMBED_SOURCE = (
    "X1 X3 X3 X1 X2 X3 X2 X3 x1 X3 x1 x3 x2 X3 X1 x2 x3 x3 x3 X2 x3 X1 x2 X1 "
    "X3 X2 x1 x1 x2 X3 x1 X2 x1 X2 x3 x3 X2 x3 X2 X3 X2 X1 X2 x1 x1 x2 x3 X1 "
    "X2 x3 x2 x3 x3 X2 X3 x2 X3 X3 X2 X3 X1 X2 x1 X2 X3 X1 X2 X3 X3 X3 x1 x2 "
    "X3 x2 x2 x1 x1 x3 X2 x1 X2 x1 x3 X1 X1 X2"
)
# sha256 (first 16 hex digits) and exit status of `relators mincond`, `tau`,
# `slopes` and `embed` stdout on fixed relator files
SUBCOMMAND_GOLDEN = [
    (["mincond", "--phi", "0,-1"], "x2 x1 X2 X1", 0, "133dcaf4933f81f7"),
    (["mincond", "--phi", "1,0,-1"], "x3 x1", 0, "812a6ad93244f88f"),
    (["mincond", "--phi", "0,0,-1"], "x3 x1 X3 X1\nx3 x2 X3 X2", 0, "f83905ffc2807d6e"),
    (["mincond", "--phi", "1,-1"], "x1 x2 X1 X2 x1 x2 X1 X2", 1, "390a858b5c9bebd0"),
    (["mincond", "--phi", "0,-1"], "x1 x1 x2 X1 X1 X2", 1, "49770ff5e4aa354a"),
    (["mincond", "--phi", "0,0,-1"], "x3 x1 X3 X1\nx1 x3 X1 X3", 1, "661d2d9c37a40e96"),
    (["tau", "--rank", "2"], "x1 x2 x1 X2", 0, "8edb33c4e667022d"),
    (["tau", "--rank", "3"], "x1 x2 x3 X2\nx2 x2 X3 x1", 0, "27a3adbba5ffb12e"),
    (["slopes", "--box", "2"], "x1 x2", 0, "e3e3f9883c049506"),
    (["slopes", "--box", "2"], "x3 x1 X3 X1", 0, "4cc876ba1437a06b"),
    # the kernel of x1 x1 is (0, b): no valid slope in the box
    (["slopes", "--box", "2", "--rank", "2"], "x1 x1", 0, "22963aedfa1d7266"),
    (["embed", "--phi=-3,-1,0", "--guarantee-c16", "--epsilon", "1"], _EMBED_SOURCE, 0, "517f5b6aeec30d9d"),
]
_SUBCOMMAND_IDS = [
    "mincond-edge", "mincond-vertex", "mincond-two-relators", "mincond-multi-component",
    "mincond-section-not-lone", "mincond-no-assignment", "tau-n2", "tau-n3",
    "slopes-n2", "slopes-n3", "slopes-none-valid", "embed-c16",
]


@pytest.mark.parametrize("argv,relators,status,digest", SUBCOMMAND_GOLDEN, ids=_SUBCOMMAND_IDS)
def test_subcommand_stdout_golden(capsys, tmp_path, argv, relators, status, digest):
    f = tmp_path / "rel.txt"
    f.write_text(relators + "\n")
    code, out = run_cli(capsys, *argv, str(f))
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_embed_json(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("x3 x1 X3 X1\n")
    code, out = run_cli(capsys, "embed", "--phi", "0,2,-1", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["block_growth"] == 20
    assert data["target_rank"] == 2
    assert data["psi_min"] == [-211]
    assert data["length_stats"]["lengths"] == [1910]
    assert data["length_stats"]["delta"] == "13/50"
    s = parse_cyclic_word(data["target_relators"][0], 2)
    assert len(s) == 1910


def test_experiment_inline_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _ = run_cli(
        capsys,
        "experiment",
        "--n", "2", "--m", "1",
        "--lengths", "3,4",
        "--predicate", "min-condition",
        "--mode", "exhaustive",
        "--out", str(out_path),
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert [r["l"] for r in rows] == ["3", "4"]
    assert [r["successes"] for r in rows] == ["24", "72"]
    assert rows[0]["predicate"] == "min-condition:box=8"


def test_experiment_config_file_with_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "predicate = c-prime\nlambda = 1/6\nn = 2\nm = 1\n"
        "lengths = 12\ntrials = 30\nseed = 1\n"
    )
    code, out1 = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == 0
    code, out2 = run_cli(capsys, "experiment", "--config", str(cfg), "--seed", "2")
    assert code == 0
    assert out1.splitlines()[0] == out2.splitlines()[0]  # same header
    row1 = next(csv.DictReader(io.StringIO(out1)))
    row2 = next(csv.DictReader(io.StringIO(out2)))
    assert row1["seed"] == "1" and row2["seed"] == "2"
    assert row1["successes"] == "0"  # impossible at this rank and length


def test_experiment_requires_config_or_inline(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "--n", "2"])


def test_experiment_config_without_a_required_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("predicate = b1\nn = 2\nlengths = 3\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "config is missing 'm'"}


def test_experiment_config_refuses_a_mistyped_flag(capsys, tmp_path):
    # "ture" used to read as false and run without timing, exiting 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("predicate = b1\nn = 2\nm = 1\nlengths = 3\ntiming = ture\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "not a true/false value: 'ture'"}


def test_tau_count_json(capsys):
    code, out = run_cli(capsys, "tau-count", "--n", "2", "--l", "3")
    assert code == 0
    data = json.loads(out)
    assert data["tuple_count"] == 28
    assert data["betti1_count"] == 28
    assert data["tau_image_count"] == 28
    assert data["tuple_count_at_l_plus_4"] == 2188
    assert data["injective"] is True
    assert data["image_fraction"] == "7/547"


def test_rank_inferred_from_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x1 x3\n"))
    code, out = run_cli(capsys, "slopes", "--box", "1")
    assert code == 0
    assert json.loads(out)["rank"] == 3


def test_to_jsonable_rejects_unknown():
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_to_jsonable_basic_shapes():
    w = parse_word("x1 X2", 2)
    assert to_jsonable({"w": w, "xs": (1, True, None)}) == {
        "w": "x1 X2",
        "xs": [1, True, None],
    }


def test_budget_refusal_exits_2_quickly(capsys):
    t0 = time.perf_counter()
    code = main(
        [
            "experiment", "--n", "2", "--m", "1", "--lengths", "14",
            "--predicate", "b1", "--mode", "exhaustive", "--budget", "1000",
        ]
    )
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "ValueError",
        "message": "exhaustive space 4782972 exceeds budget 1000",
    }


def test_term_cap_exits_3(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("x2 x1 X2 X1\n")
    code = main(["certify", "--phi", "0,-1", "--order", "8", "--term-cap", "5", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "TermLimitExceeded"


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_term_cap_below_one_exits_2(capsys, tmp_path, cap):
    f = tmp_path / "rel.txt"
    f.write_text("x2 x1 X2 X1\n")
    code = main(["certify", "--phi", "0,-1", "--order", "2", "--term-cap", cap, str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "ValueError",
        "message": f"term cap must be >= 1, got {cap}",
    }


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--order", "0"], "truncation order must be >= 1"),
        (["--order", "2", "--term-cap", "0"], "term cap must be >= 1, got 0"),
    ],
)
def test_bad_certificate_arguments_exit_2_before_the_pipeline(capsys, tmp_path, flags, message):
    # the minimum condition fails on this relator, but the arguments are
    # refused first
    f = tmp_path / "rel.txt"
    f.write_text("x2 x1 x1 X2 X1 X1\n")
    code = main(["certify", "--phi", "0,-1", *flags, str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": message}


def test_term_cap_counts_the_starting_series(capsys, tmp_path):
    # at order 1 the truncated inverse is the identity, one term per relator
    f = tmp_path / "rel.txt"
    f.write_text("x3 x1 X3 X1\nx3 x2 X3 X2\n")
    argv = ["certify", "--phi", "0,0,-1", "--order", "1", str(f)]
    code = main(argv + ["--term-cap", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "TermLimitExceeded",
        "message": "term cap 1 exceeded at truncation order 1",
    }
    code, out = run_cli(capsys, *argv, "--term-cap", "2")
    assert code == 0
    assert json.loads(out)["inverse_term_count"] == 2


def test_block_height_cap_exits_3(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("x1 x3 x1 X3 X2\n")
    code = main(["embed", "--phi", "0,0,-1", "--max-block-height", "3", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "BlockHeightExceeded",
        "message": "no block height N <= 3 passes all embedding checks",
    }


@pytest.mark.parametrize("height", ["1", "-5"])
def test_block_height_cap_below_two_exits_2(capsys, tmp_path, height):
    f = tmp_path / "rel.txt"
    f.write_text("x1 x3 x1 X3 X2\n")
    code = main(["embed", "--phi", "0,0,-1", "--max-block-height", height, str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "ValueError",
        "message": f"max_block_height must be >= 2, got {height}",
    }


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sample_count_below_one_exits_2(capsys, count):
    assert main(["sample", "-n", "2", "-l", "3", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "ValueError",
        "message": f"count must be >= 1, got {count}",
    }


def test_bad_input_exits_2(capsys, tmp_path):
    f = tmp_path / "rel.txt"
    f.write_text("# nothing here\n")
    assert main(["check-sc", "--lambda", "1/6", str(f)]) == 2
    f.write_text("x1 X1\n")  # not cyclically reduced
    assert main(["check-sc", "--lambda", "1/6", str(f)]) == 2
    assert main(["check-sc", "--lambda", "1/6", str(tmp_path / "missing.txt")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["error"] for line in errors] == [
        "ValueError",
        "ValueError",
        "FileNotFoundError",
    ]
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n,m", [("2", "0"), ("0", "1")])
def test_experiment_zero_rank_or_count_reaches_config_check(capsys, n, m):
    # 0 is a given value, not a missing flag
    assert main(["experiment", "--n", n, "--m", m, "--lengths", "8", "--predicate", "b1"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "need n >= 2 and m >= 1"}


def test_tau_count_refuses_rank_one(capsys):
    assert main(["tau-count", "--n", "1", "--l", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "tau-count needs n >= 2"}


@pytest.mark.parametrize(
    "argv",
    [
        ["check-sc", "--lambda", "1/0"],
        ["embed", "--phi", "0,-1", "--guarantee-c16", "--epsilon", "1/0"],
        ["experiment", "--n", "2", "--m", "1", "--lengths", "8", "--predicate", "c-prime", "--lambda", "1/0"],
    ],
    ids=["check-sc", "embed", "experiment"],
)
def test_zero_denominator_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "'1/0'" in capsys.readouterr().err


def test_zero_denominator_in_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("predicate = c-prime\nlambda = 1/0\nn = 2\nm = 1\nlengths = 12\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "zero denominator in '1/0'"}


@pytest.mark.parametrize(
    "argv",
    [
        ["check-sc", "--lambda", "1e-1000000"],
        ["embed", "--phi", "0,-1", "--guarantee-c16", "--epsilon", "1e-1000000"],
        ["experiment", "--n", "2", "--m", "1", "--lengths", "8", "--predicate", "c-prime", "--lambda", "1e-1000000"],
    ],
    ids=["check-sc", "embed", "experiment"],
)
def test_exponent_notation_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "'1e-1000000'" in capsys.readouterr().err


def test_exponent_notation_in_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("predicate = c-prime\nlambda = 1e-1000000\nn = 2\nm = 1\nlengths = 12\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "ValueError",
        "message": "exponent notation is not accepted: '1e-1000000'",
    }


# sha256 (first 16 hex digits) of `relators experiment` and `tau-count` stdout
_PREDICATE_ARGS = {
    "c-prime": ["--predicate", "c-prime", "--lambda", "1/3"],
    "b1": ["--predicate", "b1"],
    "min-condition": ["--predicate", "min-condition", "--box", "3"],
    "slope-classes": ["--predicate", "slope-classes", "--k", "2", "--box", "3"],
}
_MONTE_CARLO = ["experiment", "--n", "3", "--m", "1", "--lengths", "6,10", "--trials", "20", "--seed", "5"]
EXPERIMENT_GOLDEN = [
    (_MONTE_CARLO + _PREDICATE_ARGS["c-prime"], "bab1c53f994c49a2"),
    (_MONTE_CARLO + _PREDICATE_ARGS["b1"], "65b142821d130677"),
    (_MONTE_CARLO + _PREDICATE_ARGS["min-condition"], "2bf7be9bbee32338"),
    (_MONTE_CARLO + _PREDICATE_ARGS["slope-classes"], "a0341d0a8b93e0fe"),
    (["experiment", "--n", "2", "--m", "1", "--lengths", "3,4", "--mode", "exhaustive"]
     + _PREDICATE_ARGS["c-prime"], "4c478797c21ad6ef"),
    (["experiment", "--n", "2", "--m", "2", "--lengths", "3,4", "--mode", "exhaustive"]
     + _PREDICATE_ARGS["b1"], "8ba22976171d5ec7"),
    (["experiment", "--n", "2", "--m", "1", "--lengths", "3,4", "--mode", "exhaustive"]
     + _PREDICATE_ARGS["min-condition"], "7a23038f5681f1ae"),
    (["experiment", "--n", "2", "--m", "1", "--lengths", "3,4", "--mode", "exhaustive"]
     + _PREDICATE_ARGS["slope-classes"], "d1814b9b3c5d455e"),
    (["tau-count", "--n", "2", "--l", "5"], "40b40a1ae253ed78"),
    (["tau-count", "--n", "3", "--l", "3"], "f7de49bedd3ca0d3"),
]


@pytest.mark.parametrize("argv,digest", EXPERIMENT_GOLDEN, ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_experiment_stdout_golden(capsys, argv, digest):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _capture_config(monkeypatch):
    """Record each ExperimentConfig the CLI builds, then run it as usual."""
    seen = []

    def run(cfg):
        seen.append(cfg)
        return run_experiment(cfg)

    monkeypatch.setattr("relators.cli.run_experiment", run)
    return seen


def test_experiment_flags_override_config_keys(capsys, monkeypatch, tmp_path):
    seen = _capture_config(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "predicate = c-prime\nlambda = 1/6\nn = 2\nm = 1\n"
        "lengths = 12\ntrials = 20\nseed = 1\n"
    )
    code, out = run_cli(
        capsys, "experiment", "--config", str(cfg),
        "--trials", "5", "--lengths", "4,6", "--lambda", "1/3", "--timing",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["l"], r["trials"], r["predicate"]) for r in rows] == [
        ("4", "5", "c-prime:1/3"), ("6", "5", "c-prime:1/3"),
    ]
    assert seen[-1].timing is True

    cfg.write_text("predicate = min-condition\nn = 2\nm = 1\nlengths = 3\ntrials = 20\n")
    code, out = run_cli(
        capsys, "experiment", "--config", str(cfg), "--mode", "exhaustive", "--box", "3",
    )
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert (row["mode"], row["trials"], row["predicate"]) == (
        "exhaustive", "28", "min-condition:box=3",
    )


def test_experiment_config_file_and_flags_build_equal_configs(capsys, monkeypatch, tmp_path):
    seen = _capture_config(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "predicate = slope-classes\nn = 2\nm = 1\nlengths = 3, 4\nk = 2\nbox = 3\n"
        "mode = exhaustive\nbudget = 500\nseed = 4\nworkers = 1\ntiming = yes\n"
        f"out = {tmp_path / 'a.csv'}\n"
    )
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert main([
        "experiment", "--predicate", "slope-classes", "--n", "2", "--m", "1",
        "--lengths", "3,4", "--k", "2", "--box", "3", "--mode", "exhaustive",
        "--budget", "500", "--seed", "4", "--workers", "1", "--timing",
        "--out", str(tmp_path / "a.csv"),
    ]) == 0
    assert len(seen) == 2 and seen[0] == seen[1]


def test_certificate_predicate_is_refused(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "experiment", "--n", "2", "--m", "1", "--lengths", "3",
            "--predicate", "certificate", "--k", "2",
        ])
    assert exc.value.code == 2
    assert "invalid choice: 'certificate'" in capsys.readouterr().err

    cfg = tmp_path / "run.cfg"
    cfg.write_text("predicate = certificate\nn = 2\nm = 1\nlengths = 3\nk = 2\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "unknown predicate certificate"}
