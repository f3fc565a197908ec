import csv
import io
import json
import time

import pytest

from relators.cli import main, to_jsonable
from relators.words import parse_cyclic_word, parse_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


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
