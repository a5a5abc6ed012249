import argparse
import re
from pathlib import Path

import pytest

from logicloss.cli import _build_parser, main
from logicloss.logics import BACKEND_NAMES


def test_eval_rc_example(capsys):
    code = main(
        ["eval", "--logic", "rc", "--formula", "out[0] <= 0.5", "--out", "0.7,0.3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "crisp: false" in out
    assert "truth: 0.84" in out
    assert "loss: 0.16" in out


def test_eval_satisfied_formula(capsys):
    code = main(
        ["eval", "--logic", "godel", "--formula", "out[1] >= 0.2", "--out", "0.7,0.3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "crisp: true" in out
    assert "truth: 1" in out
    assert "loss: 0" in out


def test_eval_dl2_handles_implication_and_negation(capsys):
    code = main(
        [
            "eval",
            "--logic",
            "dl2",
            "--formula",
            "not (out[0] <= 0.5)",
            "--out",
            "0.4,0.6",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "crisp: false" in out
    assert "truth:" not in out
    assert "loss: 0.1" in out


def test_eval_forall_over_builtin_groups(capsys):
    code = main(
        [
            "eval",
            "--logic",
            "rc",
            "--formula",
            "(forall g in Groups: (sum(out[g]) <= 0.9))",
            "--out",
            "0.2,0.1,0.1,0.2,0.1,0.1,0.1,0.05,0.03,0.02",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "crisp: true" in out


def test_eval_paired_vectors(capsys):
    code = main(
        [
            "eval",
            "--logic",
            "dl2",
            "--formula",
            "norm2(out - out') <= 1.0",
            "--out",
            "0.5,0.5",
            "--out2",
            "0.5,0.5",
        ]
    )
    assert code == 0
    assert "crisp: true" in capsys.readouterr().out


def test_eval_formula_error_is_usage(capsys):
    code = main(["eval", "--logic", "rc", "--formula", "out[0] <=", "--out", "0.5,0.5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "position" in err or "pos" in err


def test_eval_unbound_reference(capsys):
    code = main(
        ["eval", "--logic", "rc", "--formula", "in[0] <= 0.5", "--out", "0.5,0.5"]
    )
    assert code == 1


def test_unknown_backend_is_usage_error(capsys):
    code = main(
        ["eval", "--logic", "zadeh", "--formula", "out[0] <= 0.5", "--out", "0.5,0.5"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "rc-phi" in err  # choices listed


def test_bad_vector_is_usage_error(capsys):
    code = main(
        ["eval", "--logic", "rc", "--formula", "out[0] <= 0.5", "--out", "a,b"]
    )
    assert code == 1


@pytest.mark.parametrize("flag", ["--out", "--in", "--out2", "--in2"])
@pytest.mark.parametrize("bad", ["nan", "0.5,inf", "-inf,0.5"])
def test_non_finite_vector_is_usage_error_naming_the_flag(capsys, flag, bad):
    vectors = {"--out": "0.5,0.5", "--in": "0.1,0.2", "--out2": "0.4,0.6", "--in2": "0.3,0.2", flag: bad}
    argv = ["eval", "--logic", "rc", "--formula", "norm2(out - out') <= norm2(in - in')"]
    code = main(argv + [f"{name}={value}" for name, value in vectors.items()])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"argument {flag}: every entry must be finite" in captured.err


def test_help_lists_backends(capsys):
    code = main(["--help"])
    out = capsys.readouterr().out
    assert code == 0
    for name in BACKEND_NAMES:
        assert name in out


_TINY_FLAGS = [
    "--epochs", "2",
    "--n-train", "60",
    "--n-test", "30",
    "--n-classes", "4",
    "--dims", "4",
    "--hidden", "6",
    "--batch-size", "32",
    "--seed", "1",
]


def test_train_writes_report(tmp_path, capsys):
    path = tmp_path / "run.csv"
    code = main(
        ["train", "--logic", "gg", "--lambda", "0.4", "--report", str(path)]
        + _TINY_FLAGS
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "Epoch,Train-CE-Loss,Train-L-Loss,Test-P-Acc,Test-C-Acc"
    assert len(lines) == 3
    assert f"wrote {path}" in out
    assert "P=" in out and "C=" in out


def test_train_stdout_csv(capsys):
    code = main(["train", "--logic", "rc", "--lambda", "0"] + _TINY_FLAGS)
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Epoch,Train-CE-Loss,Train-L-Loss,Test-P-Acc,Test-C-Acc"
    # lambda 0 reports no logical loss
    assert all(line.split(",")[2] == "0" for line in lines[1:])


def test_train_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "backend = rc\nlambda = 0.5\nepochs = 2\nn_train = 60\nn_test = 30\n"
        "n_classes = 4\ndims = 4\nhidden = 6\nbatch_size = 32\n"
    )
    code = main(["train", "--config", str(cfg), "--lambda", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert all(line.split(",")[2] == "0" for line in out.splitlines()[1:])


def test_sweep_table(capsys):
    code = main(
        ["sweep", "--logic", "rc", "--sweep", "0,0.3", "--constraint", "csim"]
        + _TINY_FLAGS
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Lambda,P,C"
    assert len(lines) == 4  # header + 2 rows + best line
    assert lines[1].startswith("0,")
    assert lines[2].startswith("0.3,")
    assert lines[3].startswith("best lambda: ")
    assert lines[3].split(": ")[1] in ("0", "0.3")


def test_sweep_rejects_zero_jobs(capsys):
    code = main(["sweep", "--sweep", "0", "--jobs", "0"] + _TINY_FLAGS)
    assert code == 1
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err


def test_train_names_the_line_of_a_config_value_that_fails_validation(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("backend = rc\nepochs = 0\n")
    code = main(["train", "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: epochs must be >= 1, got 0\n"


def test_sweep_select_sum(capsys):
    code = main(
        ["sweep", "--logic", "rc", "--sweep", "0", "--select", "sum"] + _TINY_FLAGS
    )
    assert code == 0
    assert "best lambda: 0" in capsys.readouterr().out


def test_tables_fmnist(capsys):
    code = main(["tables"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fmnist (10 classes)" in out
    assert "Shirt" in out and "Sneaker" in out
    assert "0 T-shirt/top -> 6 Shirt >= 9 Ankle boot" in out


def test_tables_gtsrb_groups(capsys):
    code = main(["tables", "--dataset", "gtsrb"])
    out = capsys.readouterr().out
    assert code == 0
    assert "speed_limits: 0 1 2 3 4 5 6 7 8" in out
    assert "prohibitions:" in out


def test_tables_synthetic(capsys):
    code = main(["tables", "--dataset", "synthetic", "--n-classes", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "synthetic (6 classes)" in out


def test_report_io_error_is_runtime(tmp_path, capsys):
    code = main(
        ["train", "--logic", "rc", "--lambda", "0", "--report",
         str(tmp_path / "missing-dir" / "x.csv")] + _TINY_FLAGS
    )
    assert code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_code(capsys):
    code = main(["train", "--logic", "rc", "--lambda", "0", "--lr", "1e150"] + _TINY_FLAGS)
    err = capsys.readouterr().err
    assert code == 2
    assert "lambda=0" in err


def test_missing_subcommand(capsys):
    assert main([]) == 1


def test_unknown_constraint_listed(capsys):
    code = main(["train", "--logic", "rc", "--constraint", "parity"] + _TINY_FLAGS)
    err = capsys.readouterr().err
    assert code == 1
    assert "csim" in err


def test_every_flag_in_the_readme_is_a_cli_option():
    known = set()
    parsers = [_build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            known.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert flags, "no flags found in README.md"
    assert flags <= known, sorted(flags - known)
