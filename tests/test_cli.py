import argparse
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from logicloss import constraints, logics
from logicloss.cli import _build_parser, _merged_config, main
from logicloss.experiment import ExperimentConfig, load_config
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


@pytest.mark.parametrize("logic", ["rc", "dl2"])
def test_eval_rejects_an_infinite_eps_or_xi(capsys, logic):
    option = "eps" if logic == "rc" else "xi"
    argv = ["eval", "--logic", logic, "--formula", "out[0] <= 0.5", "--out", "0.7,0.3", f"--{option}", "inf"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {option} must be positive and finite\n"


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


def test_sweep_rejects_lambda(capsys):
    code = main(["sweep", "--sweep", "0", "--lambda", "0.5"] + _TINY_FLAGS)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--lambda 0.5" in err


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


@pytest.mark.parametrize("dataset", ["fmnist", "cifar10", "gtsrb"])
def test_tables_n_classes_with_a_built_in_dataset_is_usage_error(capsys, dataset):
    code = main(["tables", "--dataset", dataset, "--n-classes", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --n-classes sizes only the synthetic tables")


def test_tables_synthetic_defaults_to_ten_classes(capsys):
    assert main(["tables", "--dataset", "synthetic"]) == 0
    assert "synthetic (10 classes)" in capsys.readouterr().out


def test_train_with_an_idx_spec_of_one_file_is_usage_error(capsys):
    code = main(["train", "--dataset", "idx:x"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: dataset='idx:x': an idx dataset names two files, idx:<images>,<labels>\n"


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


def test_readme_python_api_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1, "README.md should hold one Python API block"
    exec(compile(blocks[0], "README.md", "exec"), {})
    *losses, best = capsys.readouterr().out.splitlines()
    truth, rc_loss, dl2_loss = (float(v) for v in losses)
    assert 0.0 < truth < 1.0 and rc_loss == 1.0 - truth and dl2_loss > 0.0
    p_acc, c_acc = (float(v) for v in best.strip("()").split(","))
    assert 0.0 <= p_acc <= 100.0 and 0.0 <= c_acc <= 100.0


def _subparsers():
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _option_strings(parser):
    return {option for action in parser._actions for option in action.option_strings}


_COMMON = {
    "-h", "--help", "--config", "--report", "--dataset", "--logic", "--constraint", "--epochs", "--batch-size",
    "--seed", "--lr", "--momentum", "--eps-group", "--xi", "--yager-p", "--sigmoidal-s", "--lipschitz-l",
    "--tables", "--n-classes", "--n-train", "--n-test", "--dims", "--noise-frac", "--hidden",
}


def test_the_option_strings_are_those_the_commands_have_always_had():
    options = {name: _option_strings(p) for name, p in _subparsers().items()}
    assert options == {
        "eval": {
            "-h", "--help", "--logic", "--formula", "--out", "--in", "--out2", "--in2",
            "--eps", "--xi", "--yager-p", "--sigmoidal-s",
        },
        "train": _COMMON | {"--lambda"},
        "sweep": _COMMON | {"--sweep", "--jobs", "--select"},
        "tables": {"-h", "--help", "--dataset", "--n-classes"},
    }


def test_sweep_has_every_train_flag_but_lambda():
    commands = _subparsers()
    train, sweep = (
        {action.dest: action.option_strings for action in commands[name]._actions} for name in ("train", "sweep")
    )
    assert {dest: train[dest] for dest in train if dest != "lam"}.items() <= sweep.items()
    assert "lam" in train and "lam" not in sweep


# a text for every setting, each read as a value other than its default
_SETTING_TEXTS = {
    "dataset": "idx:img,lbl",
    "backend": "gg",
    "constraint": "group",
    "lam": "0.8",
    "epochs": "7",
    "batch_size": "32",
    "seed": "3",
    "lr": "0.1",
    "momentum": "0.5",
    "eps_group": "0.02",
    "xi": "2.5",
    "yager_p": "3",
    "sigmoidal_s": "5",
    "lipschitz_l": "0.5",
    "tables": "synthetic",
    "n_classes": "8",
    "n_train": "100",
    "n_test": "50",
    "dims": "12",
    "noise_frac": "0.2",
    "hidden": "16,8",
}


def test_every_setting_has_a_text_in_the_flag_test():
    assert list(_SETTING_TEXTS) == [field.name for field in dataclasses.fields(ExperimentConfig)]


@pytest.mark.parametrize("key,text", _SETTING_TEXTS.items())
def test_a_flag_and_a_config_line_build_equal_configs(tmp_path, key, text):
    flag = {"backend": "--logic", "lam": "--lambda"}.get(key, "--" + key.replace("_", "-"))
    from_flag = _merged_config(_build_parser().parse_args(["train", flag, text]))
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {text}\n")
    from_file = load_config(path)
    assert from_flag == from_file
    assert getattr(from_file, key) != getattr(ExperimentConfig(), key)
    assert type(getattr(from_flag, key)) is type(getattr(from_file, key))


def test_eval_and_the_config_read_the_operator_defaults_from_logics():
    args = _build_parser().parse_args(["eval", "--logic", "rc", "--formula", "out[0] <= 0.5", "--out", "0.5,0.5"])
    defaults = {"eps": logics.EPS, "xi": logics.XI, "yager_p": logics.YAGER_P, "sigmoidal_s": logics.SIGMOIDAL_S}
    assert {key: getattr(args, key) for key in defaults} == defaults
    cfg = ExperimentConfig()
    assert (cfg.xi, cfg.yager_p, cfg.sigmoidal_s) == (logics.XI, logics.YAGER_P, logics.SIGMOIDAL_S)


def test_the_config_and_group_formula_read_the_group_slack_from_constraints():
    assert ExperimentConfig().eps_group == constraints.GROUP_EPS
    assert inspect.signature(constraints.group_formula).parameters["eps"].default == constraints.GROUP_EPS


@pytest.mark.parametrize(
    "argv,flag,text",
    [
        (["sweep", "--sweep", "0,x"], "--sweep", "0,x"),
        (["eval", "--logic", "rc", "--formula", "out[0] <= 0.5", "--out", "a,b"], "--out", "a,b"),
    ],
)
def test_a_bad_number_in_a_list_flag_is_a_usage_error_naming_the_flag(capsys, argv, flag, text):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: argument {flag}: expected comma-separated numbers, got {text!r}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["train", "--hidden", "8,x"], "argument --hidden: invalid literal for int() with base 10: 'x'"),
        (["train", "--epochs", "2.5"], "argument --epochs: invalid literal for int() with base 10: '2.5'"),
        (["sweep", "--lr", "fast"], "argument --lr: could not convert string to float: 'fast'"),
    ],
)
def test_a_flag_that_does_not_parse_is_a_usage_error_naming_it(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
