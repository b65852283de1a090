"""Error paths through the CLI entry points."""
from __future__ import annotations

import math
import os
import re

import pytest

from fixbi.cli import main as cli_main
from fixbi.harness import ARTIFACTS, run_experiment
from fixbi.models import init_model, save_checkpoint
from helpers import (assert_no_child, count_forks, fail_in_children,
                     force_feature_workers, needs_fork)


def test_run_with_missing_config(tmp_path, capsys):
    assert run_experiment(tmp_path / "nope.cfg", tmp_path / "out") == 2
    assert "error" in capsys.readouterr().err


@needs_fork
def test_run_with_failed_features_worker_exits_1(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.num_classes = 2\ndataset.per_class = 16\narch = 8,4\n"
                   "batch_size = 8\nepochs = 2\nwarmup_epochs = 1\nbaseline_epochs = 1\n")
    force_feature_workers(monkeypatch, 2)
    fail_in_children(monkeypatch)
    forks = count_forks(monkeypatch)
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg), str(out)]) == 1
    err = capsys.readouterr().err
    assert len(forks) == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "features.csv" in err and "Traceback" not in err
    assert not (out / "features.csv").exists()
    assert set(os.listdir(out)) <= set(ARTIFACTS)  # no temporary file is left
    assert_no_child()


def test_run_with_malformed_dataset_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# classes=2 dim=2\noops,1.0,0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {bad}\n"
                   f"dataset.target = {bad}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 1\n")
    assert run_experiment(cfg, tmp_path / "out") == 2
    assert "line 2" in capsys.readouterr().err


def test_run_with_non_finite_csv_feature(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# classes=2 dim=2\n1.0,2.0,0\nnan,1.0,1\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {bad}\n"
                   f"dataset.target = {bad}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 1\n")
    assert run_experiment(cfg, tmp_path / "out") == 2
    assert "line 3" in capsys.readouterr().err


def test_seed_sweep_over_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# classes=2 dim=2\noops,1.0,0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {bad}\n"
                   f"dataset.target = {bad}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 1\n")
    assert cli_main(["run", str(cfg), str(tmp_path / "out"), "--seeds", "1..2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all("line 2" in line for line in err)
    assert err[0].startswith("seed 1: ") and err[1].startswith("seed 2: ")


def test_run_with_mismatched_csv_pair(tmp_path, capsys):
    src = tmp_path / "s.csv"
    src.write_text("# classes=2 dim=1\n0.1,0\n0.2,1\n")
    tgt = tmp_path / "t.csv"
    tgt.write_text("# classes=3 dim=1\n0.1,0\n0.2,1\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {src}\n"
                   f"dataset.target = {tgt}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 1\n")
    assert run_experiment(cfg, tmp_path / "out") == 2
    assert "class counts differ" in capsys.readouterr().err


def test_eval_with_missing_checkpoint(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("# classes=2 dim=1\n0.1,0\n")
    assert cli_main(["eval", str(tmp_path / "nope.ckpt"), str(csv)]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_with_bad_arguments(tmp_path, capsys):
    assert cli_main(["gen", "blobs", "--seed", "1", "--out",
                     str(tmp_path / "x.csv"), "--per-class", "0"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args,name", [
    (["blobs", "--noise-sigma", "nan"], "noise_sigma"),
    (["moons", "--noise-sigma", "inf"], "noise_sigma"),
    (["blobs", "--rotation-deg", "inf"], "rotation_deg"),
    (["blobs", "--translation", "nan", "0"], "translation"),
])
def test_gen_with_non_finite_argument(tmp_path, capsys, args, name):
    out = tmp_path / "x.csv"
    assert cli_main(["gen", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {name} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("flag,values", [("--num-classes", ["7"]), ("--dim", ["5"]),
                                         ("--translation", ["nan", "0"])])
def test_gen_moons_rejects_blobs_only_flag(tmp_path, capsys, flag, values):
    out = tmp_path / "m.csv"
    assert cli_main(["gen", "moons", flag, *values, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} does not apply")
    assert not out.exists()


def test_gen_with_unwritable_out(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" / "x.csv"
    assert cli_main(["gen", "blobs", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == ""


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        cli_main(["bogus"])


def _checkpoint(path, input_dim, num_classes):
    save_checkpoint(init_model(input_dim, (4,), num_classes, seed=0), path)
    return str(path)


def test_eval_with_missing_ensemble_checkpoint(tmp_path, capsys):
    ckpt = _checkpoint(tmp_path / "a.ckpt", 1, 2)
    csv = tmp_path / "d.csv"
    csv.write_text("# classes=2 dim=1\n0.1,0\n")
    missing = str(tmp_path / "missing.ckpt")
    assert cli_main(["eval", ckpt, str(csv), "--ensemble-with", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.ckpt" in err


def test_eval_with_dim_mismatch(tmp_path, capsys):
    ckpt = _checkpoint(tmp_path / "a.ckpt", 2, 2)
    csv = tmp_path / "d.csv"
    csv.write_text("# classes=2 dim=3\n0.1,0.2,0.3,0\n")
    assert cli_main(["eval", ckpt, str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "a.ckpt" in err and "d.csv" in err


def test_eval_with_class_count_mismatch(tmp_path, capsys):
    a = _checkpoint(tmp_path / "a.ckpt", 1, 2)
    b = _checkpoint(tmp_path / "b.ckpt", 1, 3)
    csv = tmp_path / "d.csv"
    csv.write_text("# classes=2 dim=1\n0.1,0\n")
    assert cli_main(["eval", a, str(csv), "--ensemble-with", b]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "a.ckpt" in err and "b.ckpt" in err


def test_eval_with_dataset_class_count_mismatch(tmp_path, capsys):
    ckpt = _checkpoint(tmp_path / "a.ckpt", 1, 3)
    csv = tmp_path / "d.csv"
    csv.write_text("# classes=2 dim=1\n0.1,0\n0.2,1\n")
    assert cli_main(["eval", ckpt, str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "a.ckpt" in err and "d.csv" in err


def test_eval_with_broken_layer_chain(tmp_path, capsys):
    # ext.w1 has 4 rows after a 5-wide first layer
    model = init_model(1, (5, 3), 2, seed=0)
    model.params["ext.w1"].data = model.params["ext.w1"].data[:4]
    ckpt = tmp_path / "a.ckpt"
    save_checkpoint(model, ckpt)
    csv = tmp_path / "d.csv"
    csv.write_text("# classes=2 dim=1\n0.1,0\n")
    assert cli_main(["eval", str(ckpt), str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "a.ckpt" in err and "'ext.w1'" in err


@pytest.mark.parametrize("name", ["disc.w0", "ext.w3"])
def test_eval_with_tensor_outside_the_layout(tmp_path, capsys, name):
    # a discriminator tensor, or a layer after a missing ext.w2
    ckpt = tmp_path / "a.ckpt"
    save_checkpoint(init_model(1, (5, 3), 2, seed=0), ckpt)
    with open(ckpt, "a", encoding="utf-8") as fh:
        fh.write(f"name {name} shape 3,2\n" + " ".join(["0.5"] * 6) + "\n")
    csv = tmp_path / "d.csv"
    csv.write_text("# classes=2 dim=1\n0.1,0\n")
    assert cli_main(["eval", str(ckpt), str(csv)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: unexpected tensor '{name}', not in the model's layout\n"


def test_run_names_the_bad_target_csv(tmp_path, capsys):
    src = tmp_path / "src.csv"
    src.write_text("# classes=2 dim=2\n1.0,2.0,0\n0.5,1.0,1\n")
    tgt = tmp_path / "tgt.csv"
    tgt.write_text("# classes=2 dim=2\n1.0,2.0,0\nnan,1.0,1\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {src}\n"
                   f"dataset.target = {tgt}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 1\n")
    assert run_experiment(cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"{tgt}: line 3" in err and str(src) not in err


def _blobs_config(path, *extra, batch_size=8):
    """A 3-class blobs config with 60 rows per domain, plus ``extra`` lines."""
    path.write_text("\n".join([
        "dataset.kind = blobs", "dataset.num_classes = 3", "dataset.per_class = 20",
        "arch = 4", f"batch_size = {batch_size}", "epochs = 1", "warmup_epochs = 1",
        "baseline_epochs = 1", *extra]) + "\n")
    return str(path)


# what the error says after the key, where that is not a non-finite number
_REASONS = {"dataset.translation = 1, 2, 3": "3 components for dim 2"}


@pytest.mark.parametrize("line,key", [
    ("grl_lambda = nan", "grl_lambda"),
    ("dataset.noise_sigma = nan", "dataset.noise_sigma"),
    ("dataset.translation = 0.5, nan", "dataset.translation"),
    ("weight_decay = nan", "weight_decay"),
    ("lr0 = inf", "lr0"),
    ("dataset.rotation_deg = inf", "dataset.rotation_deg"),
    ("lambda_sd = -inf", "lambda_sd"),
    ("dataset.translation = 1, 2, 3", "dataset.translation"),
])
def test_run_with_non_finite_config_number(tmp_path, capsys, line, key):
    cfg = _blobs_config(tmp_path / "exp.cfg", line)
    assert cli_main(["run", cfg, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{key}: {_REASONS.get(line, 'expected a finite number')}" in err


@pytest.mark.parametrize("role", ["source", "target"])
def test_run_with_unlabeled_csv_row(tmp_path, capsys, role):
    # a source row needs its label to train and a target row its ground
    # truth to evaluate; the -1 sits on line 4 of the bad file
    good = "# classes=2 dim=1\n0.1,0\n0.2,1\n0.3,0\n"
    files = {r: tmp_path / f"{r}.csv" for r in ("source", "target")}
    for r, path in files.items():
        path.write_text(good.replace("0.3,0", "0.3,-1") if r == role else good)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {files['source']}\n"
                   f"dataset.target = {files['target']}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 1\n")
    assert cli_main(["run", str(cfg), str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {files[role]}: line 4: label -1")


def test_run_with_batch_larger_than_generated_domains(tmp_path, capsys):
    cfg = _blobs_config(tmp_path / "exp.cfg", batch_size=500)
    assert cli_main(["run", cfg, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: batch_size: 500")
    assert "60" in err


def test_run_with_input_error_creates_no_out_dir(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("# classes=2 dim=1\n0.1,0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {one}\n"
                   f"dataset.target = {one}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 32\n")
    out = tmp_path / "out" / "new"
    assert cli_main(["run", str(cfg), str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: batch_size: 32 exceeds the smaller domain's 1 samples\n"
    assert not (tmp_path / "out").exists()


def test_run_with_batch_larger_than_target_csv(tmp_path, capsys):
    src = tmp_path / "s.csv"
    src.write_text("# classes=2 dim=1\n0.1,0\n0.2,1\n0.3,0\n0.4,1\n")
    tgt = tmp_path / "t.csv"
    tgt.write_text("# classes=2 dim=1\n0.1,0\n0.2,1\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {src}\n"
                   f"dataset.target = {tgt}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 3\n")
    assert run_experiment(cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "batch_size: 3" in err and " 2 " in err


# a repeated seed would train twice into one seed_<n> directory
@pytest.mark.parametrize("spec", ["5..1", ",", "1..-2", "-1", "0,-3", "x", "0,0", "3,3,1"])
def test_seed_sweep_must_name_non_negative_seeds(tmp_path, capsys, monkeypatch, spec):
    import fixbi.cli as cli

    monkeypatch.setattr(cli, "run_experiment", None)  # the spec fails before any seed runs
    cfg = _blobs_config(tmp_path / "exp.cfg")
    out = tmp_path / "out"
    assert cli_main(["run", cfg, str(out), "--seeds", spec]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad --seeds spec {spec!r}\n"
    assert not out.exists()


def test_eval_with_non_finite_checkpoint_value(tmp_path, capsys):
    ckpt = tmp_path / "a.ckpt"
    save_checkpoint(init_model(1, (4,), 2, seed=0), ckpt)
    lines = ckpt.read_text().split("\n")
    at = lines.index("name ext.w0 shape 1,4") + 1
    lines[at] = " ".join(["nan"] + lines[at].split()[1:])
    ckpt.write_text("\n".join(lines))
    csv = tmp_path / "d.csv"
    csv.write_text("# classes=2 dim=1\n0.1,0\n0.2,1\n")
    assert cli_main(["eval", str(ckpt), str(csv)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: tensor 'ext.w0' holds a non-finite value\n"


@pytest.mark.parametrize("role", ["source", "target"])
def test_run_with_one_class_csv(tmp_path, capsys, role):
    # the header's class count is checked before the pair is compared
    files = {r: tmp_path / f"{r}.csv" for r in ("source", "target")}
    for r, path in files.items():
        classes = 1 if r == role else 2
        path.write_text(f"# classes={classes} dim=1\n0.1,0\n0.2,0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset.kind = csv\n"
                   f"dataset.source = {files['source']}\n"
                   f"dataset.target = {files['target']}\n"
                   "epochs = 2\nwarmup_epochs = 1\nbatch_size = 1\n")
    assert cli_main(["run", str(cfg), str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {files[role]}: line 1: classes=1")
    assert err.endswith("needs at least 2 classes\n")


@pytest.mark.parametrize("line,message", [
    ("loss_fm = true", "line 9: unknown key 'loss_fm'"),
    ("dataset.source = s.csv", "line 9: dataset.source does not apply to kind = blobs"),
])
def test_run_with_unusable_config_key(tmp_path, capsys, line, message):
    cfg = _blobs_config(tmp_path / "exp.cfg", line)
    assert cli_main(["run", cfg, str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def _append_bad_byte(path):
    path.write_bytes(path.read_bytes() + b"\xff\n")


def _replace(path, old, new):
    path.write_text(path.read_text().replace(old, new, 1))


def _directory(path):
    path.unlink()
    path.mkdir()


def _hand_checkpoint(path, width, classes):
    """A checkpoint of one extractor layer ``width`` wide and ``classes``
    classes, every value 0.5; a tensor with no values has an empty line."""
    shapes = {"ext.w0": (1, width), "ext.b0": (width,), "head.w": (width, classes),
              "head.b": (classes,), "log_temperature": (1,)}
    path.write_text("FIXBI-CKPT v1\n" + "".join(
        f"name {name} shape {','.join(map(str, shape))}\n"
        + " ".join(["0.5"] * math.prod(shape)) + "\n" for name, shape in shapes.items()))


def _one_class(path):
    # and a one-class CSV beside it, so that the class counts agree
    _hand_checkpoint(path, 4, 1)
    (path.parent / "d.csv").write_text("# classes=1 dim=1\n0.1,0\n0.2,0\n")


# (file, what is wrong with it, how to make it so, what the message says
# besides the path); each row reaches every command that reads that file:
# run the config and the CSV, eval the CSV and the checkpoint
_MANGLED = [
    *[(kind, "non-utf8-byte", _append_bad_byte, r"line \d+: byte 0xff is not UTF-8")
      for kind in ("config", "csv", "ckpt")],
    ("csv", "header-only", lambda p: p.write_text(p.read_text().split("\n")[0] + "\n"),
     "line 2: no samples"),
    ("ckpt", "truncated", lambda p: p.write_bytes(p.read_bytes()[:len(p.read_bytes()) // 2]),
     "values"),
    ("ckpt", "negative-shape", lambda p: _replace(p, "shape 1,4", "shape 1,-4"),
     "negative dimension in the shape at line 2"),
    ("ckpt", "wrong-rank-shape", lambda p: _replace(p, "shape 1,4", "shape 1,4,1"),
     "'ext.w0' has rank 3"),
    # init_model's rules: a width-0 layer would leave only the head bias to
    # score with, and a one-class head is right on a one-class CSV
    ("ckpt", "zero-width", lambda p: _hand_checkpoint(p, 0, 2),
     "tensor 'ext.w0': widths must be positive, got 0"),
    ("ckpt", "one-class", _one_class, "tensor 'head.w': num_classes must be >= 2, got 1"),
    *[(kind, "missing", lambda p: p.unlink(), "No such file")
      for kind in ("config", "csv", "ckpt")],
    *[(kind, "directory", _directory, "Is a directory")
      for kind in ("config", "csv", "ckpt")],
]


@pytest.mark.parametrize("command,kind,mangle,says", [
    pytest.param(command, kind, mangle, says, id=f"{command}-{kind}-{what}")
    for command, reads in (("run", ("config", "csv")), ("eval", ("csv", "ckpt")))
    for kind, what, mangle, says in _MANGLED if kind in reads])
def test_mangled_input_exits_2_naming_the_file(tmp_path, capsys, command, kind, mangle, says):
    files = {"config": tmp_path / "exp.cfg", "csv": tmp_path / "d.csv",
             "ckpt": tmp_path / "a.ckpt"}
    files["csv"].write_text("# classes=2 dim=1\n0.1,0\n0.2,1\n")
    files["config"].write_text(f"dataset.kind = csv\ndataset.source = {files['csv']}\n"
                               f"dataset.target = {files['csv']}\n"
                               "epochs = 2\nwarmup_epochs = 1\nbatch_size = 1\n")
    _checkpoint(files["ckpt"], 1, 2)
    mangle(files[kind])
    out = tmp_path / "out"
    argv = ([command, str(files["config"]), str(out)] if command == "run"
            else [command, str(files["ckpt"]), str(files["csv"])])
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {files[kind]}: ")
    assert re.search(says, err) and "Traceback" not in err
    assert not out.exists()
