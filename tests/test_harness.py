"""Config parsing, the experiment runner's artifacts, class-wise reports and
the CLI surface."""
from __future__ import annotations

import json
import math
import os
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from fixbi import harness
from fixbi.cli import main as cli_main
from fixbi.config import (_KEY_PARSERS, METRICS_COLUMNS, ConfigError, DatasetSpec,
                          MetricsRow, TrainConfig, load_config, parse_config,
                          serialize_config, validate_config)
from fixbi.harness import (METRICS_VERSION, ClasswiseRow, classwise_accuracy,
                           classwise_report, emit_report, execute, load_dataset_pair,
                           load_metrics_csv, rank_class_gaps, run_experiment)
from fixbi.data import Dataset, as_target_view
from fixbi.models import DualState, ThresholdRow, init_model, load_checkpoint
from helpers import (assert_no_child, count_forks, fail_in_children,
                     force_feature_workers, needs_fork, open_fds,
                     serial_features_csv)


PRESETS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def test_presets_ship():
    # every shipped preset, not just default.cfg: a lost glob would make
    # test_shipped_preset_loads pass on no files
    assert "default.cfg" in [p.name for p in PRESETS] and len(PRESETS) >= 12


@pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.name)
def test_shipped_preset_loads(path):
    # a renamed or deleted key would strand the preset
    assert isinstance(load_config(path), TrainConfig)


# key -> int or tuple, for every integer-valued config key
_INT_KEYS = {prefix + name: (tuple if hint == tuple[int, ...] else int)
             for cls, prefix in ((DatasetSpec, "dataset."), (TrainConfig, ""))
             for name, hint in get_type_hints(cls).items()
             if hint in (int, tuple[int, ...])}


def small_config_text(seed: int = 0, **extra) -> str:
    keys = {
        "dataset.kind": "blobs",
        "dataset.num_classes": 2,
        "dataset.per_class": 16,
        "dataset.noise_sigma": 0.2,
        "arch": "8,4",
        "batch_size": 8,
        "epochs": 4,
        "warmup_epochs": 2,
        "baseline_epochs": 2,
        "seed": seed,
    }
    keys.update(extra)
    return "\n".join(f"{k} = {v}" for k, v in keys.items()) + "\n"

# the config keys with no rule of their own on their value: a new key gets a
# declared rule, and rows in _ONE_FAULT, or joins this list
_NO_VALUE_RULE = {"dataset.rotation_deg", "dataset.translation", "dataset.source",
                  "dataset.target", "warmup_epochs", "alpha", "loss_bim", "loss_sp",
                  "loss_cr", "allow_unnormalized_ratios"}
_KINDS = "('blobs', 'moons', 'csv')"
_FREE = {"allow_unnormalized_ratios": True}  # a lambda on its edge breaks no sum
# (key, a value just past the key's rule, the exact message, a value on the
# edge that passes, other keys), each on TrainConfig(warmup_epochs=0)
_ONE_FAULT = [
    ("dataset.kind", "cubes", f"dataset.kind: must be one of {_KINDS}, got 'cubes'",
     "moons", {}),
    ("dataset.num_classes", 1, "dataset.num_classes: must be >= 2, got 1", 2, {}),
    ("dataset.per_class", 0, "dataset.per_class: must be >= 1, got 0", 1, {}),
    ("dataset.dim", 1, "dataset.dim: must be >= 2, got 1", 2, {}),
    ("dataset.noise_sigma", -0.001, "dataset.noise_sigma: must be >= 0, got -0.001",
     0.0, {}),
    ("dataset.seed", -2, "dataset.seed: must be >= 0 (or -1 for run seed), got -2", -1, {}),
    ("arch", (8, 0), "arch: needs positive layer widths, got (8, 0)", (8, 1), {}),
    ("arch", (), "arch: needs positive layer widths, got ()", (1,), {}),
    ("batch_size", 0, "batch_size: must be >= 1, got 0", 1, {}),
    ("epochs", 0, "epochs: must be >= 1, got 0", 1, {}),
    ("lr0", 0.0, "lr0: must be positive, got 0.0", 5e-324, {}),
    ("momentum", -0.001, "momentum: must be in [0, 1), got -0.001", 0.0, {}),
    ("momentum", 1.0, "momentum: must be in [0, 1), got 1.0", 0.9999999999999999, {}),
    ("weight_decay", -0.001, "weight_decay: must be >= 0, got -0.001", 0.0, {}),
    ("lambda_sd", -0.001, "lambda_sd: must be in [0, 1], got -0.001", 0.0, _FREE),
    ("lambda_sd", 1.001, "lambda_sd: must be in [0, 1], got 1.001", 1.0, _FREE),
    ("lambda_td", -0.001, "lambda_td: must be in [0, 1], got -0.001", 0.0, _FREE),
    ("lambda_td", 1.001, "lambda_td: must be in [0, 1], got 1.001", 1.0, _FREE),
    ("lambda_cr", 0.4, "lambda_cr: fixed at 0.5, got 0.4", 0.5, {}),
    ("lambda_cr", 0.6, "lambda_cr: fixed at 0.5, got 0.6", 0.5, {}),
    ("ratio_rule", "banana",
     "ratio_rule: must be one of ('fixed', 'random', 'range'), got 'banana'", "range", {}),
    ("pseudo_label_source", "teacher", "pseudo_label_source: must be one of "
     "('live', 'frozen-baseline'), got 'teacher'", "frozen-baseline", {}),
    ("grl_lambda", -0.001, "grl_lambda: must be >= 0, got -0.001", 0.0, {}),
    ("baseline", "mmd", "baseline: must be one of ('dann', 'source-only'), got 'mmd'",
     "source-only", {}),
    ("baseline_epochs", -1, "baseline_epochs: must be >= 0, got -1", 0, {}),
    ("seed", -1, "seed: must be >= 0, got -1", 0, {}),
]


def _set(cfg: TrainConfig, key: str, value) -> None:
    owner, _, name = key.rpartition(".")
    setattr(cfg.dataset if owner else cfg, name, value)


class TestConfig:
    def test_parse_defaults_and_overrides(self):
        cfg = parse_config(small_config_text())
        assert cfg.dataset.kind == "blobs"
        assert cfg.arch == (8, 4)
        assert cfg.epochs == 4
        assert cfg.lambda_sd == 0.7   # untouched default

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_round_trip_is_idempotent(self):
        text = small_config_text(seed=5)
        once = serialize_config(parse_config(text))
        twice = serialize_config(parse_config(once))
        assert once == twice

    # commas alone separate a tuple's values; each part is stripped and must
    # parse whole, and the error quotes it as written
    @pytest.mark.parametrize("line,expected", [
        ("arch = 64,32", (64, 32)),
        ("arch = 1, 2, 3", (1, 2, 3)),
        ("arch =  8 ", (8,)),
        ("arch = 64 32", "arch: expected integer, got '64 32'"),
        ("arch = 64,,32", "arch: expected integer, got ''"),
        ("arch = 64,32,", "arch: expected integer, got ''"),
        ("dataset.translation = 0.5, 0.25", (0.5, 0.25)),
        ("dataset.translation =", ()),
        ("dataset.translation = 0.5 0.25",
         "dataset.translation: expected number, got '0.5 0.25'"),
        ("dataset.translation = 0.5, 1 e3",
         "dataset.translation: expected number, got '1 e3'"),
    ])
    def test_tuple_values(self, line, expected):
        key = line.split("=")[0].strip()
        if isinstance(expected, tuple):
            cfg = parse_config(line + "\n")
            assert getattr(cfg.dataset if "." in key else cfg, key.rpartition(".")[2]) == expected
        else:
            with pytest.raises(ConfigError) as exc:
                parse_config(line + "\n")
            assert str(exc.value) == expected

    def test_readme_config_block_is_the_defaults(self):
        # README "Configuration format" documents every default; the block
        # must parse to exactly TrainConfig()
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
        assert len(blocks) == 1
        assert parse_config(blocks[0]) == TrainConfig()

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("no_such_key = 1\n")

    @pytest.mark.parametrize("text", ["loss_fm = true\n", "dataset = blobs\n",
                                      "dataset_seed = 1\n", "dataset.dataset = 1\n"])
    def test_non_field_key_rejected(self, text):
        # loss_fm is gone: the mixup loss is always on; dataset is a record,
        # not a value, and dataset_seed a method
        with pytest.raises(ConfigError) as exc:
            parse_config("seed = 1\n" + text)
        assert str(exc.value) == f"line 2: unknown key {text.split(' =')[0]!r}"

    def test_accepted_keys_are_the_dataclass_fields(self):
        # every field is a key, the dataset's by their dotted names; a key
        # that is accepted may still fail validation, but not as unknown
        expected = {f"dataset.{f.name}" for f in fields(DatasetSpec)}
        expected |= {f.name for f in fields(TrainConfig)} - {"dataset"}
        candidates = expected | {"loss_fm", "dataset", "dataset_seed", "dataset.dataset",
                                 "dataset.kind.x", "Seed"}
        accepted = set()
        for key in candidates:
            try:
                parse_config(f"{key} = 1\n")
            except ConfigError as exc:
                if "unknown key" in str(exc):
                    continue
            accepted.add(key)
        assert accepted == expected

    @pytest.mark.parametrize("text,message", [
        ("dataset.kind = blobs\nseed = 2\ndataset.source = s.csv\n",
         "line 3: dataset.source does not apply to kind = blobs"),
        ("dataset.kind = moons\ndataset.per_class = 9\ndataset.num_classes = 7\n"
         "dataset.dim = 5\n", "line 3: dataset.num_classes does not apply to kind = moons"),
        ("dataset.translation = 1,2\ndataset.kind = moons\n",
         "line 1: dataset.translation does not apply to kind = moons"),
        ("dataset.kind = csv\ndataset.source = s.csv\ndataset.target = t.csv\n"
         "dataset.seed = 3\n", "line 4: dataset.seed does not apply to kind = csv"),
    ])
    def test_dataset_key_the_kind_does_not_read_rejected(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("spec,message", [
        (DatasetSpec(kind="moons", num_classes=7, dim=5),
         "dataset.num_classes: does not apply to kind = moons, got 7"),
        (DatasetSpec(kind="csv", source="s.csv", target="t.csv", seed=3),
         "dataset.seed: does not apply to kind = csv, got 3"),
        (DatasetSpec(source="s.csv"),
         "dataset.source: does not apply to kind = blobs, got 's.csv'"),
    ], ids=["moons", "csv", "blobs"])
    def test_config_built_in_code_gets_the_kind_rule(self, spec, message):
        # README "Library use": a config built in code meets the rule in
        # validate_config and in load_dataset_pair, before any data is made
        cfg = TrainConfig(dataset=spec)
        for check in (validate_config, load_dataset_pair):
            with pytest.raises(ConfigError) as exc:
                check(cfg)
            assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("key", [
        "lr0", "momentum", "weight_decay", "lambda_sd", "lambda_td", "lambda_cr", "alpha",
        "grl_lambda", "dataset.rotation_deg", "dataset.noise_sigma", "dataset.translation"])
    def test_config_built_in_code_rejects_non_finite_numbers(self, key, bad, tmp_path):
        # a parsed config never holds one (the parser rejects it); one built
        # in code meets the same rule before any data is made or written
        cfg = parse_config(small_config_text())
        owner, _, name = key.rpartition(".")
        setattr(cfg.dataset if owner else cfg, name,
                (0.5, bad) if name == "translation" else bad)
        out = tmp_path / "out"
        for check in (validate_config, load_dataset_pair, lambda c: execute(c, out)):
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be finite, got"):
                check(cfg)
        assert not out.exists()

    # every int field and int tuple of both records, each with a float and a bool
    @pytest.mark.parametrize("key,bad", [
        (key, bad) for key, hint in _INT_KEYS.items()
        for bad in ([(8.5, 4), (8, True)] if hint is tuple else [2.5, True])])
    def test_config_built_in_code_rejects_non_integers(self, key, bad, tmp_path):
        # a parsed config never holds one; one built in code meets the rule
        # before any comparison on the field, and before any data or output
        cfg = parse_config(small_config_text())
        owner, _, name = key.rpartition(".")
        setattr(cfg.dataset if owner else cfg, name, bad)
        out = tmp_path / "out"
        for check in (validate_config, load_dataset_pair, lambda c: execute(c, out)):
            with pytest.raises(ConfigError,
                               match=f"^{re.escape(key)}: must be an integer, got "
                                     f"{re.escape(repr(bad))}$"):
                check(cfg)
        assert not out.exists()

    def test_config_built_in_code_accepts_numpy_integers_and_lists(self):
        cfg = parse_config(small_config_text())
        cfg.batch_size, cfg.arch = np.int64(8), (np.int32(8), 4)
        cfg.dataset.per_class = np.uint16(16)
        assert validate_config(cfg) is cfg
        # a list where the record declares a tuple meets the same rules
        cfg.arch, cfg.dataset.translation = [8, 4], [0.5, 0.5]
        assert validate_config(cfg) is cfg
        again = parse_config(serialize_config(cfg))
        assert (again.arch, again.dataset.translation) == ((8, 4), (0.5, 0.5))
        cfg.arch = [8, 4.0]
        with pytest.raises(ConfigError, match=r"^arch: must be an integer, got \[8, 4\.0\]$"):
            validate_config(cfg)
        cfg.arch, cfg.dataset.translation = [8, 4], [0.5, math.nan]
        with pytest.raises(ConfigError, match=r"^dataset\.translation: must be finite"):
            validate_config(cfg)

    @pytest.mark.parametrize("kind,reads", [
        ("blobs", "num_classes per_class dim rotation_deg translation noise_sigma seed"),
        ("moons", "per_class rotation_deg noise_sigma seed"),
        ("csv", "source target"),
    ])
    def test_serialize_writes_only_the_keys_of_the_kind(self, kind, reads):
        text = f"dataset.kind = {kind}\ndataset.per_class = 9\n"
        if kind == "csv":
            text = "dataset.kind = csv\ndataset.source = s.csv\ndataset.target = t.csv\n"
        cfg = parse_config(text + "arch = 8,4\n")
        once = serialize_config(cfg)
        written = [line.split(" = ")[0] for line in once.splitlines()]
        assert [k for k in written if k.startswith("dataset.")] == \
            [f"dataset.{k}" for k in ["kind"] + reads.split()]
        assert parse_config(once) == cfg
        assert serialize_config(parse_config(once)) == once

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_field_level_messages(self):
        with pytest.raises(ConfigError, match="batch_size"):
            validate_config(TrainConfig(batch_size=0))
        with pytest.raises(ConfigError, match="warmup_epochs"):
            validate_config(TrainConfig(epochs=5, warmup_epochs=6))
        with pytest.raises(ConfigError, match="lambda_cr"):
            validate_config(TrainConfig(lambda_cr=0.4))
        with pytest.raises(ConfigError, match="ratio_rule"):
            validate_config(TrainConfig(ratio_rule="banana"))

    def test_fixed_rule_ratio_sum_enforced_unless_allowed(self):
        with pytest.raises(ConfigError, match="lambda_sd/lambda_td"):
            validate_config(TrainConfig(lambda_sd=0.7, lambda_td=0.7))
        cfg = TrainConfig(lambda_sd=0.7, lambda_td=0.7,
                          allow_unnormalized_ratios=True)
        assert validate_config(cfg) is cfg

    def test_warmup_may_equal_epochs(self):
        cfg = TrainConfig(epochs=10, warmup_epochs=10)
        assert validate_config(cfg).warmup_epochs == 10

    def test_csv_kind_requires_paths(self):
        with pytest.raises(ConfigError, match="dataset.source"):
            validate_config(TrainConfig(dataset=DatasetSpec(kind="csv")))

    @pytest.mark.parametrize("key,bad,message,edge,extra", _ONE_FAULT,
                             ids=[f"{row[0]}={row[1]}" for row in _ONE_FAULT])
    def test_one_fault_message(self, key, bad, message, edge, extra):
        # a config built in code and its text meet the same rule with the
        # same message; the value on the rule's edge passes both
        keys = {"warmup_epochs": 0, **extra}
        for value, fault in ((bad, message), (edge, None)):
            cfg = TrainConfig(**keys)
            _set(cfg, key, value)
            text = "".join(f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                           for k, v in {**keys, key: value}.items())
            for check in (lambda: validate_config(cfg), lambda: parse_config(text)):
                if fault is None:
                    check()
                    continue
                with pytest.raises(ConfigError) as exc:
                    check()
                assert str(exc.value) == fault

    def test_every_value_rule_has_a_one_fault_row(self):
        keys = {prefix + f.name: f for cls, prefix in ((DatasetSpec, "dataset."),
                                                       (TrainConfig, ""))
                for f in fields(cls) if f.name != "dataset"}
        assert _NO_VALUE_RULE <= keys.keys()
        assert {row[0] for row in _ONE_FAULT} == keys.keys() - _NO_VALUE_RULE
        assert {k for k, f in keys.items() if "rule" not in f.metadata} == _NO_VALUE_RULE

    @pytest.mark.parametrize("spec,message", [
        (DatasetSpec(per_class=np.int64(0)), "dataset.per_class: must be >= 1, got 0"),
        (DatasetSpec(kind="moons", num_classes=1),
         "dataset.num_classes: does not apply to kind = moons, got 1"),
        (DatasetSpec(kind="csv", source="s.csv", target="t.csv", per_class=0),
         "dataset.per_class: does not apply to kind = csv, got 0"),
        (DatasetSpec(kind="moons", dim=2.5), "dataset.dim: must be an integer, got 2.5"),
    ], ids=["numpy-int", "moons-unread", "csv-unread", "type-first"])
    def test_rule_order_and_value_format(self, spec, message):
        # a numpy int prints as a number; an unread field is out of place
        # before it is out of range, and of the wrong type before either
        with pytest.raises(ConfigError) as exc:
            validate_config(TrainConfig(dataset=spec))
        assert str(exc.value) == message

    def test_readme_configuration_format_names_every_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        section = readme.split("\n## Configuration format\n", 1)[1].split("\n## ", 1)[0]
        assert [key for key in _KEY_PARSERS
                if not re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", section)] == []


class TestMetricsCsv:
    def test_two_epoch_run_is_three_lines(self, tmp_path):
        rows = [MetricsRow(epoch=1, fm_sd=0.5), MetricsRow(epoch=2, fm_sd=0.25)]
        path = emit_report(rows, tmp_path)
        lines = path.read_text().split("\n")
        assert lines[-1] == ""
        assert len(lines) == 4  # header + 2 rows + trailing newline
        assert lines[0].startswith("# v2 epoch,")

    def test_round_trip_reproduces_rows_exactly(self, tmp_path):
        rows = [MetricsRow(epoch=1, fm_sd=1 / 3, tau_sd=0.123456789123456789,
                           n_above_sd=7, acc_tgt_ens=2 / 3),
                MetricsRow(epoch=2, fm_td=math.pi, acc_src_sd=1.0)]
        emit_report(rows, tmp_path)
        back = load_metrics_csv(tmp_path / "metrics.csv")
        assert len(back) == len(rows)
        for orig, parsed in zip(rows, back):
            assert parsed == orig

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)

    @staticmethod
    def _two_rows(tmp_path):
        emit_report([MetricsRow(epoch=1), MetricsRow(epoch=2)], tmp_path)
        path = tmp_path / "metrics.csv"
        return path, path.read_text().split("\n")

    def test_metrics_row_with_missing_cells_rejected(self, tmp_path):
        path, lines = self._two_rows(tmp_path)
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: "
                                             f"expected {len(METRICS_COLUMNS)} cells"):
            load_metrics_csv(path)

    @pytest.mark.parametrize("content,says", [(None, "No such file"),
                                              (b"# v2 epoch\n\xff\n", "line 2: byte 0xff")])
    def test_unreadable_metrics_file_names_the_path(self, tmp_path, content, says):
        path = tmp_path / "metrics.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {says}"):
            load_metrics_csv(path)

    def test_metrics_non_numeric_cell_names_file_and_line(self, tmp_path):
        path, lines = self._two_rows(tmp_path)
        lines[1] = lines[1].replace("1,", "one,", 1)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: "):
            load_metrics_csv(path)


class TestClasswise:
    def test_perfect_classifier_all_ones(self):
        truth = np.array([0, 1, 2, 0])
        accs = classwise_accuracy(truth.copy(), truth, 3)
        assert accs == [1.0, 1.0, 1.0]

    def test_constant_predictor_on_balanced_two_class(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.zeros(4, dtype=np.int64)
        assert classwise_accuracy(pred, truth, 2) == [1.0, 0.0]

    def test_absent_class_is_undefined_not_zero(self):
        truth = np.array([0, 0])
        accs = classwise_accuracy(np.array([0, 1]), truth, 3)
        assert accs[0] == 0.5
        assert accs[1] is None and accs[2] is None

    def test_gap_ranking_matches_hand_sorted_fixture(self):
        # per-class accuracies for the two models, gaps 0.1 / 0.4 / 0.2
        rows = [ClasswiseRow(c, 10, a, b, a, abs(a - b))
                for c, (a, b) in enumerate([(0.9, 0.8), (0.5, 0.9), (0.8, 0.6)])]
        ranked = rank_class_gaps(rows, top_n=3)
        assert [r.label for r in ranked] == [1, 2, 0]
        assert ranked[0].gap == pytest.approx(0.4)
        top2 = rank_class_gaps(rows, top_n=2)
        assert [r.label for r in top2] == [1, 2]

    def test_undefined_classes_skipped_in_ranking(self):
        # class 2 is absent from the eval set: both models' accuracies on it
        # are undefined, so its gap is too, and the ranking skips it
        rng = np.random.default_rng(4)
        dual = DualState(init_model(2, (4,), 3, seed=1), init_model(2, (4,), 3, seed=2))
        eval_ds = Dataset(rng.normal(size=(8, 2)), np.array([0, 1] * 4), 3, "source")
        rows = classwise_report(dual, eval_ds)
        assert [(r.label, r.n) for r in rows] == [(0, 4), (1, 4), (2, 0)]
        assert rows[2][2:] == (None, None, None, None)
        for r in rows[:2]:
            assert r.gap == abs(r.acc_sd - r.acc_td)
        assert sorted(r.label for r in rank_class_gaps(rows, top_n=5)) == [0, 1]


class TestRunExperiment:
    def test_writes_all_artifacts(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        out = tmp_path / "out"
        assert run_experiment(cfg_path, out) == 0
        for name in ("metrics.csv", "classwise.csv", "threshold.csv",
                     "features.csv", "sdm.ckpt", "tdm.ckpt", "summary.json"):
            assert (out / name).exists(), name
        rows = load_metrics_csv(out / "metrics.csv")
        assert len(rows) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["acc_tgt_ens"] == rows[-1].acc_tgt_ens  # exact echo
        model = load_checkpoint(out / "sdm.ckpt")
        assert model.num_classes == 2

    def test_summary_top_gap_classes_rank_the_classwise_rows(self, tmp_path):
        cfg = parse_config(small_config_text(**{"dataset.num_classes": 4}))
        execute(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        lines = (tmp_path / "classwise.csv").read_text().splitlines()
        assert lines[0] == "class,n,acc_sd,acc_td,acc_ens,gap"
        rows = [ClasswiseRow(int(c), int(n), *(None if v == "NA" else float(v) for v in rest))
                for c, n, *rest in (line.split(",") for line in lines[1:])]
        assert len(rows) == 4
        assert summary["top_gap_classes"] == [[r.label, r.gap] for r in rank_class_gaps(rows)]

    def test_finished_run_holds_exactly_the_artifacts(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        out = tmp_path / "out"
        assert run_experiment(cfg_path, out) == 0
        assert sorted(os.listdir(out)) == sorted(harness.ARTIFACTS)
        # a config the loaded data rejects (batch larger than a domain)
        # leaves the previous run's files as they were
        before = {name: (out / name).read_bytes() for name in harness.ARTIFACTS}
        cfg_path.write_text(small_config_text(batch_size=64))
        assert run_experiment(cfg_path, out) == 2
        assert "batch_size" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    @pytest.mark.parametrize("extra, left", [
        ({"baseline_epochs": 6}, ["baseline.csv"]),  # aborts in DANN epoch 3
        ({}, ["baseline.csv", "metrics.csv"]),       # aborts in dual epoch 2
    ])
    def test_aborted_rerun_leaves_only_its_own_files(self, tmp_path, capsys, extra, left):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        out = tmp_path / "out"
        assert run_experiment(cfg_path, out) == 0
        cfg_path.write_text(small_config_text(lr0=1e10, **extra))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_experiment(cfg_path, out) == 1
        assert "non-finite" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == left
        if "metrics.csv" in left:  # the aborted run's one completed epoch
            assert [r.epoch for r in load_metrics_csv(out / "metrics.csv")] == [1]

    def test_invalid_config_exits_nonzero_with_field_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("batch_size = 0\n")
        assert run_experiment(cfg_path, tmp_path / "out") == 2
        assert "batch_size" in capsys.readouterr().err

    def test_warmup_only_run_zero_matching_columns(self, tmp_path):
        cfg = parse_config(small_config_text(**{"epochs": 3, "warmup_epochs": 3}))
        result = execute(cfg, tmp_path / "out")
        rows = load_metrics_csv(tmp_path / "out" / "metrics.csv")
        assert all(r.bim_sd == 0.0 and r.bim_td == 0.0 and r.cr == 0.0
                   for r in rows)
        assert result.summary["acc_tgt_ens"] == rows[-1].acc_tgt_ens

    def test_threshold_csv_has_one_row_per_iteration(self, tmp_path):
        cfg = parse_config(small_config_text())
        execute(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "threshold.csv").read_text().strip().split("\n")
        n_batches = 32 // cfg.batch_size  # 16 per class, 2 classes
        assert len(lines) == 1 + cfg.epochs * n_batches

    def test_threshold_csv_columns_are_threshold_row_fields(self, tmp_path):
        cfg = parse_config(small_config_text())
        result = execute(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "threshold.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(ThresholdRow._fields)
        assert all(isinstance(row, ThresholdRow) for row in result.dual.threshold_trace)

    def test_features_csv_covers_both_domains(self, tmp_path):
        cfg = parse_config(small_config_text())
        execute(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "features.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 64  # 32 source + 32 target
        assert lines[1].startswith("source,")
        assert lines[-1].startswith("target,")

    def test_mid_run_abort_preserves_partial_metrics(self, tmp_path, capsys):
        cfg_path = tmp_path / "explode.cfg"
        cfg_path.write_text(small_config_text(**{
            "dataset.per_class": 4, "batch_size": 8, "epochs": 8,
            "warmup_epochs": 8, "baseline_epochs": 0, "lr0": 1e150}))
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_experiment(cfg_path, out) == 1
        assert "non-finite" in capsys.readouterr().err
        rows = load_metrics_csv(out / "metrics.csv")
        assert len(rows) >= 1  # completed epochs survived the abort

    def test_baseline_csv_has_one_row_per_pretraining_epoch(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        out = tmp_path / "out"
        result = execute(load_config(cfg_path), out)
        lines = (out / "baseline.csv").read_text().split("\n")
        assert lines[0] == "# v1 epoch,loss,acc_src,acc_tgt" and lines[-1] == ""
        assert len(lines) == 2 + result.config.baseline_epochs
        last = lines[-2].split(",")
        assert int(last[0]) == result.config.baseline_epochs
        assert float(last[2]) == result.baseline.source_acc
        assert float(last[3]) == result.summary["baseline_target_acc"]

    def test_baseline_abort_leaves_baseline_csv_and_no_metrics(self, tmp_path, capsys):
        cfg_path = tmp_path / "explode.cfg"
        cfg_path.write_text(small_config_text(lr0=1e10, baseline_epochs=6))
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_experiment(cfg_path, out) == 1
        err = capsys.readouterr().err
        assert "non-finite loss dann" in err and "at epoch 3 " in err
        assert not (out / "metrics.csv").exists()
        lines = (out / "baseline.csv").read_text().split("\n")
        assert lines[0] == "# v1 epoch,loss,acc_src,acc_tgt" and lines[-1] == ""
        # the two epochs completed before the abort
        assert [line.split(",")[0] for line in lines[1:-1]] == ["1", "2"]

    def test_threshold_chart_emitted(self, tmp_path):
        cfg = parse_config(small_config_text())
        execute(cfg, tmp_path / "out")
        svg = (tmp_path / "out" / "threshold.svg").read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 2
        assert "warm-up ends" in svg

    def test_ensemble_comparison_structure(self, tmp_path):
        # single-perspective pairs (0.3, 0.3) and (0.7, 0.7) against the
        # opposing pair (0.7, 0.3), mixup + matching losses only; the table
        # is reported for inspection, not asserted
        rows = []
        for name, (lam_sd, lam_td) in (("single-low", (0.3, 0.3)),
                                       ("single-high", (0.7, 0.7)),
                                       ("two-perspective", (0.7, 0.3))):
            cfg = TrainConfig(
                dataset=DatasetSpec(kind="blobs", num_classes=3, per_class=40,
                                    rotation_deg=50.0, noise_sigma=0.15),
                epochs=20, warmup_epochs=10, batch_size=20,
                lambda_sd=lam_sd, lambda_td=lam_td,
                allow_unnormalized_ratios=True,
                loss_sp=False, loss_cr=False, baseline_epochs=60, seed=0)
            result = execute(cfg, tmp_path / name)
            rows.append((name, result.summary["acc_tgt_ens"]))
        print("\n  ensemble comparison (target accuracy, 1 seed):")
        for name, acc in rows:
            print(f"    {name:<16} {acc:.3f}")
        assert all(0.0 <= acc <= 1.0 for _, acc in rows)

    def test_csv_dataset_kind_end_to_end(self, tmp_path):
        from fixbi.data import gen_blobs_shift, save_csv
        source, target = gen_blobs_shift(2, 16, 2, rotation_deg=30.0, seed=1)
        save_csv(source, tmp_path / "s.csv")
        save_csv(target, tmp_path / "t.csv", with_eval_labels=True)
        text = small_config_text().replace(
            "dataset.kind = blobs",
            f"dataset.kind = csv\ndataset.source = {tmp_path}/s.csv\n"
            f"dataset.target = {tmp_path}/t.csv")
        text = "\n".join(ln for ln in text.split("\n")
                         if not ln.startswith(("dataset.num_classes",
                                               "dataset.per_class",
                                               "dataset.noise_sigma")))
        cfg = parse_config(text)
        result = execute(cfg, tmp_path / "out")
        assert 0.0 <= result.summary["acc_tgt_ens"] <= 1.0

    def test_csv_pair_mismatch_rejected(self, tmp_path):
        from fixbi.data import gen_blobs_shift, gen_moons_shift, save_csv
        from fixbi.harness import load_dataset_pair
        blobs_src, _ = gen_blobs_shift(3, 8, 2, seed=0)
        _, moons_tgt = gen_moons_shift(8, seed=0)
        save_csv(blobs_src, tmp_path / "s.csv")
        save_csv(moons_tgt, tmp_path / "t.csv", with_eval_labels=True)
        cfg = TrainConfig(dataset=DatasetSpec(kind="csv",
                                              source=str(tmp_path / "s.csv"),
                                              target=str(tmp_path / "t.csv")))
        with pytest.raises(ConfigError, match="class counts differ"):
            load_dataset_pair(cfg)

    def test_moons_dataset_kind_end_to_end(self, tmp_path):
        text = small_config_text(**{
            "dataset.kind": "moons", "dataset.rotation_deg": 20,
            "dataset.noise_sigma": 0.08})
        # moons are always 2 classes: the blob-only key would be rejected
        text = "\n".join(ln for ln in text.split("\n")
                         if not ln.startswith("dataset.num_classes"))
        cfg = parse_config(text)
        result = execute(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert 0.0 <= result.summary["acc_tgt_ens"] <= 1.0

    def test_metrics_header_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "metrics.csv"
        bad.write_text("# v0 epoch,foo\n1,2\n")
        with pytest.raises(ValueError) as exc:
            load_metrics_csv(bad)
        assert str(exc.value) == f"{bad}: unrecognized metrics header: '# v0 epoch,foo'"

    @pytest.mark.parametrize("text,reason", [
        (f"# {METRICS_VERSION} epoch,foo\n1,2\n", "metrics.csv column mismatch"),
        ("\n", "empty metrics file"),
    ])
    def test_metrics_header_errors_start_with_the_path(self, tmp_path, text, reason):
        bad = tmp_path / "metrics.csv"
        bad.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_metrics_csv(bad)
        assert str(exc.value) == f"{bad}: {reason}"


def feature_pair(n_source: int, n_target: int):
    """Two small untrained models, and a labelled source and target set of
    the given sizes."""
    rng = np.random.default_rng(100 * n_source + n_target)

    def labelled(n):
        return Dataset(rng.normal(size=(n, 2)), rng.integers(0, 3, n), 3, "source")

    dual = DualState(init_model(2, (6, 4), 3, seed=1), init_model(2, (6, 5), 3, seed=2))
    return dual, labelled(n_source), as_target_view(labelled(n_target))


def parent_blocks(monkeypatch) -> list[int]:
    """``_format_rows`` that records the row count of each block this process
    formats (forked children record into their own copy)."""
    parent, real, blocks = os.getpid(), harness._format_rows, []

    def format_rows(heads, values):
        if os.getpid() == parent:
            blocks.append(len(heads))
        return real(heads, values)

    monkeypatch.setattr(harness, "_format_rows", format_rows)
    return blocks


def fail_on_second_block(monkeypatch, in_parent: bool) -> None:
    """``_format_rows`` that raises on the second block of the parent, or of
    every child, so that the failing process has already written one block."""
    parent, real, calls = os.getpid(), harness._format_rows, []

    def format_rows(*chunk):
        if (os.getpid() == parent) == in_parent:
            calls.append(1)  # a child counts in its own copy of the list
            if len(calls) == 2:
                raise RuntimeError("parent fault" if in_parent else "worker fault")
        return real(*chunk)

    monkeypatch.setattr(harness, "_format_rows", format_rows)


@needs_fork
class TestSplitFeatures:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 3001])
    def test_chunks_join_to_the_serial_bytes(self, workers, n_rows, monkeypatch, tmp_path):
        # 7 and 3001 rows are not multiples of 2 or 3; 1 and 2 are fewer
        # rows than 3 workers, so a child formats an empty chunk
        rng = np.random.default_rng(n_rows)
        heads = [f"source,{i}," for i in range(n_rows)]
        values = rng.normal(size=(n_rows, 5)) * 10.0 ** rng.integers(-300, 300, (n_rows, 5))
        blocks = parent_blocks(monkeypatch)
        forks = count_forks(monkeypatch)
        path = tmp_path / "features.csv"
        harness._write_in_workers(path, "h", heads, values, workers)
        lines = [head + ",".join(map(repr, row)) + "\n"
                 for head, row in zip(heads, values.tolist())]
        assert path.read_bytes() == ("h\n" + "".join(lines)).encode()
        assert sum(blocks) == n_rows // workers  # the parent's chunk is the first cut
        assert len(forks) == workers - 1
        assert os.listdir(tmp_path) == ["features.csv"]
        assert_no_child()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows,block_values,expected", [
        (3, 36, [3]), (4, 36, [4]), (5, 36, [4, 1]), (3, 8, [1, 1, 1])],
        ids=["block-minus-a-row", "one-block", "block-plus-a-row", "row-wider-than-block"])
    def test_block_boundaries(self, workers, rows, block_values, expected, monkeypatch,
                              tmp_path):
        # 9 values per row, so a 36-value block holds 4 rows and an 8-value
        # block still one; every process's chunk holds `rows` rows
        n = workers * rows
        dual, source, target = feature_pair(n // 2, n - n // 2)
        force_feature_workers(monkeypatch, workers)
        monkeypatch.setattr(harness, "_BLOCK_VALUES", block_values)
        blocks = parent_blocks(monkeypatch)
        forks = count_forks(monkeypatch)
        path = tmp_path / "features.csv"
        harness._write_features(dual, source, target, path)
        assert path.read_bytes() == serial_features_csv(dual, source, target)
        assert blocks == expected
        assert len(forks) == workers - 1
        assert_no_child()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("sizes", [(4, 3), (1, 1)])
    def test_writer_bytes_equal_the_serial_writer(self, workers, sizes, monkeypatch,
                                                  tmp_path):
        dual, source, target = feature_pair(*sizes)
        force_feature_workers(monkeypatch, workers)
        forks = count_forks(monkeypatch)
        path = tmp_path / "features.csv"
        harness._write_features(dual, source, target, path)
        assert len(forks) == workers - 1  # (1, 1) leaves a chunk empty at 3
        assert path.read_bytes() == serial_features_csv(dual, source, target)
        assert_no_child()

    def test_no_affinity_mask_formats_in_process(self, monkeypatch, tmp_path):
        dual, source, target = feature_pair(4, 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness, "_FORMAT_VALUES", 1)
        forks = count_forks(monkeypatch)
        harness._write_features(dual, source, target, tmp_path / "features.csv")
        assert forks == []
        assert (tmp_path / "features.csv").read_bytes() == \
            serial_features_csv(dual, source, target)

    def test_failed_child_is_an_oserror_and_writes_nothing(self, monkeypatch, tmp_path):
        dual, source, target = feature_pair(4, 3)
        force_feature_workers(monkeypatch, 3)
        fail_in_children(monkeypatch)
        path = tmp_path / "features.csv"
        with pytest.raises(OSError, match="features.csv"):
            harness._write_features(dual, source, target, path)
        assert not path.exists()
        assert_no_child()

    def test_parent_chunk_fault_still_reaps_every_child(self, monkeypatch, tmp_path):
        # the children write their whole chunks; the parent fails on its first block
        heads = [f"target,{i}," for i in range(6000)]
        values = 0.1 * np.arange(6000.0)[:, None] + 1e-7 * np.arange(8.0)
        parent, real = os.getpid(), harness._format_rows

        def format_rows(*chunk):
            if os.getpid() == parent:
                raise RuntimeError("parent fault")
            return real(*chunk)

        monkeypatch.setattr(harness, "_format_rows", format_rows)
        forks = count_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="parent fault"):
            harness._write_in_workers(tmp_path / "features.csv", "h", heads, values, 3)
        assert len(forks) == 2
        assert os.listdir(tmp_path) == []
        assert_no_child()

    @pytest.mark.parametrize("fault,error,match", [
        (None, None, None), ("child", OSError, "features.csv"),
        ("parent", RuntimeError, "parent fault")], ids=["success", "child", "parent"])
    def test_no_temporary_or_partial_file_is_left(self, fault, error, match, monkeypatch,
                                                  tmp_path):
        # 4-row blocks, so a failing process has written a block already
        dual, source, target = feature_pair(20, 16)
        force_feature_workers(monkeypatch, 3)
        monkeypatch.setattr(harness, "_BLOCK_VALUES", 36)
        if fault is not None:
            fail_on_second_block(monkeypatch, in_parent=fault == "parent")
        fds = open_fds()
        path = tmp_path / "features.csv"
        if fault is None:
            harness._write_features(dual, source, target, path)
            assert path.read_bytes() == serial_features_csv(dual, source, target)
        else:
            with pytest.raises(error, match=match):
                harness._write_features(dual, source, target, path)
        assert os.listdir(tmp_path) == ([] if fault else ["features.csv"])
        assert open_fds() == fds
        assert_no_child()

    def test_single_process_export_holds_one_block(self, monkeypatch, tmp_path):
        # 2000 + 2000 rows of 64 + 64 values: the export may hold its value
        # array and a block, but not a formatted copy of every row, which
        # alone is larger than the array
        rng = np.random.default_rng(7)

        def labelled(n):
            return Dataset(rng.normal(size=(n, 2)), rng.integers(0, 3, n), 3, "source")

        dual = DualState(init_model(2, (64,), 3, seed=1), init_model(2, (64,), 3, seed=2))
        source, target = labelled(2000), as_target_view(labelled(2000))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        tracemalloc.start()
        try:
            harness._write_features(dual, source, target, tmp_path / "features.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4000 * 128 * 8

    def test_execute_leaves_no_child(self, monkeypatch, tmp_path):
        force_feature_workers(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        result = execute(parse_config(small_config_text()), tmp_path / "out")
        assert len(forks) == 1
        assert (tmp_path / "out" / "features.csv").read_bytes() == serial_features_csv(
            result.dual, *load_dataset_pair(result.config))
        assert_no_child()


class TestCli:
    def test_gen_then_eval(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text(seed=4))
        out_csv = tmp_path / "pair.csv"
        assert cli_main(["gen", str(cfg_path), "--out", str(out_csv)]) == 0
        assert out_csv.exists()
        assert (tmp_path / "pair_target.csv").exists()
        capsys.readouterr()

        out_dir = tmp_path / "run"
        assert cli_main(["run", str(cfg_path), str(out_dir)]) == 0
        capsys.readouterr()

        assert cli_main(["eval", str(out_dir / "sdm.ckpt"), str(out_csv)]) == 0
        printed = capsys.readouterr().out
        assert "accuracy" in printed

    # a reduced blobs pair, and a moons pair with the variant branches
    @pytest.mark.parametrize("dataset,training", [
        ("dataset.num_classes = 3\ndataset.per_class = 20\ndataset.rotation_deg = 40\n",
         "arch = 16,8\nseed = 3\n"),
        ("dataset.kind = moons\ndataset.per_class = 30\ndataset.rotation_deg = 30\n"
         "dataset.noise_sigma = 0.1\n",
         "baseline = source-only\npseudo_label_source = frozen-baseline\n"
         "ratio_rule = range\nseed = 2\n"),
    ], ids=["blobs", "moons"])
    def test_gen_pair_trains_as_the_config(self, tmp_path, capsys, dataset, training):
        training += "batch_size = 8\nepochs = 4\nwarmup_epochs = 2\nbaseline_epochs = 2\n"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(dataset + training)
        assert cli_main(["gen", str(cfg_path), "--out", str(tmp_path / "pair.csv")]) == 0
        capsys.readouterr()
        from_csv = parse_config(f"dataset.kind = csv\ndataset.source = {tmp_path / 'pair.csv'}\n"
                                f"dataset.target = {tmp_path / 'pair_target.csv'}\n" + training)
        summaries = [execute(cfg, tmp_path / out).summary for cfg, out in
                     ((load_config(cfg_path), "config"), (from_csv, "csv"))]
        for name in harness.ARTIFACTS:
            if name != "summary.json":
                assert (tmp_path / "csv" / name).read_bytes() == \
                    (tmp_path / "config" / name).read_bytes(), name
        for summary in summaries:
            del summary["total_wall_ms"]
        assert summaries[0] == summaries[1]

    def test_eval_ensemble_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        out_dir = tmp_path / "run"
        cli_main(["run", str(cfg_path), str(out_dir)])
        from fixbi.data import gen_blobs_shift, save_csv
        source, _ = gen_blobs_shift(2, 16, 2, noise_sigma=0.2, seed=0)
        save_csv(source, tmp_path / "eval.csv")
        capsys.readouterr()
        assert cli_main(["eval", str(out_dir / "sdm.ckpt"), str(tmp_path / "eval.csv"),
                         "--ensemble-with", str(out_dir / "tdm.ckpt")]) == 0
        assert "ensemble accuracy" in capsys.readouterr().out

    def test_seed_sweep_writes_subdirectories(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        out_dir = tmp_path / "sweep"
        assert cli_main(["run", str(cfg_path), str(out_dir), "--seeds", "0..1"]) == 0
        assert (out_dir / "seed_0" / "metrics.csv").exists()
        assert (out_dir / "seed_1" / "metrics.csv").exists()
        capsys.readouterr()

    def test_bad_seeds_spec_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        assert cli_main(["run", str(cfg_path), str(tmp_path / "out"),
                         "--seeds", "1..x"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_gen_moons_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "moons.cfg"
        cfg_path.write_text("dataset.kind = moons\ndataset.per_class = 12\n"
                            "dataset.rotation_deg = 30\nseed = 2\nbatch_size = 8\n")
        out_csv = tmp_path / "moons.csv"
        assert cli_main(["gen", str(cfg_path), "--out", str(out_csv)]) == 0
        from fixbi.data import load_csv
        ds = load_csv(out_csv)
        assert ds.n == 24 and ds.num_classes == 2
        tgt = load_csv(tmp_path / "moons_target.csv")
        assert tgt.n == 24
        capsys.readouterr()

    def test_eval_rejects_unlabeled_dataset(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(small_config_text())
        out_dir = tmp_path / "run"
        cli_main(["run", str(cfg_path), str(out_dir)])
        unlabeled = tmp_path / "u.csv"
        unlabeled.write_text("# classes=2 dim=2\n0.1,0.2,-1\n")
        capsys.readouterr()
        assert cli_main(["eval", str(out_dir / "sdm.ckpt"), str(unlabeled)]) == 2
        assert "ground truth" in capsys.readouterr().err
