"""The benchmark's span tracer (perfbench/spans.py) finds the functions it
wraps by name, and some of its wrappers spell out the arguments they pass
on, so a renamed or deleted function, or a changed signature, breaks
``--trace 1``; this catches that here first, and so does a traced run of
a tiny config."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import fixbi
import fixbi.data
import fixbi.harness
from fixbi.config import DatasetSpec, TrainConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    # executed from its file, not imported: spans.py needs only the stdlib
    # and stays out of sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_and_model_exports_exist():
    missing = [f"fixbi.{owner}.{fname}" for owner, fname in _spans().TRACED
               if not inspect.isfunction(
                   getattr(importlib.import_module(f"fixbi.{owner}"), fname, None))]
    assert not missing, f"traced but not defined: {missing}"


def test_wrappers_with_named_arguments_match_their_targets():
    # e.g. backward(loss, params) and
    # paired_minibatches(source, target, batch_size, epoch, seed)
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install(fixbi)
    try:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fixbi" or name.startswith("fixbi.")]
        wrappers = [getattr(m, fname) for m in modules for _, fname in spans.TRACED
                    if hasattr(getattr(m, fname, None), "__wrapped__")]
    finally:
        tracer.restore()
    checked, mismatched = set(), []
    for w in wrappers:
        params = inspect.signature(w, follow_wrapped=False).parameters.values()
        if any(p.kind is p.VAR_POSITIONAL for p in params):
            continue  # passes every argument on as given
        # the wrapper passes its arguments on by position
        got = [(p.name, p.kind.name) for p in params]
        want = [(p.name, p.kind.name)
                for p in inspect.signature(w.__wrapped__).parameters.values()]
        checked.add(w.__name__)
        if got != want:
            mismatched.append((w.__name__, want, got))
    assert not mismatched, f"(function, its parameters, the wrapper's): {mismatched}"
    assert {"backward", "paired_minibatches"} <= checked


def test_by_name_imports_are_wrapped():
    # core calls backward, and baseline forward, through names they
    # imported; the tracer must wrap those copies too, and put them back
    spans = _spans()
    originals = fixbi.numerics.backward, fixbi.models.forward
    tracer = spans.Tracer()
    tracer.install(fixbi)
    try:
        for wrapped, original in ((fixbi.core.backward, originals[0]),
                                  (fixbi.baseline.forward, originals[1])):
            assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        tracer.restore()
    assert (fixbi.core.backward, fixbi.baseline.forward) == originals


def test_traced_run_yields_json_records_and_layer_metrics(tmp_path):
    # --trace 1 in miniature: a run whose warm-up ends inside it, traced as
    # the benchmark traces it; a tag that json cannot write (a numpy scalar,
    # say) or a metric that a traced run cannot compute fails here
    spans = _spans()
    cfg = TrainConfig(dataset=DatasetSpec(kind="blobs", num_classes=2, per_class=16),
                      arch=(8, 4), batch_size=8, epochs=2, warmup_epochs=1,
                      baseline_epochs=1, seed=3)
    n_batches = fixbi.data.batches_per_epoch(*fixbi.harness.load_dataset_pair(cfg),
                                             cfg.batch_size)
    tracer = spans.Tracer()
    tracer.install(fixbi)
    try:
        fixbi.harness.execute(cfg, tmp_path)
    finally:
        tracer.restore()
    json.dumps(spans.records(tracer.spans))
    # a traced name left defined but never called would read 0 ms in
    # core.loss_ms, core.threshold_ms or core.mixup_ms instead of failing
    opened = {s.name for s in tracer.spans}
    never = [f"core.{f}" for f in ("loss_fm", "loss_bim", "loss_sp", "loss_cr",
                                   "adaptive_threshold", "mixup")
             if f"core.{f}" not in opened]
    assert not never, f"traced but never called: {never}"
    # so would a report writer in harness.write_ms.*: the run opens exactly
    # one span of each
    writers = ("classwise_report", "emit_report", "_write_threshold_trace",
               "_write_threshold_chart", "_write_classwise", "_write_features")
    names = [s.name for s in tracer.spans]
    calls = {f: names.count(f"harness.{f}") for f in writers}
    assert calls == dict.fromkeys(writers, 1), f"harness spans per run: {calls}"
    # each phase opens one iteration span per batch under its own name, and
    # every walk and SGD step runs inside one of its phase: a training loop
    # that fetched the baselines' batches from core would move pretraining
    # time into core.dual_ms_per_iter, and fails here
    phase_iters = {"baseline.iter": cfg.baseline_epochs * n_batches,
                   "core.dual_iter": cfg.epochs * n_batches}
    assert {it: names.count(it) for it in phase_iters} == phase_iters
    inside: dict[tuple, int] = {}
    for s in tracer.spans:
        if s.name in ("numerics.backward", "numerics.sgd_step"):
            key = (s.name, None if s.iteration is None else tracer.spans[s.iteration].name)
            inside[key] = inside.get(key, 0) + 1
    assert inside == {(f, it): n for f in ("numerics.backward", "numerics.sgd_step")
                      for it, n in phase_iters.items()}, inside
    # each enabled loss opens exactly one span per dual iteration (fm and sp
    # from the first, bim and cr once matching opens), so core.loss_ms
    # times one call of each and a fused branch that skips or repeats a
    # loss fails here
    iters = {i: s.tag for i, s in enumerate(tracer.spans) if s.name == "core.dual_iter"}
    assert iters
    for i, epoch in iters.items():
        matching = epoch > cfg.warmup_epochs
        calls = [s.name for s in tracer.spans if s.iteration == i and s.name in spans.LOSSES]
        want = {"core.loss_fm": 1, "core.loss_sp": 1,
                "core.loss_bim": int(matching), "core.loss_cr": int(matching)}
        assert {name: calls.count(name) for name in want} == want, (epoch, calls)
    metrics = spans.layer_metrics(tracer.spans, cfg.warmup_epochs)
    assert 0.0 < metrics["core.gate_above_frac"] <= 1.0
    assert metrics["numerics.backward_calls_per_iter.dual"] == 1.0
    assert metrics["numerics.backward_calls_per_iter.baseline"] == 1.0
    # each training step is one node over its input batch, whose VJP runs
    # the step's whole reverse pass: a return to a node per network (5 and
    # 4) or per loss raises these
    assert metrics["numerics.graph_nodes_per_iter.baseline"] == 1.0
    assert metrics["numerics.graph_nodes_per_iter.dual"] == 1.0
