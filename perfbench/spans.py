"""In-memory span tracer for fixbi, installed from outside the package.

A span is one call of a wrapped function: name, caller namespace, start,
end, parent span and the training iteration it ran in. The tracer replaces
each traced function in every ``fixbi`` module namespace that holds it
(``core`` and ``baseline`` import ``backward``, ``forward`` and the others by
name) and puts the originals back in :meth:`Tracer.restore`. The program's
code is never edited.

:func:`layer_metrics` turns one traced repeat's spans into the per-layer
metrics listed in ``README.md``.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from types import ModuleType

# (owner module, function) pairs traced in every namespace that holds them.
# harness's private writers are the only boundary around each artifact.
TRACED = [
    ("numerics", "backward"), ("numerics", "sgd_step"),
    ("data", "gen_blobs_shift"), ("data", "gen_moons_shift"),
    ("data", "load_csv"), ("data", "save_csv"), ("data", "paired_minibatches"),
    ("models", "extract_features"), ("models", "forward_logits"),
    ("models", "forward"), ("models", "predict_probs"),
    ("models", "predict_labels"), ("models", "ensemble_predict"),
    ("models", "save_checkpoint"), ("models", "load_checkpoint"),
    ("core", "mixup"), ("core", "adaptive_threshold"), ("core", "pseudo_labels"),
    ("core", "loss_fm"), ("core", "loss_bim"), ("core", "loss_sp"),
    ("core", "loss_cr"), ("core", "train_fixbi"),
    ("baseline", "train_baseline"),
    ("harness", "load_dataset_pair"), ("harness", "execute"),
    ("harness", "emit_report"), ("harness", "classwise_report"),
    ("harness", "_write_threshold_trace"), ("harness", "_write_threshold_chart"),
    ("harness", "_write_classwise"), ("harness", "_write_features"),
]

# training-loop namespaces whose paired_minibatches calls open one span per
# iteration; the value is that iteration span's name
ITERATION_SPANS = {"core": "core.dual_iter", "baseline": "baseline.iter"}

MODEL_FORWARDS = {"models." + n for n in (
    "extract_features", "forward_logits", "forward", "predict_probs",
    "predict_labels", "ensemble_predict")}
LOSSES = {"core.loss_fm", "core.loss_bim", "core.loss_sp", "core.loss_cr"}
WRITERS = {
    "harness.emit_report": "metrics",
    "harness._write_threshold_trace": "threshold",
    "harness._write_threshold_chart": "chart",
    "harness._write_classwise": "classwise",
    "harness._write_features": "features",
}
UNITS = {
    "numerics.backward_ms": "ms",
    "numerics.backward_calls_per_iter.baseline": "count/iter",
    "numerics.backward_calls_per_iter.dual": "count/iter",
    "numerics.graph_nodes_per_iter.baseline": "count/iter",
    "numerics.graph_nodes_per_iter.dual": "count/iter",
    "numerics.sgd_step_ms": "ms",
    "models.forwards_per_iter.warmup": "count/iter",
    "models.forwards_per_iter.matching": "count/iter",
    "models.forward_ms": "ms",
    "models.eval_forward_ms": "ms",
    "models.ckpt_save_ms": "ms",
    "models.ckpt_load_ms": "ms",
    "core.dual_ms_per_iter": "ms",
    "core.loss_ms": "ms",
    "core.mixup_ms": "ms",
    "core.threshold_ms": "ms",
    "core.evaluate_ms": "ms",
    "core.gate_above_frac": "fraction",
    "baseline.ms_per_iter": "ms",
    "baseline.eval_ms": "ms",
    "data.load_csv_ms": "ms",
    "data.gen_ms": "ms",
    "data.batching_ms": "ms",
    "unattributed_ms": "ms",
    **{f"harness.write_ms.{key}": "ms" for key in WRITERS.values()},
}
# spans whose own code (loop glue, loss assembly, bookkeeping) no layer span covers
CONTAINERS = {"harness.execute", "core.train_fixbi", "baseline.train_baseline",
              *ITERATION_SPANS.values()}


class Span:
    """One traced call. ``tag`` holds the epoch of an iteration span, the
    graph-node count of a ``backward`` span, and ``[above, size]`` of an
    ``adaptive_threshold`` span."""

    __slots__ = ("name", "caller", "start", "end", "parent", "iteration", "tag")

    def __init__(self, name, caller, start, parent, iteration, tag):
        self.name = name
        self.caller = caller
        self.start = start
        self.end = None
        self.parent = parent
        self.iteration = iteration
        self.tag = tag


def count_graph_nodes(loss) -> int:
    """Nodes a ``backward`` walk from ``loss`` reaches (the loss included)."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent, _ in stack.pop()._vjps:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Records spans around fixbi's functions until :meth:`restore`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, caller: str = "bench", tag=None,
              iteration: bool = False) -> int:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        if iteration:
            it = index
        else:
            it = self.spans[parent].iteration if parent is not None else None
        self.spans.append(Span(name, caller, self.clock(), parent, it, tag))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.remove(index)

    # -- wrapping ----------------------------------------------------------

    def install(self, package: ModuleType) -> None:
        """Wrap every :data:`TRACED` function wherever ``package`` holds it."""
        prefix = package.__name__
        modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == prefix or name.startswith(prefix + "."))}
        for owner, fname in TRACED:
            original = getattr(modules[owner], fname)
            for ns, mod in modules.items():
                if mod.__dict__.get(fname) is original:
                    self._saved.append((mod.__dict__, fname, original))
                    mod.__dict__[fname] = self._wrapper(owner, fname, ns, original)

    def restore(self) -> None:
        for namespace, fname, original in reversed(self._saved):
            namespace[fname] = original
        self._saved.clear()

    def _wrapper(self, owner: str, fname: str, ns: str, fn):
        name = f"{owner}.{fname}"
        if fname == "paired_minibatches" and ns in ITERATION_SPANS:
            return self._batches_wrapper(name, ns, fn)
        if fname == "backward":
            return self._backward_wrapper(name, ns, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, ns)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if fname == "adaptive_threshold":
                self.spans[index].tag = [result.num_above,
                                         result.num_above + result.num_below]
            return result
        return traced

    def _backward_wrapper(self, name, ns, fn):
        @functools.wraps(fn)
        def traced(loss, params):
            count = self.begin("trace.count_nodes", ns)
            nodes = count_graph_nodes(loss)
            self.end(count)
            index = self.begin(name, ns, tag=nodes)
            try:
                return fn(loss, params)
            finally:
                self.end(index)
        return traced

    def _batches_wrapper(self, name, ns, fn):
        iter_name = ITERATION_SPANS[ns]

        def iterate(batches, epoch):
            for batch in batches:
                index = self.begin(iter_name, ns, tag=epoch, iteration=True)
                try:
                    yield batch
                finally:
                    self.end(index)

        @functools.wraps(fn)
        def traced(source, target, batch_size, epoch, seed):
            index = self.begin(name, ns)
            try:
                batches = fn(source, target, batch_size, epoch, seed)
            finally:
                self.end(index)
            return iterate(batches, epoch)
        return traced


# -- analysis ----------------------------------------------------------------

def records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts; ``parent`` and ``iteration`` are span ids."""
    return [{"id": i, "name": s.name, "caller": s.caller, "start": s.start,
             "end": s.end, "parent": s.parent, "iteration": s.iteration,
             "tag": s.tag} for i, s in enumerate(spans)]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def _ancestors(spans: list[Span], s: Span):
    while s.parent is not None:
        s = spans[s.parent]
        yield s


def layer_metrics(spans: list[Span], warmup_epochs: int) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (times in ms, see README.md)."""
    own = self_times(spans)
    ms = 1e3
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_total[s.name] = self_total.get(s.name, 0.0) + t

    def tot(*names):
        return ms * sum(total.get(n, 0.0) for n in names)

    dual_iters = [i for i, s in enumerate(spans) if s.name == "core.dual_iter"]
    base_iters = [i for i, s in enumerate(spans) if s.name == "baseline.iter"]
    per_iter: dict[int, dict[str, int]] = {
        i: {"backward": 0, "nodes": 0, "forwards": 0, "above": 0, "gated": 0}
        for i in dual_iters + base_iters}

    forward_train = forward_eval = core_eval = baseline_eval = 0.0
    for s in spans:
        c = per_iter.get(s.iteration)
        if c is not None:
            if s.name == "numerics.backward":
                c["backward"] += 1
                c["nodes"] += s.tag
            elif s.name == "models.extract_features":
                c["forwards"] += 1
            elif s.name == "core.adaptive_threshold":
                c["above"] += s.tag[0]
                c["gated"] += s.tag[1]
        if s.name not in MODEL_FORWARDS:
            continue
        up = list(_ancestors(spans, s))
        if any(a.name in MODEL_FORWARDS for a in up):
            continue  # counted with its outermost model call
        dur = ms * (s.end - s.start)
        if s.iteration is not None:
            forward_train += dur
        elif not any(a.name in WRITERS for a in up):
            forward_eval += dur
            if s.caller == "core":
                core_eval += dur
            elif s.caller == "baseline":
                baseline_eval += dur

    def mean_of(key, iters):
        return statistics.fmean(per_iter[i][key] for i in iters) if iters else 0.0

    warm = [i for i in dual_iters if spans[i].tag <= warmup_epochs]
    match = [i for i in dual_iters if spans[i].tag > warmup_epochs]
    gated = sum(per_iter[i]["gated"] for i in match)
    out = {
        "numerics.backward_ms": ms * self_total.get("numerics.backward", 0.0),
        "numerics.backward_calls_per_iter.baseline": mean_of("backward", base_iters),
        "numerics.backward_calls_per_iter.dual": mean_of("backward", dual_iters),
        "numerics.graph_nodes_per_iter.baseline": mean_of("nodes", base_iters),
        "numerics.graph_nodes_per_iter.dual": mean_of("nodes", dual_iters),
        "numerics.sgd_step_ms": tot("numerics.sgd_step"),
        "models.forwards_per_iter.warmup": mean_of("forwards", warm),
        "models.forwards_per_iter.matching": mean_of("forwards", match),
        "models.forward_ms": forward_train,
        "models.eval_forward_ms": forward_eval,
        "models.ckpt_save_ms": tot("models.save_checkpoint"),
        "models.ckpt_load_ms": tot("models.load_checkpoint"),
        "core.dual_ms_per_iter": (tot("core.dual_iter") / len(dual_iters)
                                  if dual_iters else 0.0),
        "core.loss_ms": ms * sum(self_total.get(n, 0.0) for n in LOSSES),
        "core.mixup_ms": tot("core.mixup"),
        "core.threshold_ms": tot("core.adaptive_threshold"),
        "core.evaluate_ms": core_eval,
        "core.gate_above_frac": (sum(per_iter[i]["above"] for i in match) / gated
                                 if gated else 0.0),
        "baseline.ms_per_iter": (tot("baseline.iter") / len(base_iters)
                                 if base_iters else 0.0),
        "baseline.eval_ms": baseline_eval,
        "data.load_csv_ms": tot("data.load_csv"),
        "data.gen_ms": tot("data.gen_blobs_shift", "data.gen_moons_shift"),
        "data.batching_ms": tot("data.paired_minibatches"),
        "unattributed_ms": ms * sum(self_total.get(n, 0.0) for n in CONTAINERS),
    }
    for fname, key in WRITERS.items():
        out[f"harness.write_ms.{key}"] = tot(fname)
    return out
