"""Call tracing for the benchmark, installed from outside the program.

Wrappers replace the names the program looks up at call time (for example
`airl.encoder.matmul`, which `encoder` imported by name, or
`airl.optim.Optimizer.step`), so no file under `src/` changes. Every wrapped
call becomes a span: name, start, end, parent span and operation id. A new
operation starts at every top-level call and at every entry into
`frameworks.training_step`. Spans are kept in memory and written out when the
run ends. A span's self time is its duration minus the time covered by its
child spans.

Wrappers only read their arguments and results: they draw no randomness and
mutate no program state, so a traced run follows the same trajectory as an
untraced one.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from airl import (
    augment,
    checkpoint,
    config,
    encoder,
    evaluation,
    frameworks,
    numerics,
    optim,
    runner,
    surgery,
)
from airl.errors import AirlError

LAYERS = (
    "numerics", "augment", "encoder", "frameworks", "optim", "evaluation",
    "surgery", "checkpoint", "runner", "config",
)
KINDS = frameworks.KINDS
# Modules that imported numerics.matmul by name, each wrapped on its own.
MATMUL_CALLERS = {m.__name__.rsplit(".", 1)[1]: m
                  for m in (encoder, frameworks, evaluation, surgery)}
AUGMENT_STAGES = (
    "random_resized_crop", "hflip", "color_jitter", "grayscale",
    "gaussian_blur", "solarize",
)
RNG_DRAWS = ("random", "uniform", "normal", "integers", "permutation")


class WrapSiteMissing(RuntimeError):
    """A name the benchmark wraps no longer exists in the program."""


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` by `make(original)`.

        Raises WrapSiteMissing instead of silently measuring nothing when
        the program no longer defines the name.
        """
        original = vars(owner).get(attr)
        if original is None or not (callable(original)
                                    or isinstance(original, property)):
            raise WrapSiteMissing(
                f"{getattr(owner, '__name__', owner)}.{attr} is gone or not "
                "callable; update the benchmark's wrap sites"
            )
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# ---------------------------------------------------------------------------
# Step clock: one clock read per hot-loop iteration, in every run.


class StepClock:
    """Entry times of the workload's hot-loop iterations.

    Times are grouped in segments (one pretrain, or one BN-statistics
    refresh), and intervals are only taken inside a segment, so set-up and
    probes never count as a step.
    """

    def __init__(self):
        self.segments: list[tuple[str, list[float]]] = []

    def begin(self, label: str) -> None:
        self.segments.append((label, []))

    def intervals(self, label: str | None = None) -> list[float]:
        out: list[float] = []
        for seg_label, marks in self.segments:
            if label is None or seg_label == label:
                out.extend(b - a for a, b in zip(marks, marks[1:]))
        return out

    def marks(self) -> int:
        return sum(len(marks) for _, marks in self.segments)

    def install_training(self, patches: Patches) -> None:
        """Mark every entry into frameworks.training_step."""
        clock = time.perf_counter

        def make(fn):
            def marked(*args, **kwargs):
                self.segments[-1][1].append(clock())
                return fn(*args, **kwargs)
            return marked

        patches.replace(frameworks, "training_step", make)

    def install_refresh(self, patches: Patches) -> None:
        """Mark every training-mode forward inside a BN-statistics refresh;
        each refresh call is its own segment."""
        clock = time.perf_counter

        def make_refresh(fn):
            def segmented(*args, **kwargs):
                self.begin("refresh")
                return fn(*args, **kwargs)
            return segmented

        def make_forward(fn):
            def marked(*args, **kwargs):
                if _arg(args, kwargs, 2, "training"):
                    self.segments[-1][1].append(clock())
                return fn(*args, **kwargs)
            return marked

        patches.replace(encoder, "refresh_running_stats", make_refresh)
        patches.replace(encoder, "forward", make_forward)


# ---------------------------------------------------------------------------
# Counters derived from arguments and results (read-only).


def _count_matmul(counts, args, kwargs, result):
    a, b = args[0], args[1]
    m, inner = np.shape(a)
    n = np.shape(b)[1]
    counts["numerics.matmul.inner_iters"] += inner
    counts["numerics.matmul.flops"] += 2 * m * inner * n


def _count_forward_rows(counts, args, kwargs, result):
    mode = "train" if _arg(args, kwargs, 2, "training") else "eval"
    counts[f"encoder.forward.{mode}.rows"] += np.shape(_arg(args, kwargs, 1, "x"))[0]


def _count_fired(counts, args, kwargs, result):
    counts["augment.stages_fired"] += sum(1 for _, fired, _ in result if fired)


def _count_written(counts, args, kwargs, result):
    counts["checkpoint.bytes_written"] += len(result)


def _count_read(counts, args, kwargs, result):
    counts["checkpoint.bytes_read"] += len(_arg(args, kwargs, 0, "blob"))


def _forward_name(args, kwargs):
    if _arg(args, kwargs, 2, "training"):
        return "encoder.forward.train"
    return "encoder.forward.eval"


# (owner, attribute, span name, counter, starts a new operation)
WRAP_SITES = (
    *((module, "matmul", f"numerics.matmul.{caller}", _count_matmul, False)
      for caller, module in MATMUL_CALLERS.items()),
    (numerics.Rng, "child", "numerics.rng.child", None, False),
    *((numerics.Rng, d, "numerics.rng.draw", None, False) for d in RNG_DRAWS),
    (runner, "two_views", "augment.two_views", None, False),
    (augment, "draw_plan", "augment.draw_plan", _count_fired, False),
    (augment, "resize_bilinear", "augment.resize_bilinear", None, False),
    *((augment, s, f"augment.{s}", None, False) for s in AUGMENT_STAGES),
    (encoder, "forward", _forward_name, _count_forward_rows, False),
    (encoder, "backward", "encoder.backward", None, False),
    (encoder, "refresh_running_stats", "encoder.refresh_running_stats",
     None, False),
    (frameworks, "training_step", "frameworks.training_step", None, True),
    (frameworks, "compute_loss_and_grads",
     "frameworks.compute_loss_and_grads", None, False),
    (frameworks, "contrastive_loss", "frameworks.contrastive_loss", None, False),
    (frameworks, "byol_loss", "frameworks.byol_loss", None, False),
    (frameworks, "ema_update", "frameworks.ema_update", None, False),
    (frameworks.MemoryQueue, "enqueue", "frameworks.queue.enqueue", None, False),
    (optim.Optimizer, "step", "optim.step", None, False),
    (optim, "sgd_step", "optim.sgd_step", None, False),
    (runner, "collapse_metrics", "evaluation.collapse_metrics", None, False),
    (runner, "linear_probe", "evaluation.linear_probe", None, False),
    (evaluation, "linear_probe", "evaluation.linear_probe", None, False),
    (evaluation, "fit_linear_classifier", "evaluation.fit_linear_classifier",
     None, False),
    (runner, "make_synthetic_dataset", "evaluation.make_synthetic_dataset",
     None, False),
    (surgery, "norm_rescale", "surgery.norm_rescale", None, False),
    (surgery, "linear_cka", "surgery.linear_cka", None, False),
    (surgery, "stagewise_cka", "surgery.stagewise_cka", None, False),
    (checkpoint, "checkpoint_bytes", "checkpoint.serialize", _count_written,
     False),
    (checkpoint, "parse_checkpoint_bytes", "checkpoint.parse", _count_read,
     False),
    (checkpoint, "save_checkpoint", "checkpoint.write", None, False),
    (checkpoint, "load_checkpoint", "checkpoint.read", None, False),
    (runner, "pretrain", "runner.pretrain", None, False),
    (runner, "cmd_surgery_rescale", "runner.cmd_surgery_rescale", None, False),
    (runner, "probe_checkpoint", "runner.probe_checkpoint", None, False),
    (runner, "cmd_analyze_cka", "runner.cmd_analyze_cka", None, False),
    (runner, "cmd_analyze_norms", "runner.cmd_analyze_norms", None, False),
    (config, "parse_config", "config.parse_config", None, False),
    (checkpoint, "parse_config", "config.parse_config", None, False),
)


class Tracer:
    """Spans and per-name aggregates of one traced unit of work."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self._counted_errors: list[BaseException] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self.op = 0

    def install(self, patches: Patches) -> None:
        for owner, attr, name, counter, new_op in WRAP_SITES:
            patches.replace(
                owner, attr,
                lambda fn, name=name, counter=counter, new_op=new_op:
                    self._wrap(fn, name, counter, new_op),
            )
        patches.replace(numerics.Rng, "_generator", self._wrap_generator)

    def _wrap_generator(self, prop: property) -> property:
        # Only the first draw of a stream builds its Philox generator; time
        # those builds and let cached lookups through untouched.
        build = self._wrap(prop.fget, "numerics.rng.build", None, False)

        def get(rng):
            if rng._gen is not None:
                return rng._gen
            return build(rng)

        return property(get)

    def _wrap(self, fn, name, counter, new_op):
        tracer = self
        clock = time.perf_counter
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if new_op or parent is None:
                tracer.op += 1
            op = tracer.op
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except AirlError as exc:
                tracer._note_error(span_name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                tracer._close(span_name, sid, parent, op, start, end, frame[1])
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _close(self, name, sid, parent, op, start, end, child_s) -> None:
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_op.append(op)

    def _note_error(self, name: str, exc: BaseException) -> None:
        # Count an error once, in the module of the innermost span it left.
        if any(exc is seen for seen in self._counted_errors):
            return
        self._counted_errors.append(exc)
        self.errors[name.split(".", 1)[0]] += 1

    def write_spans(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, value of one traced unit).

MATMUL_SPANS = tuple(f"numerics.matmul.{c}" for c in MATMUL_CALLERS)
RNG_SPANS = ("numerics.rng.child", "numerics.rng.build", "numerics.rng.draw")


def _calls(name, spans=None):
    spans = spans or (name,)
    return (f"{name}.calls", "count", "lower",
            lambda tr, clock: sum(tr.calls[s] for s in spans))


def _self_s(name, spans=None):
    spans = spans or (name,)
    return (f"{name}.self_s", "s", "lower",
            lambda tr, clock: sum(tr.self_s[s] for s in spans))


def _total_s(name):
    return (f"{name}.s", "s", "lower", lambda tr, clock: tr.total_s[name])


def _counted(name, unit="count"):
    return (name, unit, "lower", lambda tr, clock: tr.counts[name])


def _gflops_per_s(tr, clock):
    seconds = sum(tr.self_s[s] for s in MATMUL_SPANS)
    flops = tr.counts["numerics.matmul.flops"]
    return flops / seconds / 1e9 if seconds else 0.0


def _augment_ms_per_batch(tr, clock):
    steps = tr.calls["frameworks.training_step"]
    return 1e3 * tr.total_s["augment.two_views"] / steps if steps else 0.0


def _step_ms_p50(kind):
    def value(tr, clock):
        intervals = clock.intervals(kind)
        return 1e3 * float(np.median(intervals)) if intervals else 0.0
    return (f"frameworks.training_step.{kind}.ms_p50", "ms", "lower", value)


def _errors(layer):
    return (f"{layer}.errors", "count", "lower",
            lambda tr, clock: tr.errors[layer])


# The trace.run_s and trace.overhead_share values need the untraced units
# too; the harness fills them in.
LAYER_METRICS = (
    _calls("numerics.matmul", MATMUL_SPANS),
    _self_s("numerics.matmul", MATMUL_SPANS),
    _counted("numerics.matmul.inner_iters"),
    _counted("numerics.matmul.flops"),
    ("numerics.matmul.gflops_per_s", "GFLOP/s", "higher", _gflops_per_s),
    *(_self_s(span) for span in MATMUL_SPANS),
    _calls("numerics.rng.child"),
    ("numerics.rng.generators_built", "count", "lower",
     lambda tr, clock: tr.calls["numerics.rng.build"]),
    _self_s("numerics.rng", RNG_SPANS),
    _calls("augment.two_views"),
    _self_s("augment.two_views"),
    ("augment.ms_per_batch", "ms", "lower", _augment_ms_per_batch),
    _counted("augment.stages_fired"),
    *(row for fn in ("draw_plan", "resize_bilinear", *AUGMENT_STAGES)
      for row in (_calls(f"augment.{fn}"), _self_s(f"augment.{fn}"))),
    *(row for mode in ("train", "eval")
      for row in (_calls(f"encoder.forward.{mode}"),
                  _self_s(f"encoder.forward.{mode}"),
                  _counted(f"encoder.forward.{mode}.rows"))),
    _calls("encoder.backward"),
    _self_s("encoder.backward"),
    _total_s("encoder.refresh_running_stats"),
    _calls("frameworks.training_step"),
    _self_s("frameworks.training_step"),
    *(_step_ms_p50(kind) for kind in KINDS),
    *(_self_s(f"frameworks.{fn}")
      for fn in ("compute_loss_and_grads", "contrastive_loss", "byol_loss",
                 "ema_update", "queue.enqueue")),
    _calls("optim.step"),
    _self_s("optim.step"),
    _self_s("optim.sgd_step"),
    _calls("evaluation.collapse_metrics"),
    _self_s("evaluation.collapse_metrics"),
    _total_s("evaluation.linear_probe"),
    _self_s("evaluation.fit_linear_classifier"),
    _total_s("evaluation.make_synthetic_dataset"),
    _self_s("surgery.norm_rescale"),
    _calls("surgery.linear_cka"),
    _self_s("surgery.linear_cka"),
    _total_s("surgery.stagewise_cka"),
    *(_self_s(f"checkpoint.{fn}")
      for fn in ("serialize", "parse", "write", "read")),
    _counted("checkpoint.bytes_written", "bytes"),
    _counted("checkpoint.bytes_read", "bytes"),
    _self_s("runner.pretrain"),
    _self_s("runner.cmd_surgery_rescale"),
    _self_s("config.parse_config"),
    *(_errors(layer) for layer in LAYERS),
    ("trace.spans", "count", "lower", lambda tr, clock: len(tr.span_id)),
    ("trace.run_s", "s", "lower", None),
    ("trace.overhead_share", "ratio", "lower", None),
)

PER_LAYER = tuple(row[:3] for row in LAYER_METRICS)

# Count metrics that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "numerics.matmul.inner_iters", "numerics.rng.child.calls",
    "numerics.rng.generators_built", "augment.stages_fired",
    "checkpoint.bytes_written",
)


def unit_layer_values(tracer: Tracer, clock: StepClock) -> dict[str, float]:
    """Per-layer values of one traced unit (all but the trace.* run times)."""
    return {name: value(tracer, clock)
            for name, _, _, value in LAYER_METRICS if value is not None}
