"""Outside-in span tracing of ``grappa`` for the benchmark's traced runs.

The program is not edited. Each public function is wrapped where a caller
looks it up (``grappa.train.forward_antoine`` is the name ``fit`` calls), so
a span opens and closes around every call into a layer. Spans live in
memory, carry their parent's id, and are written when the run ends.

A span's self time is its duration minus the part covered by its child
spans; summed over all spans it adds up to the wall time of the root spans
without double counting.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (module, attribute, span name). ``Tensor.backward`` is patched on the
# class; everything else on the module whose code looks the name up.
SITES = (
    ("grappa.model", "parse_smiles", "smiles.parse"),
    ("grappa.train", "parse_smiles", "smiles.parse"),
    ("grappa.dataio", "parse_smiles", "smiles.parse"),
    ("grappa.model", "featurize", "featurize"),
    ("grappa.train", "featurize", "featurize"),
    ("grappa.model", "validate_scope", "featurize.scope"),
    ("grappa.dataio", "validate_scope", "featurize.scope"),
    ("grappa.featurize", "validate_scope", "featurize.scope"),
    ("grappa.model", "encode", "gnn.encode"),
    ("grappa.gnn", "gat_forward", "gnn.layer"),
    ("grappa.model", "interaction_pool", "pooling"),
    ("grappa.model", "sum_pool", "pooling"),
    ("grappa.model", "forward_antoine", "model.forward"),
    ("grappa.train", "forward_antoine", "model.forward"),
    ("grappa.model", "head_raw", "model.head"),
    ("grappa.model", "scale_to_ranges", "model.head"),
    ("grappa.model", "predict", "model.predict"),
    ("grappa.model", "predict_dataset", "model.predict_dataset"),
    ("grappa.model", "load_checkpoint", "model.ckpt_load"),
    ("grappa.train", "to_checkpoint", "model.snapshot"),
    ("grappa.train", "load_into", "model.restore"),
    ("grappa.tensor", "Tensor.backward", "tensor.backward"),
    ("grappa.model", "ln_vapor_pressure", "antoine"),
    ("grappa.model", "boiling_temperature", "antoine"),
    ("grappa.metrics", "boiling_temperature", "antoine"),
    ("grappa.train", "fit", "train.fit"),
    ("grappa.train", "loss_mse", "train.loss"),
    ("grappa.train", "loss_huber", "train.loss"),
    ("grappa.train", "adamw_step", "train.adamw"),
    ("grappa.train", "validation_mape_i", "train.validate"),
    ("grappa.dataio", "load", "dataio.load"),
    ("grappa.dataio", "curate", "dataio.curate"),
    ("grappa.dataio", "robust_antoine_fit", "dataio.fit"),
    ("grappa.dataio", "split", "dataio.split"),
    ("grappa.metrics", "summarize", "metrics.summarize"),
    ("grappa.metrics", "binned_reports", "metrics.binned"),
    ("grappa.metrics", "boiling_point_eval", "metrics.boiling"),
)

_MARK = "_perfbench_span"


def _resolve(module: str, attr: str) -> tuple[object, str]:
    """The object that holds ``attr`` (a module or a class) and the name."""
    owner = importlib.import_module(module)
    while "." in attr:
        head, attr = attr.split(".", 1)
        owner = getattr(owner, head)
    return owner, attr


def _info(name: str, args, result):
    """Per-call detail some metrics need, taken from arguments or result."""
    if name == "model.forward":
        return len(args[1])
    if name == "featurize":
        return hash((args[0].atoms, args[0].bonds))
    if name == "dataio.fit":
        return bool(result.converged)
    return None


class Tracer:
    """Installs wrappers on :data:`SITES`; ``uninstall`` puts originals back."""

    def __init__(self):
        # [name, id, parent, start, end, child_seconds, tensors_at_start,
        #  tensors_at_end, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.tensors_created = 0

    # ----------------------------------------------------------- patching

    def install(self) -> "Tracer":
        for module, dotted, name in SITES:
            owner, attr = _resolve(module, dotted)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the site is gone; its metrics read zero
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))
        # Tensors created are counted, not timed: one span per tensor would
        # cost more than the work it measures.
        tensor_cls, _ = _resolve("grappa.tensor", "Tensor.__init__")
        init = tensor_cls.__init__
        tracer = self

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            tracer.tensors_created += 1
            init(obj, *args, **kwargs)

        setattr(counting_init, _MARK, "tensor.init")
        tensor_cls.__init__ = counting_init
        self._patches.append((tensor_cls, "__init__", init))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, span_id, parent, 0.0, 0.0, 0.0,
                      tracer.tensors_created, 0, None]
            spans.append(record)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[3], record[4] = start, end
                record[7] = tracer.tensors_created
                if parent >= 0:
                    spans[parent][5] += end - start
            record[8] = _info(name, args, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    # ---------------------------------------------------------- summaries

    def by_name(self) -> dict[str, dict]:
        """Calls, self seconds and inclusive seconds per span name."""
        out: dict[str, dict] = {}
        for name, _, _, start, end, child, _, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child
            row["incl_s"] += end - start
        return out

    def write_jsonl(self, path) -> None:
        keys = ("name", "id", "parent", "start", "end", "child_s",
                "tensors_at_start", "tensors_at_end", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def patched_sites() -> list[str]:
    """Sites that currently hold a benchmark wrapper; empty when clean."""
    found = []
    for module, dotted, _ in SITES + (("grappa.tensor", "Tensor.__init__", ""),):
        owner, attr = _resolve(module, dotted)
        if hasattr(getattr(owner, attr, None), _MARK):
            found.append(f"{module}.{dotted}")
    return found
