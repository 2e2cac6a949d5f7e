"""Run one bagkit CLI pass with spans and counts recorded around its layers.

    python3 perfbench/trace_pass.py SPANS_JSON BAGKIT_ARGS...

Each layer's public function is wrapped under the name its caller looks it
up by (``bagkit.experiment.fit``, not ``bagkit.predictor.fit``), so the
program's own code is unchanged. A span is (id, parent id, name, start, end,
thread); parents come from a per-thread stack, so the spans of concurrent
configurations nest correctly. Spans and counts stay in memory and are
written to SPANS_JSON when the pass ends. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time


def _hashable(value):
    """A stand-in for value in a distinctness key: datasets by their rows."""
    examples = getattr(value, "examples", None)
    return value if examples is None else ("rows", examples)


class Tracer:
    """Spans and per-layer counts for one process.

    Updates from worker threads are single ``list.append``, ``set.add`` and
    ``next`` calls, each atomic under the interpreter lock.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.distinct: dict[str, set] = {}
        self.rows: dict[str, list[int]] = {}
        self.pool_starts: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, key_params=(), count_rows=False):
        """Wrap fn so each call records a span, a distinctness key and result rows."""
        sig = inspect.signature(fn) if key_params else None
        distinct = self.distinct.setdefault(name, set()) if key_params else None
        rows = self.rows.setdefault(name, []) if count_rows else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if distinct is not None:
                if len(args) == len(key_params) and not kwargs:
                    values = args
                else:
                    bound = sig.bind_partial(*args, **kwargs)
                    bound.apply_defaults()
                    values = [bound.arguments.get(p) for p in key_params]
                key = tuple(_hashable(v) for v in values)
                try:
                    distinct.add(key)
                except TypeError:
                    distinct.add(tuple(id(v) for v in values))
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, threading.get_ident()))
            if rows is not None:
                rows.append(len(result))
            return result

        return wrapper

    def patch(self, module: str, attr: str, name: str, key_params=(), count_rows=False):
        """Wrap module.attr; a name the module no longer has is left alone (reads 0)."""
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is not None:
            setattr(mod, attr, self.span(name, fn, key_params, count_rows))

    def mark_pool_start(self, executor_cls):
        """Wrap an executor class so the time each pool is created is recorded."""

        def make(*args, **kwargs):
            self.pool_starts.append(time.perf_counter())
            return executor_cls(*args, **kwargs)

        return make

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "rows": {name: sum(r) for name, r in self.rows.items()},
            "pool_starts": self.pool_starts,
        }


# (module the caller looks the function up in, attribute, span name,
#  parameters that make a call distinct, count rows of the result)
LAYERS = (
    ("bagkit.predictor", "featurize", "predictor.featurize", ("example", "spec"), False),
    ("bagkit.experiment", "fit", "predictor.fit", ("train", "spec", "hyper"), False),
    ("bagkit.experiment", "predict_proba_dataset", "predictor.predict_proba_dataset", (), False),
    ("bagkit.ensemble", "predict_proba_dataset", "predictor.predict_proba_dataset", (), False),
    (
        "bagkit.experiment",
        "grid_search",
        "experiment.grid_search",
        ("space", "train", "val", "metric", "feature_spec"),
        False,
    ),
    ("bagkit.cli", "run_config", "experiment.run_config", (), False),
    ("bagkit.cli", "variance_analysis", "experiment.variance_analysis", (), False),
    ("bagkit.cli", "write_report", "experiment.write_report", (), False),
    ("bagkit.cli", "write_variance_report", "experiment.write_variance_report", (), False),
    ("bagkit.experiment", "materialize", "resample.materialize", (), False),
    ("bagkit.experiment", "make_plan", "resample.make_plan", (), False),
    ("bagkit.cli", "make_plan", "resample.make_plan", (), False),
    ("bagkit.experiment", "prune_magnitude", "prune.prune_magnitude", (), False),
    ("bagkit.experiment", "predict_dataset", "ensemble.predict_dataset", (), False),
    ("bagkit.experiment", "evaluate", "metrics.evaluate", (), False),
    ("bagkit.cli", "load_data_dir", "config.load_data_dir", (), False),
    ("bagkit.config", "load_jsonl", "dataset.load_jsonl", (), True),
)


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for module, attr, name, key_params, count_rows in LAYERS:
        tracer.patch(module, attr, name, key_params, count_rows)
    cli = importlib.import_module("bagkit.cli")
    if hasattr(cli, "ThreadPoolExecutor"):
        cli.ThreadPoolExecutor = tracer.mark_pool_start(cli.ThreadPoolExecutor)
    code = tracer.span("cli.main", cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
