"""Call-site timing wrappers for spinstep's public functions.

A Tracer replaces each traced function, in every module that looks it up
as a global (its call sites, listed in layers.json), with a wrapper that
records one span per call: id, parent span id, operation id, layer name,
start and end (perf_counter_ns), time covered by child spans, and the
exception type if the call raised.  Self time is the span's duration minus
its children's.  Aggregates are kept for every call; raw spans are kept in
memory up to SPAN_CAP and written out when the run ends.

A name that no longer exists at some commit is skipped and reports zero
calls, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

LAYERS_FILE = Path(__file__).with_name("layers.json")

# Raw spans kept for the spans file; aggregates always cover every call.
SPAN_CAP = 100_000

SPAN_FIELDS = ("span", "parent", "op", "layer", "start_ns", "end_ns", "child_ns", "error")


def load_layers() -> dict:
    return json.loads(LAYERS_FILE.read_text(encoding="utf-8"))


def per_layer_names(layers: dict | None = None) -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in a fixed order.
    Counts and times are per traced operation, so that they do not grow
    with the run length or the program's speed."""
    layers = layers or load_layers()
    names = []
    for entry in layers["functions"]:
        base = entry["layer"]
        names += [
            (f"{base}.calls", "1/op", "lower"),
            (f"{base}.self_us_per_call", "us", "lower"),
            (f"{base}.total_ms", "ms/op", "lower"),
            (f"{base}.errors", "1/op", "lower"),
        ]
    names += [(e["metric"], "1/op", "lower") for e in layers["errors_by_type"]]
    names += [(d["metric"], d["unit"], d.get("better", "lower")) for d in layers["derived"]]
    return names


class Tracer:
    """Span recorder for one process; single-threaded by design."""

    def __init__(self, layers: dict | None = None):
        self.layers = layers or load_layers()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception type) -> count
        self.op_calls: Counter = Counter()  # calls inside the current operation
        self.op_id = 0
        self._next_span = 1
        self._stack: list[list] = []
        self._patches: list[tuple] | None = None  # (module, attribute, original, wrapper)
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced function at its call sites; return the layers
        that could not be found.  The wrappers are built on the first call
        and reused, so installing per operation is cheap."""
        if self._patches is None:
            self._patches, self.missing = self._build_patches()
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self.missing

    def uninstall(self):
        for module, attr, original, wrapper in reversed(self._patches or []):
            if getattr(module, attr, None) is wrapper:
                setattr(module, attr, original)

    def _build_patches(self):
        patches, missing = [], []
        for entry in self.layers["functions"]:
            layer = entry["layer"]
            attr = layer.rsplit(".", 1)[1]
            found = False
            for site in entry["sites"]:
                try:
                    module = importlib.import_module(site)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                patches.append((module, attr, original, self._wrap(layer, original)))
                found = True
            if not found:
                missing.append(layer)
        return patches, missing

    def _wrap(self, layer: str, fn):
        call = self._call

        def traced(*args, **kwargs):
            return call(layer, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- recording --------------------------------------------------------

    def _call(self, layer, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_span
        self._next_span += 1
        frame = [span_id, 0]
        stack.append(frame)
        error = None
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.calls[layer] += 1
            self.op_calls[layer] += 1
            self.total_ns[layer] += duration
            self.self_ns[layer] += duration - frame[1]
            if error is not None:
                self.errors[(layer, error)] += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append((
                    span_id, parent[0] if parent else 0, self.op_id, layer,
                    start, end, frame[1], error,
                ))
            else:
                self.dropped += 1

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.op_calls.clear()

    # -- merging and reporting ----------------------------------------------

    def export(self) -> dict:
        """Aggregates and spans as plain JSON data (used by child processes)."""
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "errors": [[layer, kind, n] for (layer, kind), n in self.errors.items()],
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, data: dict, op_id: int):
        """Fold a child process's export into this tracer under op_id."""
        self.calls.update(data["calls"])
        self.op_calls.update(data["calls"])
        self.total_ns.update(data["total_ns"])
        self.self_ns.update(data["self_ns"])
        for layer, kind, n in data["errors"]:
            self.errors[(layer, kind)] += n
        offset = self._next_span
        for span in data["spans"]:
            if len(self.spans) >= SPAN_CAP:
                self.dropped += 1
                continue
            sid, parent, _op, layer, start, end, child, error = span
            self.spans.append((
                sid + offset, parent + offset if parent else 0, op_id, layer,
                start, end, child, error,
            ))
            self._next_span = max(self._next_span, sid + offset + 1)
        self.dropped += data["dropped"]

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """<layer>.{calls,self_us_per_call,total_ms,errors} and the error
        types, counts and times per operation over `ops` traced operations."""
        out = {}
        for entry in self.layers["functions"]:
            layer = entry["layer"]
            calls = self.calls.get(layer, 0)
            out[f"{layer}.calls"] = calls / ops
            out[f"{layer}.self_us_per_call"] = (
                self.self_ns[layer] / calls / 1e3 if calls else 0.0
            )
            out[f"{layer}.total_ms"] = self.total_ns.get(layer, 0) / 1e6 / ops
            out[f"{layer}.errors"] = sum(
                n for (name, _), n in self.errors.items() if name == layer
            ) / ops
        for entry in self.layers["errors_by_type"]:
            layer, kind = entry["metric"].split(".errors.")
            out[entry["metric"]] = self.errors.get((layer, kind), 0) / ops
        return out

    def errors_by_type(self) -> dict[str, int]:
        return {f"{layer}.errors.{kind}": n for (layer, kind), n in sorted(self.errors.items())}

    def write_spans(self, path: Path):
        """Write the kept spans as CSV, one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in span) + "\n")
