"""Spans around the calls into each biracks layer, recorded from outside.

Tracer.install() rebinds public functions in the module namespaces where
their callers look them up (for example `enumerate_labelings` inside
biracks.invariants), plus the three methods that every caller reaches
through a class.  Each call then records a span: id, parent span id,
request id, name, start and end in nanoseconds of the tracer's clock
(perf_counter_ns, or a clock that stops while the worker times its
reference kernel), and one
number (a result size, or a hash of an image subbirack).  Spans stay in
memory until the worker writes them out after its last request.

A span is named <layer>.<function>; the layer is the biracks module that
does the work.  summarize() turns a span file into per-layer metrics:
self time is a span's duration minus its child spans'.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

# (module whose namespace is patched, attribute, span name)
BINDINGS = (
    ("biracks.cli", "read_matrix_file", "core.read_matrix_file"),
    ("biracks.cli", "parse_matrix_text", "core.parse_matrix_text"),
    ("biracks.cli", "verify_axioms", "core.verify"),
    ("biracks.cli", "classify", "core.classify"),
    ("biracks.cli", "all_subbiracks", "core.all_subbiracks"),
    ("biracks.cli", "format_matrix", "core.format_matrix"),
    ("biracks.cli", "tsr_birack", "families.tsr_birack"),
    ("biracks.cli", "constant_action", "families.constant_action"),
    ("biracks.cli", "parse_gauss", "diagram.parse_gauss"),
    ("biracks.cli", "compute_invariant", "invariants.compute_invariant"),
    ("biracks.cli", "normalize", "invariants.normalize"),
    ("biracks.cli", "subbirack_polynomial", "invariants.subbirack_polynomial"),
    ("biracks.cli", "birack_polynomial", "invariants.birack_polynomial"),
    ("biracks.core", "all_subbiracks", "core.all_subbiracks"),
    ("biracks.core", "subbirack_closure", "core.subbirack_closure"),
    ("biracks.homsearch", "subbirack_closure", "core.subbirack_closure"),
    ("biracks.invariants", "compute_invariant", "invariants.compute_invariant"),
    ("biracks.invariants", "labelings_by_framing", "invariants.labelings_by_framing"),
    ("biracks.invariants", "subbirack_polynomial", "invariants.subbirack_polynomial"),
    ("biracks.invariants", "is_subbirack", "core.is_subbirack"),
    ("biracks.invariants", "enumerate_labelings", "homsearch.enumerate_labelings"),
    ("biracks.invariants", "labeling_image", "homsearch.labeling_image"),
    ("biracks.invariants", "with_framing", "diagram.with_framing"),
    ("biracks.invariants", "unlink", "diagram.unlink"),
    ("biracks.poly", "parse_multipoly", "poly.parse_multipoly"),
)
# (module, class, method, span name)
METHODS = (
    ("biracks.core", "FiniteBirack", "__init__", "core.verify"),
    ("biracks.poly", "MultiPoly", "canonical_string", "poly.canonical_string"),
    ("biracks.poly", "NestedPoly", "canonical_string", "poly.canonical_string"),
)
EXTRA = {
    "homsearch.enumerate_labelings": len,
    "homsearch.labeling_image": hash,
    "core.all_subbiracks": len,
}
LAYERS = ("cli", "core", "families", "diagram", "homsearch", "invariants", "poly")


class Tracer:
    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self.request = 0
        self._stack = [0]
        self._next = 1

    def wrap(self, name: str, fn):
        extra = EXTRA.get(name)

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            value = 0
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    value = extra(result)
                return result
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append((sid, parent, self.request, name, start, end, value))

        return traced

    def install(self) -> None:
        for module, attr, name in BINDINGS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for module, cls, attr, name in METHODS:
            klass = getattr(importlib.import_module(module), cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr)))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def summarize(path, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass of the request list, from a span file."""
    spans = []
    child_ns: dict[int, int] = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            sid, parent, req, name, start, end, value = line.rstrip("\n").split("\t")
            dur = int(end) - int(start)
            spans.append((int(sid), int(parent), int(req), name, dur, int(value)))
            child_ns[int(parent)] += dur
    name_of = {span[0]: span[3] for span in spans}
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, int] = defaultdict(int)
    empty = closures_listing = 0
    images = set()
    for sid, parent, req, name, dur, value in spans:
        self_ns[name] += dur - child_ns[sid]
        calls[name] += 1
        values[name] += value
        if name == "homsearch.enumerate_labelings":
            empty += value == 0
        elif name == "homsearch.labeling_image":
            images.add((req, value))
        elif name == "core.subbirack_closure":
            closures_listing += name_of.get(parent) == "core.all_subbiracks"

    def s(name):
        return self_ns[name] / 1e9 / passes, "s"

    def n(name):
        return calls[name] / passes, "count"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    layer_ns = defaultdict(int)
    for name, ns in self_ns.items():
        layer_ns[name.split(".")[0]] += ns
    total_ns = sum(layer_ns.values())
    metrics = {
        "cli.self_s": s("cli.main"),
        "core.read_matrix_file.s": s("core.read_matrix_file"),
        "core.verify.s": s("core.verify"),
        "core.subbirack_closure.s": s("core.subbirack_closure"),
        "core.subbirack_closure.calls": n("core.subbirack_closure"),
        "core.all_subbiracks.s": s("core.all_subbiracks"),
        "core.subbiracks_per_closure": ratio(values["core.all_subbiracks"], closures_listing),
        "families.tsr_birack.s": s("families.tsr_birack"),
        "families.tsr_birack.calls": n("families.tsr_birack"),
        "families.constant_action.s": s("families.constant_action"),
        "diagram.parse_gauss.s": s("diagram.parse_gauss"),
        "diagram.parse_gauss.calls": n("diagram.parse_gauss"),
        "diagram.with_framing.s": s("diagram.with_framing"),
        "diagram.with_framing.calls": n("diagram.with_framing"),
        "homsearch.enumerate_labelings.s": s("homsearch.enumerate_labelings"),
        "homsearch.enumerate_labelings.calls": n("homsearch.enumerate_labelings"),
        "homsearch.labelings": (values["homsearch.enumerate_labelings"] / passes, "count"),
        "homsearch.empty_search_ratio": ratio(empty, calls["homsearch.enumerate_labelings"]),
        "homsearch.labeling_image.s": s("homsearch.labeling_image"),
        "homsearch.labeling_image.calls": n("homsearch.labeling_image"),
        "homsearch.image_reuse_ratio": ratio(len(images), calls["homsearch.labeling_image"]),
        "invariants.compute_invariant.self_s": s("invariants.compute_invariant"),
        "invariants.labelings_by_framing.s": s("invariants.labelings_by_framing"),
        "invariants.normalize.s": s("invariants.normalize"),
        "invariants.subbirack_polynomial.s": s("invariants.subbirack_polynomial"),
        "invariants.subbirack_polynomial.calls": n("invariants.subbirack_polynomial"),
        "poly.parse_multipoly.s": s("poly.parse_multipoly"),
        "poly.parse_multipoly.calls": n("poly.parse_multipoly"),
        "poly.canonical_string.s": s("poly.canonical_string"),
        "poly.canonical_string.calls": n("poly.canonical_string"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = layer_ns[layer] / 1e9 / passes, "s"
        metrics[f"layer.{layer}.share"] = ratio(layer_ns[layer], total_ns)
    return metrics
