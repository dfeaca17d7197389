"""Layer spans recorded from outside persint, by wrapping its public functions.

Each wrapped function is replaced at the module attribute where a caller
looks it up (``persint.pipelines.compute_persistence``,
``persint.cli.read_field``, ``persint.inference.power_trial``, ...), so the
program itself is unchanged. A span records its layer, the binding it was
entered through, its start and end, the index of the span open around it
and the work counts of the call. Spans stay in memory until the traced
iteration ends; ``summarize`` turns them into per-layer metrics, where a
layer's ``busy_s`` is its self time: span minus child spans. The two roots,
the recipe runners in ``pipelines`` and ``cli.main``, report that self time
as ``pipelines.self_s`` and ``cli.self_s``: run time no layer span covers.
"""

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from persint import analyze, cli, inference, pipelines

ROOT_LAYERS = ("pipelines", "cli")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _points(args, kwargs, cloud):
    return {"synth.points": len(cloud)}


def _nodes(args, kwargs, fld):
    return {"field.nodes": fld.values.size}


def _persistence_layer(args, kwargs):
    return f"persistence.maxdim{int(_arg(args, kwargs, 2, 'max_dim', 1))}"


def _persistence_counts(args, kwargs, diagram):
    cells = _arg(args, kwargs, 0, "field").values.size
    dims = [p.dim for p in diagram.pairs]
    return {
        "persistence.cells": cells,
        f"{_persistence_layer(args, kwargs)}.cells": cells,
        "persistence.pairs_dim0": dims.count(0),
        "persistence.pairs_dim1": dims.count(1),
    }


def _smoothed(args, kwargs, grid):
    return {"intensity.pairs_smoothed": len(_arg(args, kwargs, 0, "diagram"))}


def _permutations(args, kwargs, result):
    return {"inference.permutations": result.permutations}


def _written(args, kwargs, result):
    return {"io.write.bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _read(args, kwargs, result):
    return {"io.read.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute, layer or layer-of-arguments, counter or None)
SITES = [
    (pipelines, "run_fig2", "pipelines", None),
    (pipelines, "run_fig4", "pipelines", None),
    (pipelines, "run_mise", "pipelines", None),
    (cli, "main", "cli", None),
    (pipelines, "generate_population", "synth", _points),
    (inference, "generate_population", "synth", _points),
    (cli, "generate_population", "synth", _points),
    (pipelines, "kde_grid", "field.kde", _nodes),
    (inference, "kde_grid", "field.kde", _nodes),
    (cli, "kde_grid", "field.kde", _nodes),
    (cli, "distance_grid", "field.dist", _nodes),
    (pipelines, "compute_persistence", _persistence_layer, _persistence_counts),
    (inference, "compute_persistence", _persistence_layer, _persistence_counts),
    (cli, "compute_persistence", _persistence_layer, _persistence_counts),
    (pipelines, "smooth_diagram", "intensity.smooth", _smoothed),
    (inference, "smooth_diagram", "intensity.smooth", _smoothed),
    (cli, "smooth_diagram", "intensity.smooth", _smoothed),
    (inference, "permutation_test", "inference.permutation", _permutations),
    (cli, "permutation_test", "inference.permutation", _permutations),
    (inference, "power_trial", "inference.power_trial", None),
    (pipelines, "distance_matrix", "analyze.distance_matrix", None),
    # cli imports distance_matrix from persint.analyze at call time.
    (analyze, "distance_matrix", "analyze.distance_matrix", None),
    (pipelines, "classical_mds", "analyze.mds", None),
    (cli, "classical_mds", "analyze.mds", None),
    (cli, "similarity_from_distance", "analyze.spectral", None),
    (cli, "spectral_embed", "analyze.spectral", None),
    (cli, "kmeans", "analyze.kmeans", None),
]
for _module in (pipelines, cli):
    for _name in ("cloud", "field", "diagram", "intensity", "matrix", "embedding"):
        SITES.append((_module, f"write_{_name}", "io.write", _written))
for _name in ("cloud", "field", "diagram", "intensity", "matrix"):
    SITES.append((cli, f"read_{_name}", "io.read", _read))


@dataclass
class Span:
    layer: str
    site: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs span-recording wrappers at every site in ``SITES``."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _enter(self, layer, site):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(layer, site, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _exit(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, site, layer, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(layer(args, kwargs) if callable(layer) else layer, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator_factory(self, factory):
        # The diagram source of the mise recipe is a closure built by
        # pipelines.make_generator; wrap what it returns.
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self._wrap(factory(*args, **kwargs), "make_generator()", "inference.source", None)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore them."""
        saved = []
        try:
            for module, attr, layer, counter in SITES:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                site = f"{module.__name__.removeprefix('persint.')}.{attr}"
                setattr(module, attr, self._wrap(fn, site, layer, counter))
            saved.append((pipelines, "make_generator", pipelines.make_generator))
            pipelines.make_generator = self._wrap_generator_factory(pipelines.make_generator)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summarize(self):
        """Per-layer calls, self seconds and counts over all recorded spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out = defaultdict(float)
        for i, span in enumerate(self.spans):
            busy = span.end - span.start - child[i]
            key = "self_s" if span.layer in ROOT_LAYERS else "busy_s"
            out[f"{span.layer}.calls"] += 1
            out[f"{span.layer}.{key}"] += busy
            for name, value in span.counts.items():
                out[name] += value
        return dict(out)

    def stage_seconds(self, stage_of_site):
        """Summed durations of the spans directly under a root, by recipe stage."""
        out = defaultdict(float)
        for span in self.spans:
            if span.parent is None or self.spans[span.parent].layer not in ROOT_LAYERS:
                continue
            stage = stage_of_site.get(span.site)
            if stage is not None:
                out[stage] += span.end - span.start
        return dict(out)
