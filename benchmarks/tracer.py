"""In-memory span tracer that wraps gml's public functions from outside.

``Tracer.install()`` replaces every traced function at every place it is
bound: the defining module, each ``gml`` module that imported it with
``from .x import y``, and the ``gml`` package re-exports.  Constructors
and methods are wrapped on their class.  ``Tracer.restore()`` puts every
original object back.  Nothing under ``src/`` is edited.

A span is (name, parent span, start, end, status).  Spans are kept in
flat arrays while the run goes and are turned into per-name call counts
and self times afterwards; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute path).  Span names follow the
# benchmark's per-layer metric names: <layer>.<function>.
TARGETS = (
    ("rng.substream", "gml.rng", "substream"),
    ("rng.unit_vector", "gml.rng", "unit_vector"),
    ("rng.open_uniform", "gml.rng", "open_uniform"),
    ("model.ProjPoint", "gml.model", "ProjPoint.__init__"),
    ("model.WeightedModel", "gml.model", "WeightedModel.__init__"),
    ("model.validate_direction", "gml.model", "WeightedModel.validate_direction"),
    ("model.require_basis", "gml.model", "WeightedModel.require_basis"),
    ("model.flow_limit", "gml.model", "flow_limit"),
    ("model.flow", "gml.model", "flow"),
    ("model.gradient_map", "gml.model", "gradient_map"),
    ("model.direction_certificate", "gml.model", "direction_certificate"),
    ("model.model_chain_threshold", "gml.model", "model_chain_threshold"),
    ("model.fixed_components", "gml.model", "fixed_components"),
    ("model.composed_limit", "gml.model", "composed_limit"),
    ("model.perturbed_limit", "gml.model", "perturbed_limit"),
    ("model.random_weighted_model", "gml.model", "random_weighted_model"),
    ("hull.Polytope", "gml.hull", "Polytope.__init__"),
    ("hull.contains", "gml.hull", "Polytope.contains"),
    ("hull.strictly_inside", "gml.hull", "Polytope.strictly_inside"),
    ("hull.supporting_direction", "gml.hull", "Polytope.supporting_direction"),
    ("spectral.SymMat", "gml.spectral", "SymMat.__init__"),
    ("spectral.joint_diagonalize", "gml.spectral", "joint_diagonalize"),
    ("spectral.kernel", "gml.spectral", "kernel"),
    ("spectral.subspace_intersection", "gml.spectral", "subspace_intersection"),
    ("spectral.perturbed_kernel_equality", "gml.spectral", "perturbed_kernel_equality"),
    ("spectral.delta_threshold_witness", "gml.spectral", "delta_threshold_witness"),
    ("spectral.random_commuting_family", "gml.spectral", "random_commuting_family"),
    ("spectral.commutator_norm", "gml.spectral", "commutator_norm"),
    ("numerics.rk4_step", "gml.numerics", "_rk4_step"),
    ("numerics.integrate_flow", "gml.numerics", "integrate_flow"),
    ("numerics.numeric_limit", "gml.numerics", "numeric_limit"),
    ("numerics.gradient_fd_check", "gml.numerics", "gradient_fd_check"),
    ("numerics.monotonicity_check", "gml.numerics", "monotonicity_check"),
    ("campaigns.run", "gml.campaigns", "run_campaign_model"),
    ("campaigns.random_point", "gml.campaigns", "_random_point"),
    ("campaigns.gapped_direction", "gml.campaigns", "_gapped_direction"),
    ("campaigns.dumps", "gml.campaigns", "VerificationReport.dumps"),
    ("serialization.load_model", "gml.serialization", "load_model"),
    ("serialization.jsonify", "gml.serialization", "jsonify"),
)

# span status codes
OK, RETURNED_NONE, RAISED = 0, 1, 2

_MISSING = object()


def _gml_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "gml" or key.startswith("gml."))]


def binding_sites(module_name: str, attr_path: str):
    """Every (owner, attribute) through which gml code reaches a target.

    A method or constructor has one site, its class.  A module-level
    function is also reached through every gml module namespace that
    holds the same object.
    """
    owner = importlib.import_module(module_name)
    *path, attr = attr_path.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        return [(owner, attr)]
    original = getattr(owner, attr)
    return [(mod, key) for mod in _gml_modules()
            for key, val in list(vars(mod).items()) if val is original]


class Tracer:
    """Records spans around gml calls while installed.

    Use as a context manager, or call ``install`` and ``restore``.  Span
    ``i`` is described by ``names[i]`` (index into ``labels``),
    ``parents[i]`` (-1 for a root), ``starts[i]``, ``ends[i]`` and
    ``status[i]``.
    """

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.labels = [name for name, _, _ in self.targets]
        self.clock = clock
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.status = array("b")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def label_id(self, name: str) -> int:
        """Index of a span name, adding it when the benchmark opens its own span."""
        if name not in self.labels:
            self.labels.append(name)
        return self.labels.index(name)

    def open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(0.0)
        self.status.append(OK)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, status: int) -> None:
        self._stack.pop()
        self.ends[idx] = self.clock()
        self.status[idx] = status

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self._wrap(self.label_id(name), fn)(*args, **kwargs)

    def _wrap(self, name_id: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            status = RAISED
            try:
                result = fn(*args, **kwargs)
                status = RETURNED_NONE if result is None else OK
                return result
            finally:
                self.close(idx, status)
        return traced

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name_id, (_, module_name, attr_path) in enumerate(self.targets):
            sites = binding_sites(module_name, attr_path)
            owner, attr = sites[0]
            wrapped = self._wrap(name_id, getattr(owner, attr))
            for owner, attr in sites:
                self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, wrapped)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def spans(self) -> "Spans":
        return Spans(self.labels, np.frombuffer(self.names, dtype=np.int32).copy(),
                     np.frombuffer(self.parents, dtype=np.int32).copy(),
                     np.frombuffer(self.starts).copy(), np.frombuffer(self.ends).copy(),
                     np.frombuffer(self.status, dtype=np.int8).copy())


class Spans:
    """Recorded spans as arrays, with the aggregates the benchmark reports."""

    def __init__(self, labels, names, parents, starts, ends, status):
        self.labels = list(labels)
        self.names = np.asarray(names, dtype=np.int32)
        self.parents = np.asarray(parents, dtype=np.int32)
        self.starts = np.asarray(starts, dtype=float)
        self.ends = np.asarray(ends, dtype=float)
        self.status = np.asarray(status, dtype=np.int8)

    def __len__(self) -> int:
        return self.names.size

    def save(self, path, **extra) -> None:
        np.savez(path, labels=np.array(self.labels), names=self.names, parents=self.parents,
                 starts=self.starts, ends=self.ends, status=self.status, **extra)

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            return cls([str(x) for x in data["labels"]], data["names"], data["parents"],
                       data["starts"], data["ends"], data["status"])

    @classmethod
    def concat(cls, parts) -> "Spans":
        """Join span sets from separate processes under one label table."""
        labels: list[str] = []
        cols = {"names": [], "parents": [], "starts": [], "ends": [], "status": []}
        offset = 0
        for part in parts:
            for label in part.labels:
                if label not in labels:
                    labels.append(label)
            remap = np.array([labels.index(x) for x in part.labels], dtype=np.int32)
            cols["names"].append(remap[part.names])
            cols["parents"].append(np.where(part.parents >= 0, part.parents + offset, -1))
            cols["starts"].append(part.starts)
            cols["ends"].append(part.ends)
            cols["status"].append(part.status)
            offset += len(part)
        if not cols["names"]:
            return cls(labels, [], [], [], [], [])
        return cls(labels, *(np.concatenate(cols[k]) for k in
                             ("names", "parents", "starts", "ends", "status")))

    def _ids(self, name: str) -> np.ndarray:
        if name not in self.labels:
            return np.zeros(len(self), dtype=bool)
        return self.names == self.labels.index(name)

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        dur = self.ends - self.starts
        child = self.parents >= 0
        covered = np.bincount(self.parents[child], weights=dur[child], minlength=len(self))
        return dur - covered

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._ids(name)))

    def self_s(self, name: str) -> float:
        return float(self.self_times()[self._ids(name)].sum())

    def status_count(self, name: str, status: int) -> int:
        return int(np.count_nonzero(self._ids(name) & (self.status == status)))

    def calls_under(self, name: str, ancestor: str, direct: bool = False) -> int:
        """Spans of ``name`` inside a span of ``ancestor`` (its parent when direct)."""
        target = self._ids(ancestor)
        hit = np.zeros(len(self), dtype=bool)
        cur = self.parents.copy()
        while True:
            live = cur >= 0
            if not live.any():
                break
            hit[live] |= target[cur[live]]
            if direct:
                break
            cur[live] = self.parents[cur[live]]
        return int(np.count_nonzero(self._ids(name) & hit))
