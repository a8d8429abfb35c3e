"""Low-dimensional convex hulls with degenerate (point/segment) cases."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gml
from gml.hull import Polytope
from gml.rng import substream

from _oracles import in_hull_lp, lp_vertices


def test_square_vertices_are_irredundant_and_sorted():
    pts = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.25, 0.75], [1, 1]]
    poly = Polytope(pts)
    assert poly.vertices.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    # LP cross-check: exactly the corner rows are extreme
    assert lp_vertices(pts[:4] + [[0.5, 0.5]]) == [0, 1, 2, 3]


def test_point_hull():
    poly = Polytope([[2, 3], [2, 3], [2, 3]])
    assert poly.vertices.tolist() == [[2, 3]]
    assert poly.contains([2, 3])
    assert not poly.contains([2, 3.1])
    assert not poly.strictly_inside([2, 3.1])


def test_segment_hull():
    poly = Polytope([[0, 0], [0.25, 0], [1, 0]])
    assert poly.vertices.tolist() == [[0, 0], [1, 0]]
    assert poly.contains([0.5, 0])
    assert poly.strictly_inside([0.5, 0])
    assert not poly.strictly_inside([0, 0])
    assert not poly.contains([0.5, 0.1])


def test_containment_matches_lp_oracle():
    for trial in range(25):
        rng = substream(201, trial)
        d = int(rng.integers(1, 4))
        pts = rng.integers(-3, 4, size=(int(rng.integers(d + 1, 8)), d)).astype(float)
        poly = Polytope(pts)
        for _ in range(6):
            probe = rng.uniform(-3.5, 3.5, size=d)
            assert poly.contains(probe) == in_hull_lp(pts, probe, tol=1e-7)


def test_vertices_match_lp_oracle():
    for trial in range(25):
        rng = substream(202, trial)
        d = int(rng.integers(1, 4))
        pts = rng.integers(-3, 4, size=(int(rng.integers(d + 1, 9)), d)).astype(float)
        # deduplicate rows so the LP irredundancy oracle is well posed
        pts = np.unique(pts, axis=0)
        poly = Polytope(pts)
        want = sorted(map(tuple, pts[lp_vertices(pts)]))
        got = sorted(map(tuple, poly.vertices))
        assert got == want


def test_strict_interior_implies_containment():
    rng = substream(203, 0)
    pts = rng.integers(-3, 4, size=(7, 2)).astype(float)
    poly = Polytope(pts)
    for _ in range(40):
        probe = rng.uniform(-3.5, 3.5, size=2)
        if poly.strictly_inside(probe):
            assert poly.contains(probe)


def test_vertex_never_strictly_inside():
    # vertices sit on the relative boundary whenever the hull has dim >= 1
    for pts in ([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 0], [1, 0]]):
        poly = Polytope(pts)
        for v in poly.vertices:
            assert poly.contains(v)
            assert not poly.strictly_inside(v)
    # a point-polytope is its own relative interior
    point = Polytope([[5, 5]])
    assert point.strictly_inside([5, 5])


def test_supporting_direction_maximized_at_its_vertex():
    poly = Polytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    for k, v in enumerate(poly.vertices):
        u = poly.supporting_direction(k)
        vals = poly.vertices @ u
        assert np.argmax(vals) == k
        assert vals[k] > np.max(np.delete(vals, k)) + 1e-9


def test_scipy_spatial_imported_only_at_first_qhull_build():
    # scipy.spatial dominates import time; commands that build no hull
    # should not pay for it
    src = str(Path(gml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, gml.cli\n"
            "print('scipy.spatial' in sys.modules)\n"
            "gml.hull.Polytope([[0, 0], [1, 0], [0, 1]])\n"
            "print('scipy.spatial' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == ["False", "True"]
