"""Low-dimensional convex hulls with degenerate (point/segment) cases."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gml
from gml import WeightedModel
from gml.hull import Polytope, _dedupe, first_representatives
from gml.model import _level_tol, _vector_labels
from gml.rng import substream, unit_vector
from gml.serialization import save_model

from _oracles import (
    dedupe_loop,
    in_hull_lp,
    interval_contains,
    interval_strictly_inside,
    lp_vertices,
    qhull_reference,
    vector_partition_loop,
)


def test_square_vertices_are_irredundant_and_sorted():
    pts = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.25, 0.75], [1, 1]]
    poly = Polytope(pts)
    assert poly.vertices.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    # LP cross-check: exactly the corner rows are extreme
    assert lp_vertices(pts[:4] + [[0.5, 0.5]]) == [0, 1, 2, 3]


def test_thin_triangle_keeps_its_apex():
    # the apex sits 1e-6 off the base, far above the 1e-9 tolerance, but its
    # two edges meet at an exterior angle of 2e-6 rad
    poly = Polytope([[0, 0], [2, 0], [1, 1e-6], [1, 0]])
    assert poly.vertices.tolist() == [[0, 0], [1, 1e-6], [2, 0]]


def test_near_duplicate_corner_keeps_one_vertex():
    # [1, 0] and [1 + 1.2e-9, 0] are farther apart than the 1e-9 tolerance
    # for duplicates, yet each lies on every facet through the other within
    # it: exactly one of them is a vertex
    poly = Polytope([[0, 0], [1, 0], [0, 1], [1 + 1.2e-9, 0]])
    assert poly.vertices[:2].tolist() == [[0, 0], [0, 1]]
    assert len(poly.vertices) == 3 and abs(poly.vertices[2, 0] - 1) < 2e-9


def test_point_hull():
    poly = Polytope([[2, 3], [2, 3], [2, 3]])
    assert poly.vertices.tolist() == [[2, 3]]
    assert poly.contains([2, 3])
    assert not poly.contains([2, 3.1])
    assert not poly.strictly_inside([2, 3.1])


def test_one_point_hull_has_dimension_zero():
    for pts in ([[2.0, 3.0]], [[2.0, 3.0], [2.0, 3.0]], [[-1.5]], [[0.0, 0.0, 0.0]]):
        poly = Polytope(pts)
        assert poly.dim == 0 and poly.vertices.tolist() == [pts[0]]
        assert poly.strictly_inside(pts[0]) and poly.supporting_directions.tolist() == [[0.0] * len(pts[0])]


@pytest.mark.parametrize("points", [[[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 0], [0.25, 0], [1, 0]],
                                    [[1, 2, 0], [0, 1, 2], [2, 0, 1], [1, 1, 1]], [[2, 3]]],
                         ids=["square", "segment", "triangle-in-3d", "point"])
def test_supporting_directions_are_the_per_vertex_directions(points):
    poly = Polytope(points)
    want = np.array([poly.supporting_direction(i) for i in range(len(poly.vertices))])
    assert poly.supporting_directions.tobytes() == want.tobytes()
    assert poly.supporting_directions is poly.supporting_directions
    with pytest.raises(ValueError):
        poly.supporting_directions[0, 0] = 1.0


def test_segment_hull():
    poly = Polytope([[0, 0], [0.25, 0], [1, 0]])
    assert poly.vertices.tolist() == [[0, 0], [1, 0]]
    assert poly.contains([0.5, 0])
    assert poly.strictly_inside([0.5, 0])
    assert not poly.strictly_inside([0, 0])
    assert not poly.contains([0.5, 0.1])


_EPS = np.finfo(float).eps


def _segment_offsets(lo, hi, tol, margin, steps):
    """Parameters at ``steps`` tolerances and margins to either side of each
    end of [lo, hi]."""
    steps = np.asarray(steps)
    off = np.concatenate([steps * tol, steps * margin])
    return np.concatenate([lo - off, lo + off, hi - off, hi + off])


def test_segment_queries_match_the_interval_rule_exactly():
    # dyadic ends, tolerances and margins make every offset and frame
    # coordinate exact, so the facet rows and the interval rule are compared
    # right at their boundaries
    tol = 2.0 ** -30
    for pts, axis in (([[1.0], [3.0]], 0), ([[-0.5], [0.25]], 0),
                      ([[-1.0, 0.5], [2.5, 0.5]], 0), ([[0.0, 0.0, -1.0], [0.0, 0.0, 2.5]], 2)):
        pts = np.array(pts)
        poly = Polytope(pts)
        lo, hi = pts[:, axis].min(), pts[:, axis].max()
        margin = 64.0 * _EPS * max(1.0, (hi - lo) / 2)
        y = _segment_offsets(lo, hi, tol, margin, [0.0, 0.5, 1.0, 2.0])
        xs = np.repeat(pts[:1], len(y), axis=0)
        xs[:, axis] = y
        assert (poly.contains_batch(xs, tol) == interval_contains(lo, hi, y, tol)).all()
        assert (poly.strictly_inside_batch(xs, tol)
                == interval_strictly_inside(lo, hi, y, margin)).all()
        # per end, only the point 2 tolerances out is outside, and the 4
        # inward points beyond one margin are strictly inside
        assert interval_contains(lo, hi, y, tol).sum() == 30
        assert interval_strictly_inside(lo, hi, y, margin).sum() == 8


def test_segment_queries_match_the_interval_rule():
    # collinear points a + t u in up to three dimensions, queried across the
    # segment and beyond it, at each end, and at 1/2 and 2 tolerances and
    # margins from it (exactly one tolerance out is decided by rounding)
    for k in range(200):
        rng = substream(208, k)
        d = int(rng.integers(1, 4))
        a, u = rng.uniform(-2.0, 2.0, size=d), unit_vector(rng, d)
        t = rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 6)))
        poly = Polytope(a + t[:, None] * u)
        assert poly.dim == 1
        lo, hi = t.min(), t.max()
        margin = 64.0 * _EPS * max(1.0, float(np.abs(t - t.mean()).max()))
        y = np.concatenate([rng.uniform(lo - 0.5, hi + 0.5, size=20),
                            _segment_offsets(lo, hi, 1e-9, margin, [0.0, 0.5, 2.0])])
        xs = a + y[:, None] * u
        assert (poly.contains_batch(xs) == interval_contains(lo, hi, y)).all(), k
        assert (poly.strictly_inside_batch(xs)
                == interval_strictly_inside(lo, hi, y, margin)).all(), k
        ends = [poly.supporting_direction(i) for i in range(2)]
        assert (poly.vertices @ ends[0]).argmax() == 0 and (poly.vertices @ ends[1]).argmax() == 1


def test_point_hull_answers_by_residual_alone():
    # a point (or near-duplicates of it) has no facets: every query is the
    # distance from the point against the tolerance
    for k in range(50):
        rng = substream(209, k)
        d = int(rng.integers(1, 5))
        p = rng.uniform(-3.0, 3.0, size=d)
        poly = Polytope(np.vstack([p, p, p + 1e-10 * unit_vector(rng, d)]))
        assert poly.dim == 0 and poly.vertices.tolist() == [p.tolist()]
        xs = p + 10.0 ** rng.uniform(-11.0, -7.0, size=(40, 1)) * rng.standard_normal((40, d))
        dist = np.linalg.norm(xs - p, axis=1)
        for tol in (1e-9, 1e-8):
            assert (poly.contains_batch(xs, tol) == (dist <= tol)).all()
            assert (poly.strictly_inside_batch(xs, tol) == (dist <= tol)).all()
        assert np.array_equal(poly.supporting_direction(0), np.zeros(d))


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
    # vertices sit on the relative boundary whenever the hull has dim >= 1;
    # rounding alone used to put the vertex [2, -2] of the pentagon and both
    # ends of the slanted segment inside
    for pts in ([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 0], [1, 0]],
                [[-3, -2], [-2, 1], [1, 0], [-2, 2], [2, -2]], [[-3, -3, 1], [-2, 0, 2]]):
        poly = Polytope(pts)
        for v in poly.vertices:
            assert poly.contains(v)
            assert not poly.strictly_inside(v)
        assert not poly.strictly_inside_batch(poly.vertices).any()
    # rank 1-4 sets: integer points, normal points, and integer points
    # embedded in up to two more dimensions by an orthogonal map and a shift
    for k in range(300):
        rng = substream(207, k)
        r = int(rng.integers(1, 5))
        pts = rng.integers(-3, 4, size=(int(rng.integers(r + 1, 10)), r)).astype(float)
        if k % 3 == 1:
            pts = rng.standard_normal(pts.shape)
        elif k % 3 == 2:
            d = r + int(rng.integers(0, 3))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            pts = pts @ q[:r] + rng.uniform(-2.0, 2.0, size=d)
        poly = Polytope(pts)
        if poly.dim >= 1:
            assert not poly.strictly_inside_batch(poly.vertices).any(), k
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


def _reference_case(k: int, low: int, high: int):
    """Rank-r point set number k (r = low..high) and its Qhull reference.

    Random normal or integer points, plus exact duplicate rows, a point
    on an edge of the hull and a point inside a facet, embedded in an
    ambient space of up to two more dimensions by an orthogonal map and a
    shift.  Returns (ambient points, their rank-r coordinates, the
    embedding, the shift, Qhull's vertex indices and facet equations)."""
    rng = substream(204, k)
    r = int(rng.integers(low, high + 1))
    n = int(rng.integers(r + 1, 10))
    while True:
        pts = (rng.standard_normal((n, r)) if k % 3 else
               rng.integers(-3, 4, size=(n, r)).astype(float))
        if np.linalg.matrix_rank(pts - pts.mean(axis=0)) == r:
            break
    simplices = qhull_reference(pts)[2]
    facet = simplices[int(rng.integers(0, len(simplices)))]
    extra = [pts[facet[0]] / 2 + pts[facet[1]] / 2, rng.dirichlet(np.ones(r)) @ pts[facet]]
    pts = np.vstack([pts, extra, pts[rng.integers(0, n, size=2)]])
    verts, eqs, _ = qhull_reference(pts)
    d = r + int(rng.integers(0, 3))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    shift = rng.uniform(-2.0, 2.0, size=d)
    return pts @ q[:r] + shift, pts, q[:r], shift, verts, eqs


def test_hull_matches_qhull_reference():
    # 1,200 rank 2-4 sets and 60 rank 5-8 sets with duplicates, edge and
    # facet points, in ambient dimension up to r + 2: the same vertices as
    # Qhull, the same containment off the boundary, and supporting
    # directions maximized at their own vertex
    cases = [(k, 2, 4) for k in range(1200)] + [(k, 5, 8) for k in range(1200, 1260)]
    for k, low, high in cases:
        amb, pts, embed, shift, verts, eqs = _reference_case(k, low, high)
        poly = Polytope(amb)
        assert poly.dim == pts.shape[1]
        assert sorted(map(tuple, poly.vertices)) == sorted(set(map(tuple, amb[verts])))
        rng = substream(205, k)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        local = rng.uniform(lo - 0.5, hi + 0.5, size=(40, pts.shape[1]))
        margin = (local @ eqs[:, :-1].T + eqs[:, -1]).max(axis=1)
        off = np.abs(margin) > 1e-6
        probes = local @ embed + shift
        assert (poly.contains_batch(probes)[off] == (margin[off] < 0)).all()
        assert (poly.strictly_inside_batch(probes)[off] == (margin[off] < 0)).all()
        if embed.shape[1] > embed.shape[0]:  # off the affine hull: never inside
            normal = np.linalg.svd(embed)[2][-1]
            assert not poly.contains_batch(probes[off] + 1e-3 * normal).any()
        for i in range(len(poly.vertices)):
            vals = poly.vertices @ poly.supporting_direction(i)
            assert vals[i] > np.delete(vals, i).max() + 1e-9


def test_large_hull_is_built_in_blocks():
    # C(60, 4) = 487,635 subsets pass through the kernel in fixed-size
    # blocks; the result still matches Qhull
    rng = substream(206, 0)
    pts = rng.standard_normal((60, 4))
    poly = Polytope(pts)
    verts = qhull_reference(pts)[0]
    assert sorted(map(tuple, poly.vertices)) == sorted(map(tuple, pts[verts]))


def test_no_gml_command_needs_scipy(tmp_path):
    # with scipy unimportable, the CLI, a rank-4 hull, describe and a
    # convexity campaign all still work
    path = tmp_path / "cube.json"
    save_model(WeightedModel(name="cube-4", weights=np.vstack([np.zeros(4), np.eye(4), np.ones(4)]),
                             subalgebra=np.eye(4)), path)
    src = str(Path(gml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import gml.cli\n"
            "from gml import campaigns\n"
            "from gml.hull import Polytope\n"
            "from gml.serialization import load_model\n"
            "assert Polytope([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],\n"
            "                 [0, 0, 0, 1], [0.1, 0.1, 0.1, 0.1]]).dim == 4\n"
            "print(len(campaigns.describe_model(load_model(sys.argv[1]))['moment_polytope_vertices']))\n"
            "sys.exit(gml.cli.main(['run', '--campaign', 'convexity', '--model', sys.argv[1],\n"
            "                       '--trials', '3']))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "6"
    assert json.loads(proc.stdout.split("\n", 1)[1])["passes"] == 3


def test_first_representatives_match_the_loop_rules():
    """Near-duplicate sets with offsets of 0 to 1.5 tolerances, so that a row
    can lie near an earlier row that is itself not a representative.  The
    kernel must agree with both loop forms, at the hull tolerance and at the
    level tolerance of the model partitions."""
    rng = substream(406, 0)
    chained = 0
    for k in range(3000):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        centers = rng.integers(-3, 4, size=(int(rng.integers(1, 4)), d)).astype(float)
        unit = 1e-9 if k % 2 else 3e-12  # about the hull / level tolerance
        rows = centers[rng.integers(0, len(centers), n)] + unit * 0.5 * rng.integers(0, 4, (n, d))
        for tol in (1e-9, _level_tol(rows)):
            rep = first_representatives(rows, tol)
            kept = rep == np.arange(n)
            assert np.array_equal(rows[kept], dedupe_loop(rows, tol))
            groups = tuple(tuple(np.flatnonzero(rep == c).tolist()) for c in np.flatnonzero(kept))
            assert groups == vector_partition_loop(rows, tol)
            close = np.abs(rows[:, None] - rows[None, :]).max(axis=2) <= tol
            chained += int((kept & np.tril(close, -1).any(axis=1)).any())
        assert np.array_equal(_dedupe(rows, 1e-9), dedupe_loop(rows, 1e-9))
        labels = _vector_labels(rows)
        assert tuple(tuple(np.flatnonzero(labels == c).tolist()) for c in range(labels.max() + 1)) \
            == vector_partition_loop(rows, _level_tol(rows))
    assert chained >= 100  # rows that joined nobody although an earlier row was near
