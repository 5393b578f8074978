"""Canonical topology construction, validation, and edge-length geometry."""

import dataclasses
import json
import math
from itertools import combinations

import numpy as np
import pytest

from tenserecon.errors import TopologyError
from tenserecon.topology import (
    Tendon,
    build_canonical,
    edge_lengths,
    load_topology,
    save_topology,
    tendon_triangles,
    to_json_dict,
    validate,
)

SQRT6_OVER_4 = math.sqrt(6.0) / 4.0


def brute_force_member_lengths(t):
    """Oracle: classify all 66 node pairs by Euclidean distance."""
    coords = t.nominal_coords
    strut_set = {tuple(sorted(p)) for p in t.struts}
    tendon_set = {tuple(sorted((td.i, td.j))) for td in t.tendons}
    strut_len, tendon_len, other = [], [], []
    for i, j in combinations(range(12), 2):
        d = float(np.linalg.norm(coords[i] - coords[j]))
        if (i, j) in strut_set:
            strut_len.append(d)
        elif (i, j) in tendon_set:
            tendon_len.append(d)
        else:
            other.append(d)
    return strut_len, tendon_len, other


def test_canonical_member_lengths_strut_4m():
    t = build_canonical(4.0)
    struts, tendons, _ = brute_force_member_lengths(t)
    assert len(struts) == 6 and len(tendons) == 24
    assert max(abs(d - 4.0) for d in struts) < 1e-12
    assert max(abs(d - math.sqrt(6.0)) for d in tendons) < 1e-12


@pytest.mark.parametrize("strut_length", [1e-3, 0.17, 0.30, 1.0, 2.5, 10.0])
def test_canonical_tendons_are_the_pairs_at_tendon_distance(strut_length):
    # the literal tendon table, re-derived from distances at every scale
    t = build_canonical(strut_length)
    coords = t.nominal_coords
    tendon_len = strut_length * SQRT6_OVER_4
    at_tendon_distance = {
        (i, j) for i, j in combinations(range(12), 2)
        if abs(np.linalg.norm(coords[i] - coords[j]) - tendon_len) < 1e-9 * tendon_len}
    pairs = [(td.i, td.j) for td in t.tendons]
    assert len(pairs) == 24 and set(pairs) == at_tendon_distance
    assert t.rest_lengths().tolist() == [tendon_len] * 24


@pytest.mark.parametrize("strut_length", [0.05, 0.30, 1.0, 4.0, 10.0])
def test_incidence_counts(strut_length):
    t = build_canonical(strut_length)
    tendon_degree = {n: 0 for n in t.nodes}
    strut_degree = {n: 0 for n in t.nodes}
    for td in t.tendons:
        tendon_degree[td.i] += 1
        tendon_degree[td.j] += 1
    for i, j in t.struts:
        strut_degree[i] += 1
        strut_degree[j] += 1
    assert all(d == 4 for d in tendon_degree.values())
    assert all(d == 1 for d in strut_degree.values())


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_nonpositive_strut_length_rejected(bad):
    with pytest.raises(TopologyError):
        build_canonical(bad)


@pytest.mark.parametrize("strut_length", [1e-3, 0.30, 2.5, 10.0])
def test_canonical_validates(strut_length):
    assert validate(build_canonical(strut_length)) == []


def test_validate_missing_tendon_reports_both_endpoints():
    t = build_canonical(0.30)
    removed = t.tendons[5]
    t2 = dataclasses.replace(t, tendons=t.tendons[:5] + t.tendons[6:])
    violations = validate(t2)
    degree_violations = [v for v in violations if "degree" in v]
    assert len(degree_violations) == 2
    assert any(f"node {removed.i} " in v for v in degree_violations)
    assert any(f"node {removed.j} " in v for v in degree_violations)


def test_validate_names_unknown_nodes():
    t = build_canonical(0.30)
    tendons = t.tendons[:5] + (dataclasses.replace(t.tendons[5], j=15),) + t.tendons[6:]
    t2 = dataclasses.replace(t, tendons=tendons, struts=((0, 12),) + t.struts[1:],
                             anchored=frozenset((0, 1, 12)))
    violations = validate(t2)
    assert "tendon 5 joins unknown node 15" in violations
    assert "strut 0-12 joins unknown node 12" in violations
    assert "anchored node 12 is unknown" in violations
    assert not any("node 15 tendon degree" in v for v in violations)


def test_validate_anchor_off_plane():
    t = build_canonical(0.30)
    coords = t.nominal_coords.copy()
    coords[0, 2] = 0.1
    t2 = dataclasses.replace(t, nominal_coords=coords)
    assert any("off ground plane" in v for v in validate(t2))


def test_validate_duplicate_and_strut_shadow_tendons():
    t = build_canonical(0.30)
    t2 = dataclasses.replace(t, tendons=t.tendons[:23] + (t.tendons[3],))
    assert any("duplicate" in v for v in validate(t2))
    shadow = Tendon(i=t.struts[0][0], j=t.struts[0][1], rest_length=0.18)
    t3 = dataclasses.replace(t, tendons=t.tendons[:23] + (shadow,))
    assert "tendon 23 duplicates strut pair (0, 3)" in validate(t3)


def test_validate_names_each_bad_rest_length():
    # the message reconstruct_session raises for the first of them
    t = build_canonical(0.30)
    tendons = list(t.tendons)
    tendons[7] = dataclasses.replace(tendons[7], rest_length=0.0)
    tendons[9] = dataclasses.replace(tendons[9], rest_length=math.nan)
    problems = validate(dataclasses.replace(t, tendons=tuple(tendons)))
    assert problems == ["tendon 7: rest length must be finite and > 0, got 0.0",
                        "tendon 9: rest length must be finite and > 0, got nan"]


def test_edge_lengths_nominal():
    t = build_canonical(0.30)
    lengths = edge_lengths(t, t.nominal_coords)
    assert np.max(np.abs(lengths - 0.30 * SQRT6_OVER_4)) < 1e-12


def test_edge_lengths_translation_invariant():
    t = build_canonical(0.30)
    shifted = t.nominal_coords + np.array([1.0, 1.0, 1.0])
    base = edge_lengths(t, t.nominal_coords)
    assert np.max(np.abs(edge_lengths(t, shifted) - base) / base) < 1e-12


def test_edge_lengths_rigid_motion_invariant():
    t = build_canonical(0.30)
    base = edge_lengths(t, t.nominal_coords)
    rng = np.random.default_rng(11)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = t.nominal_coords @ q.T + rng.normal(size=3)
        rel = np.abs(edge_lengths(t, moved) - base) / base
        assert np.max(rel) < 1e-12


def test_edge_length_shift_along_tendon_axis():
    t = build_canonical(0.30)
    td = t.tendons[7]
    coords = t.nominal_coords.copy()
    axis = coords[td.i] - coords[td.j]
    axis /= np.linalg.norm(axis)
    coords[td.i] = coords[td.i] + 0.010 * axis
    before = edge_lengths(t, t.nominal_coords)[7]
    after = edge_lengths(t, coords)[7]
    assert after - before == pytest.approx(0.010, abs=1e-12)


def test_edge_lengths_of_a_stack_are_its_frames_lengths():
    t = build_canonical(0.30)
    stack = t.nominal_coords + np.random.default_rng(0).normal(0.0, 0.01, (5, 12, 3))
    assert np.array_equal(edge_lengths(t, stack),
                          np.stack([edge_lengths(t, coords) for coords in stack]))
    for bad in (np.zeros((5, 12, 4)), np.zeros((2, 5, 12, 3)), np.zeros(36)):
        with pytest.raises(TopologyError, match=r"^state must be 12x3, got "):
            edge_lengths(t, bad)


def test_eight_tendon_triangles():
    t = build_canonical(0.30)
    tris = tendon_triangles(t)
    assert len(tris) == 8
    assert (0, 1, 2) in tris  # the anchored base


def test_tendon_index_order_matches_documented_contract():
    t = build_canonical(0.30)
    pairs = tuple((td.i, td.j) for td in t.tendons)
    assert pairs[:3] == ((0, 1), (1, 2), (0, 2))
    assert pairs[3:5] == ((0, 7), (0, 9))
    assert pairs[-2:] == ((8, 9), (8, 11))
    assert list(pairs[3:]) == sorted(pairs[3:])


def test_strut_pairing_convention():
    t = build_canonical(0.30)
    assert t.struts == ((0, 3), (4, 5), (1, 6), (7, 8), (2, 9), (10, 11))
    assert t.anchored == frozenset((0, 1, 2))


def test_json_round_trip(tmp_path):
    t = build_canonical(0.37)
    path = tmp_path / "topo.json"
    save_topology(t, path)
    t2 = load_topology(path)
    assert t2.struts == t.struts
    assert t2.anchored == t.anchored
    assert t2.tendons == t.tendons
    assert np.array_equal(t2.nominal_coords, t.nominal_coords)
    assert validate(t2) == []


def test_from_json_rejects_garbage(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({"strut_length_m": 0.3}))
    with pytest.raises(TopologyError, match=f"^malformed {path}: 'tendons'"):
        load_topology(path)


def test_rest_length_overrides(tmp_path):
    # a file's rest_length_m is the way to give pre-strained tendons
    doc = to_json_dict(build_canonical(0.30))
    doc["tendons"][0]["rest_length_m"] = 0.15
    doc["tendons"][7]["rest_length_m"] = 0.2
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    rests = load_topology(path).rest_lengths()
    assert rests[0] == 0.15 and rests[7] == 0.2
    assert rests[1] == pytest.approx(0.30 * SQRT6_OVER_4)


def test_tendon_rows_are_read_in_k_order(tmp_path):
    t = build_canonical(0.30)
    doc = to_json_dict(t)
    doc["tendons"].reverse()
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    assert load_topology(path).tendons == t.tendons


def test_alternate_labeling_loadable(tmp_path):
    # relabel nodes by a permutation; the file format carries any labeling
    t = build_canonical(0.30)
    perm = {n: (n + 5) % 12 for n in t.nodes}
    doc = to_json_dict(t)
    doc["struts"] = [[perm[i], perm[j]] for i, j in doc["struts"]]
    for row in doc["tendons"]:
        row["i"], row["j"] = perm[row["i"]], perm[row["j"]]
    doc["anchored"] = [perm[i] for i in doc["anchored"]]
    coords = [None] * 12
    for n in range(12):
        coords[perm[n]] = doc["nominal_coords_m"][n]
    doc["nominal_coords_m"] = coords
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    t2 = load_topology(path)
    assert validate(t2) == []
    assert t2.anchored == frozenset(perm[i] for i in (0, 1, 2))


def test_member_table_cached_read_only_in_row_order():
    t = build_canonical(0.30)
    m = t.members
    assert t.members is m
    assert list(zip(m.i[:9], m.j[:9])) == [(0, 1), (1, 2), (0, 2), *t.struts]
    assert list(m.row_tendon) == [0, 1, 2] + [0] * 6 + list(range(3, 24))
    assert list(m.strut_rows) == list(range(3, 9))
    assert list(m.free) == list(t.free_nodes)
    tm = t.tendon_members
    assert list(zip(tm.i, tm.j)) == [(td.i, td.j) for td in t.tendons]
    for arr in (*m, *tm):
        with pytest.raises(ValueError):
            arr[0] = 0
