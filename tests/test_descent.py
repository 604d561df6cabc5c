"""Descent simulator tests.

Expected levels and cocycles for the crafted scenario files were
computed by hand from the tree geometry: the center of a vertex pair at
distance d is the middle vertex (d even) or the middle edge (d odd) of
the geodesic, and a group element picks up a prime in its twist exactly
when it reverses that center edge or flips that ramified sign.
"""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from qmtree import descent as dd
from qmtree import tree as bt
from qmtree.center import spanned_subtree
from qmtree.errors import (
    InconsistencyError,
    PreconditionError,
    ResourceError,
    ValidationError,
)

DATA = Path(__file__).parent / "data"


def scenario(name):
    return dd.load_scenario(DATA / name)


# file -> (N, full cocycle table, minimality flag)
EXPECTED = {
    "trivial.json": (1, {}, True),
    "swap5.json": (5, {"s": [5]}, True),
    "star5.json": (
        1,
        {"s": [], "ss": [], "sss": [], "ssss": [], "sssss": []},
        True,
    ),
    "bitflip2.json": (1, {"s": [2]}, True),
    "bitflip23.json": (1, {"s": [2, 3]}, True),
    "composite_5_7_2.json": (5, {"s": [2, 5]}, True),
    "swap5_bit2.json": (5, {"s": [2, 5]}, True),
    "twogen_15.json": (15, {"s": [5], "t": [3], "st": [3, 5]}, True),
    "path2_swap2.json": (1, {"s": []}, True),
    "path3_swap2.json": (2, {"s": [2]}, True),
    "path2_swap3.json": (1, {"s": []}, True),
    "cycle3_at2.json": (1, {"s": [], "ss": []}, True),
    "doubleswap_35.json": (35, {"s": [5, 7]}, True),
    "twogen_35.json": (35, {"s": [5], "t": [7], "st": [5, 7]}, True),
    "deep_pair2.json": (2, {"s": [2]}, True),
    # the generator acts trivially, so the acting group is {e} and the
    # cocycle table is empty; the edge center still forces N = 2 and
    # the fixed vertices defeat minimality
    "fixed_pair2.json": (2, {}, False),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_crafted_scenarios(name):
    N, cocycle, minimal = EXPECTED[name]
    report = dd.run_descent(scenario(name))
    assert report["N"] == N
    assert report["cocycle"] == cocycle
    assert report["checks"]["homomorphism"] is True
    assert report["checks"]["phiTildeInjective"] is True
    assert report["checks"]["minimality"] is minimal


def test_swap_point_orientation():
    report = dd.run_descent(scenario("swap5.json"))
    assert report["point"]["edges"] == {
        "5": {"origin": "5:[[1,0],[0,1]]", "terminus": "5:[[1,0],[0,5]]"}
    }
    assert report["point"]["level"] == 5
    assert report["centers"]["5"]["kind"] == "edge"


def test_textual_origin_rule_differs_from_numeric_order():
    # "2:[[1,0],[0,16]]" < "2:[[1,0],[0,8]]" as strings, so the deeper
    # vertex becomes the origin even though its key is numerically larger
    report = dd.run_descent(scenario("deep_pair2.json"))
    assert report["point"]["edges"]["2"] == {
        "origin": "2:[[1,0],[0,16]]",
        "terminus": "2:[[1,0],[0,8]]",
    }


def test_path3_center_is_middle_edge():
    report = dd.run_descent(scenario("path3_swap2.json"))
    assert report["centers"]["2"]["vertices"] == [
        "2:[[1,0],[0,2]]",
        "2:[[1,0],[0,4]]",
    ]
    assert report["point"]["edges"]["2"]["origin"] == "2:[[1,0],[0,2]]"


def test_vertex_components_pass_through():
    report = dd.run_descent(scenario("composite_5_7_2.json"))
    assert report["point"]["vertices"] == {"7": "7:[[1,0],[0,7]]"}
    assert report["point"]["ramified"] == {"2": "+", "3": "+"}
    report = dd.run_descent(scenario("star5.json"))
    assert report["point"]["vertices"] == {"5": "5:[[1,0],[0,1]]"}
    assert report["point"]["edges"] == {}


def test_fixed_pair_minimality_witnesses():
    s = scenario("fixed_pair2.json")
    result = dd.verify_minimality(s)
    assert result["ok"] is False
    assert result["perPrime"]["2"]["fixedVertices"] == [
        "2:[[1,0],[0,1]]",
        "2:[[1,0],[0,2]]",
    ]
    assert not dd.checks_pass(dd.run_descent(s))


def test_report_deterministic():
    for name in ("swap5.json", "composite_5_7_2.json", "twogen_15.json"):
        a = dd.report_to_json(dd.run_descent(scenario(name)))
        b = dd.report_to_json(dd.run_descent(scenario(name)))
        assert a == b
        assert json.loads(a)  # well-formed


def test_level_independent_of_listing_order():
    with open(DATA / "twogen_15.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    base = dd.run_descent(dd.scenario_from_json(obj))
    flipped = json.loads(json.dumps(obj))
    for ell in flipped["local"]:
        comp = flipped["local"][ell]
        comp["vertices"] = comp["vertices"][::-1]
        comp["action"] = {g: imgs[::-1] for g, imgs in comp["action"].items()}
    flipped["generators"] = flipped["generators"][::-1]
    other = dd.run_descent(dd.scenario_from_json(flipped))
    assert other["N"] == base["N"]
    assert other["centers"] == base["centers"]
    assert other["point"] == base["point"]


# ------------------------------------------------------------- twists


def _base_point(name="swap5_bit2.json"):
    s = scenario(name)
    _, centers = dd.compute_level(s)
    return s, dd.choose_point(s, centers)


def test_atkin_lehner_identity_and_involution():
    _, Q = _base_point()
    assert dd.atkin_lehner(Q, 1) == Q
    assert dd.atkin_lehner(Q, set()) == Q
    for n in (5, 2, 10, {2, 5}, {3}):
        assert dd.atkin_lehner(dd.atkin_lehner(Q, n), n) == Q


def test_atkin_lehner_symmetric_difference():
    _, Q = _base_point()
    m, n = {5}, {2, 5}
    lhs = dd.atkin_lehner(dd.atkin_lehner(Q, n), m)
    assert lhs == dd.atkin_lehner(Q, {2})
    assert dd.atkin_lehner(Q, 30) == dd.atkin_lehner(
        dd.atkin_lehner(Q, 6), {5}
    )


def test_atkin_lehner_rejects_foreign_and_squareful():
    _, Q = _base_point()
    with pytest.raises(PreconditionError):
        dd.atkin_lehner(Q, {7})
    with pytest.raises(PreconditionError):
        dd.atkin_lehner(Q, 4)
    with pytest.raises(PreconditionError):
        dd.atkin_lehner(Q, 0)
    with pytest.raises(PreconditionError, match="twist member 4 is not prime"):
        dd.atkin_lehner(Q, {4})


def test_galois_apply_identity_and_swap():
    s, Q = _base_point()
    assert dd.galois_apply(s, "", Q) == Q
    sQ = dd.galois_apply(s, "s", Q)
    assert sQ == dd.atkin_lehner(Q, {2, 5})
    assert dd.galois_apply(s, "ss", Q) == Q
    assert dd.galois_twist(s, "s", Q) == frozenset({2, 5})
    assert dd.galois_twist(s, "", Q) == frozenset()


def test_phi_collapses_edges_to_origins():
    s, Q = _base_point("swap5.json")
    p = dd.phi(Q)
    assert p.level == 1 and p.edges == ()
    assert p.vertex_map[5] == bt.root(5)
    # reversing first moves the collapse to the terminus
    w = dd.phi(dd.atkin_lehner(Q, 5))
    assert w.vertex_map[5] == bt.parse_vertex("5:[[1,0],[0,5]]")
    a, b = dd.phi_tilde(Q)
    assert (a.vertex_map[5], b.vertex_map[5]) == (
        bt.root(5),
        bt.parse_vertex("5:[[1,0],[0,5]]"),
    )


def test_phi_compatibility():
    s, Q = _base_point("twogen_35.json")
    primes = [5, 7]
    for n in ([], [5], [7], [5, 7]):
        p0, pn = dd.phi(Q), dd.phi(dd.atkin_lehner(Q, set(n)))
        for ell in primes:
            moved = p0.vertex_map[ell] != pn.vertex_map[ell]
            assert moved == (ell in n)


def test_phi_tilde_injective_across_assignments():
    for name in ("swap5.json", "doubleswap_35.json", "twogen_35.json"):
        _, Q = _base_point(name)
        assert dd.check_phi_tilde_injective(Q)


# ------------------------------------------------------------- group


def test_words_parse_and_labels():
    s = scenario("twogen_15.json")
    assert dd.parse_word(s, "st") == ("s", "t")
    assert dd.parse_word(s, "s*t") == ("s", "t")
    assert dd.parse_word(s, ["t", "s"]) == ("t", "s")
    assert dd.parse_word(s, "") == ()
    with pytest.raises(PreconditionError):
        dd.parse_word(s, "sx")
    with pytest.raises(PreconditionError):
        dd.parse_word(s, ["q"])


def test_multichar_generator_names():
    obj = {
        "D": 1,
        "generators": ["sig", "tau"],
        "local": {
            "5": {
                "vertices": ["5:[[1,0],[0,1]]", "5:[[1,0],[0,5]]"],
                "action": {
                    "sig": ["5:[[1,0],[0,5]]", "5:[[1,0],[0,1]]"],
                    "tau": ["5:[[1,0],[0,1]]", "5:[[1,0],[0,5]]"],
                },
            },
            "3": {
                "vertices": ["3:[[1,0],[0,1]]", "3:[[1,0],[0,3]]"],
                "action": {
                    "sig": ["3:[[1,0],[0,1]]", "3:[[1,0],[0,3]]"],
                    "tau": ["3:[[1,0],[0,3]]", "3:[[1,0],[0,1]]"],
                },
            },
        },
    }
    s = dd.scenario_from_json(obj)
    assert dd.parse_word(s, "sigtau") == ("sig", "tau")
    report = dd.run_descent(s)
    assert report["cocycle"] == {
        "sig": [5],
        "tau": [3],
        "sig*tau": [3, 5],
    }


def test_trivially_acting_generator_collapses():
    # identity action everywhere: the acting group is trivial even
    # though a generator is named
    s = scenario("fixed_pair2.json")
    words = dd.group_elements(s)
    assert list(words) == [()]


def test_group_closure_guard():
    # a transposition and a 6-cycle on the root's neighbours generate
    # S6, which exceeds the closure bound
    nbs = [bt.format_vertex(v) for v in bt.neighbors(bt.root(5))]
    cyc = nbs[1:] + nbs[:1]
    swp = [nbs[1], nbs[0]] + nbs[2:]
    obj = {
        "D": 1,
        "generators": ["c", "t"],
        "local": {
            "5": {
                "vertices": nbs,
                "action": {"c": cyc, "t": swp},
            }
        },
    }
    with pytest.raises(ResourceError):
        dd.run_descent(dd.scenario_from_json(obj))


def test_apply_rejects_foreign_components():
    s = scenario("star5.json")
    n1 = bt.parse_vertex("5:[[1,0],[0,5]]")
    Q = dd.AdelicPoint.build({5: dd.OrientedEdge(bt.root(5), n1)}, {}, {})
    # the rotation moves this edge off itself
    with pytest.raises(InconsistencyError):
        dd.galois_apply(s, "s", Q)
    s2 = scenario("swap5.json")
    outside = dd.AdelicPoint.build(
        {}, {5: bt.parse_vertex("5:[[1,1],[0,5]]")}, {}
    )
    with pytest.raises(PreconditionError):
        dd.galois_apply(s2, "s", outside)
    foreign = dd.AdelicPoint.build(
        {}, {11: bt.root(11)}, {}
    )
    with pytest.raises(PreconditionError):
        dd.galois_apply(s2, "s", foreign)


# ------------------------------------------------------------- validation


BAD_SCENARIOS = [
    ({"D": 4, "generators": []}, "squarefree"),
    ({"D": 2, "generators": []}, "even number"),
    ({"D": "6", "generators": []}, "positive integer"),
    ({"D": 1, "generators": ["9x"]}, "bad name"),
    ({"D": 1, "generators": ["s", "s"]}, "duplicate"),
    ({"D": 1, "generators": [], "extra": 1}, "unknown field"),
    ({"D": 1, "generators": [], "local": {"4": {"vertices": []}}}, "not prime"),
    (
        {"D": 6, "generators": [], "ramified": {"2": {}, "3": {}},
         "local": {"2": {"vertices": ["2:[[1,0],[0,1]]"], "action": {}}}},
        "divides D",
    ),
    ({"D": 1, "generators": [], "local": {"5": {"vertices": []}}},
     "nonempty"),
    ({"D": 1, "generators": [],
      "local": {"5": {"vertices": ["5:[[3,0],[0,1]]"]}}}, "bad literal"),
    ({"D": 1, "generators": [],
      "local": {"5": {"vertices": ["3:[[1,0],[0,3]]"]}}}, "not a vertex at 5"),
    ({"D": 1, "generators": [],
      "local": {"5": {"vertices": ["5:[[1,0],[0,1]]", "5:[[1,0],[0,1]]"]}}},
     "duplicate vertices"),
    ({"D": 1, "generators": ["s"],
      "local": {"5": {"vertices": ["5:[[1,0],[0,1]]"], "action": {}}}},
     "missing generator"),
    ({"D": 1, "generators": [],
      "local": {"5": {"vertices": ["5:[[1,0],[0,1]]"],
                      "action": {"s": ["5:[[1,0],[0,1]]"]}}}},
     "unknown generator"),
    ({"D": 1, "generators": ["s"],
      "local": {"5": {"vertices": ["5:[[1,0],[0,1]]", "5:[[1,0],[0,5]]"],
                      "action": {"s": ["5:[[1,0],[0,1]]",
                                        "5:[[1,0],[0,1]]"]}}}},
     "not a permutation"),
    ({"D": 1, "generators": ["s"],
      "local": {"5": {"vertices": ["5:[[1,0],[0,1]]", "5:[[1,0],[0,5]]"],
                      "action": {"s": ["5:[[1,1],[0,5]]",
                                        "5:[[1,0],[0,1]]"]}}}},
     "not a listed vertex"),
    ({"D": 6, "generators": ["s"], "ramified": {"2": {"s": "flip"}}},
     "missing prime 3"),
    ({"D": 6, "generators": ["s"],
      "ramified": {"2": {"s": "flip"}, "3": {"s": "fix"},
                   "5": {"s": "fix"}}},
     "does not divide D"),
    ({"D": 6, "generators": ["s"],
      "ramified": {"2": {"s": "swap"}, "3": {"s": "fix"}}},
     "\"flip\" or \"fix\""),
    ({"D": 1, "generators": [], "relationsChecked": "yes"}, "boolean"),
    ({"D": 1, "generators": [],
      "local": {"5": {"vertices": ["6:[[1,0],[0,1]]"]}}}, "bad literal"),
    ({"D": 1, "generators": [],
      "local": {"5": {"vertices": ["5:[[0,0],[0,1]]"]}}}, "bad literal"),
    ({"D": 1, "generators": [],
      "local": {key: {"vertices": ["5:[[1,0],[0,1]]"], "action": {}}
                for key in ("5", "05")}}, "local.5: duplicate prime"),
]


@pytest.mark.parametrize("obj,needle", BAD_SCENARIOS)
def test_scenario_validation(obj, needle):
    with pytest.raises(ValidationError) as err:
        dd.scenario_from_json(obj)
    assert needle in str(err.value)


def test_non_isometric_action_rejected():
    # root->n1, n1->root, n2 fixed: d(root,n2)=1 but d(n1,n2)=2
    obj = {
        "D": 1,
        "generators": ["s"],
        "local": {
            "2": {
                "vertices": [
                    "2:[[1,0],[0,1]]",
                    "2:[[1,0],[0,2]]",
                    "2:[[1,1],[0,2]]",
                ],
                "action": {
                    "s": [
                        "2:[[1,0],[0,2]]",
                        "2:[[1,0],[0,1]]",
                        "2:[[1,1],[0,2]]",
                    ]
                },
            }
        },
    }
    with pytest.raises(ValidationError) as err:
        dd.scenario_from_json(obj)
    assert "not distance-preserving" in str(err.value)


def test_validation_collects_multiple_violations():
    obj = {"D": 4, "generators": ["s", "s"], "relationsChecked": 3}
    with pytest.raises(ValidationError) as err:
        dd.scenario_from_json(obj)
    msg = str(err.value)
    assert "squarefree" in msg and "duplicate" in msg and "boolean" in msg


def test_validation_keeps_the_message_order_across_generators():
    # s swaps root and n1 but fixes n2; t names a vertex that does not parse
    verts = ["2:[[1,0],[0,1]]", "2:[[1,0],[0,2]]", "2:[[1,1],[0,2]]"]
    obj = {
        "D": 1,
        "generators": ["s", "t"],
        "local": {"2": {"vertices": verts, "action": {
            "s": [verts[1], verts[0], verts[2]],
            "t": ["bad", verts[0], verts[2]],
        }}},
    }
    with pytest.raises(ValidationError) as err:
        dd.scenario_from_json(obj)
    assert str(err.value) == (
        "invalid scenario: local.2.action.s: not distance-preserving on the "
        "pair (2:[[1,0],[0,1]], 2:[[1,1],[0,2]]); "
        "local.2.action.t: bad literal 'bad'")


# ------------------------------------------------------------- sweep


def _random_walk(rng, ell, start, steps):
    prev = None
    v = start
    for _ in range(steps):
        options = [w for w in bt.neighbors(v) if w != prev]
        prev, v = v, rng.choice(options)
    return v


def _random_component(rng, ell, gens):
    """One of: fixed singleton, pair swap along a geodesic, or a
    rotation of the root's neighbours.  All are isometric."""
    kind = rng.randrange(3)
    r = bt.root(ell)
    if kind == 0:
        verts = [r]
        perms = {g: [0] for g in gens}
    elif kind == 1:
        x = _random_walk(rng, ell, r, rng.randrange(2))
        y = _random_walk(rng, ell, x, 1 + rng.randrange(3))
        verts = [x, y]
        perms = {g: ([1, 0] if rng.randrange(2) else [0, 1]) for g in gens}
        if all(p == [0, 1] for p in perms.values()) and gens:
            perms[gens[0]] = [1, 0]  # keep at least one swap
    else:
        nbs = list(bt.neighbors(r))
        verts = [r] + nbs
        perms = {}
        for g in gens:
            k = rng.randrange(len(nbs))
            rot = nbs[k:] + nbs[:k]
            perms[g] = [0] + [1 + nbs.index(w) for w in rot]
    return {
        "vertices": [bt.format_vertex(v) for v in verts],
        "action": {
            g: [bt.format_vertex(verts[i]) for i in perm]
            for g, perm in perms.items()
        },
    }


def test_random_valid_scenarios_satisfy_all_checks():
    rng = random.Random("descent-sweep")
    for trial in range(12):
        gens = ["s", "t"][: 1 + rng.randrange(2)]
        D = rng.choice([1, 6, 10])
        obj = {
            "D": D,
            "generators": gens,
            "local": {
                str(ell): _random_component(rng, ell, gens)
                for ell in rng.sample([2, 3, 5, 7], 1 + rng.randrange(2))
                if D % ell != 0
            },
            "ramified": {
                str(p): {g: rng.choice(["flip", "fix"]) for g in gens}
                for p in ([2, 3] if D == 6 else [2, 5] if D == 10 else [])
            },
        }
        s = dd.scenario_from_json(obj)
        report = dd.run_descent(s)
        assert report["checks"]["homomorphism"], obj
        assert report["checks"]["phiTildeInjective"], obj
        assert report["checks"]["minimality"], obj
        for ell_str, twist in report["cocycle"].items():
            for p in twist:
                assert report["N"] * D % p == 0


def _moved_swap5(g):
    """swap5.json with every vertex moved by the tree isometry x -> x g."""
    obj = json.loads((DATA / "swap5.json").read_text())

    def move(lit):
        v = bt.parse_vertex(lit)
        (a, b), (c, d) = v.mat
        (p, q), (r, t) = g
        return bt.format_vertex(bt.canonicalize(
            5, ((a * p + b * r, a * q + b * t), (c * p + d * r, c * q + d * t))))

    comp = obj["local"]["5"]
    comp["vertices"] = [move(x) for x in comp["vertices"]]
    comp["action"] = {h: [move(x) for x in xs]
                      for h, xs in comp["action"].items()}
    return obj


def test_descent_caches_stay_bounded():
    # descent keeps no module-level cache: each component carries its own
    # hull, so a long-lived process holds only the scenarios it keeps
    assert not [name for name, f in vars(dd).items()
                if hasattr(f, "cache_info")]
    rng = random.Random(11)
    for _ in range(356):
        obj = _moved_swap5(((5 ** 8, 0), (rng.randrange(5 ** 8), 1)))
        report = dd.run_descent(dd.scenario_from_json(obj))
        assert report["N"] == 5 and report["cocycle"] == {"s": [5]}


# ------------------------------------------------------------- oracles
#
# descent.py reads each isometry off the member-distance profiles, checks
# the cocycle per generator and reads phi-tilde injectivity off each edge.
# The constructions below are all-pairs, all-products and all-choices
# versions of these, kept as independent oracles.


def _extension_oracle(ell, verts, perm):
    """Each subtree vertex on the geodesic between members i and j goes
    to the vertex at the same distance along the image geodesic; all
    candidates must agree, and the result must be a bijection that keeps
    every edge."""
    sub = spanned_subtree(verts)
    n = len(verts)
    pairs = []
    for i, j in combinations(range(n), 2):
        d = bt.distance(verts[i], verts[j])
        path = bt.geodesic(verts[perm[i]], verts[perm[j]])
        if len(path) != d + 1:
            raise InconsistencyError("distance changed")
        pairs.append((i, j, d, path))
    image = {}
    for v in sub.vertices:
        cand = {verts[perm[i]] for i in range(n) if verts[i] == v}
        to_v = [bt.distance(w, v) for w in verts]
        for i, j, d, path in pairs:
            if to_v[i] + to_v[j] == d:
                cand.add(path[to_v[i]])
        if len(cand) != 1:
            raise InconsistencyError("no consistent extension")
        image[v] = cand.pop()
    if sorted(image.values()) != sorted(sub.vertices):
        raise InconsistencyError("not a bijection")
    for u, w in sub.edges:
        if bt.distance(image[u], image[w]) != 1:
            raise InconsistencyError("breaks an edge")
    return image


def _homomorphism_oracle(s):
    """t(x y) = t(x) ^ t(y) over all ordered pairs of group elements."""
    _, centers = dd.compute_level(s)
    Q = dd.choose_point(s, centers)
    words = dd.group_elements(s)
    by_element = {e: w for w, e in words.items()}
    twists = {w: dd._twist_of_element(s, e, Q) for w, e in words.items()}
    return all(
        twists[by_element[dd._compose(e1, e2)]] == twists[w1] ^ twists[w2]
        for w1, e1 in words.items()
        for w2, e2 in words.items()
    )


def _phi_tilde_oracle(Q):
    """phi-tilde takes 2^omega distinct values on the orientation choices."""
    primes = sorted(Q.edge_map)
    images = {
        dd.phi_tilde(dd.atkin_lehner(Q, set(T)))
        for k in range(len(primes) + 1)
        for T in combinations(primes, k)
    }
    return len(images) == 2 ** len(primes)


def _transported(obj, rng):
    """A copy of a scenario moved by one random tree automorphism per
    prime: x -> x g for an integer matrix g of nonzero determinant."""
    out = json.loads(json.dumps(obj))
    for prime, comp in out.get("local", {}).items():
        ell = int(prime)
        g = ((0, 0), (0, 0))
        while g[0][0] * g[1][1] == g[0][1] * g[1][0]:
            g = tuple(tuple(rng.randrange(-ell ** 3, ell ** 3) for _ in "ab")
                      for _ in "ab")

        def move(lit, ell=ell, g=g):
            (a, b), (c, d) = bt.parse_vertex(lit).mat
            (p, q), (r, t) = g
            return bt.format_vertex(bt.canonicalize(ell, (
                (a * p + b * r, a * q + b * t),
                (c * p + d * r, c * q + d * t))))

        comp["vertices"] = [move(x) for x in comp["vertices"]]
        comp["action"] = {h: [move(x) for x in xs]
                          for h, xs in comp["action"].items()}
    return out


def _fixture_objects():
    return {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}


def _oracle_scenarios():
    """Every fixture but the 480-element one, ten transported copies of
    each, and random scenarios from the sweep's components."""
    rng = random.Random("oracles")
    out = []
    for name, obj in _fixture_objects().items():
        if name == "s5_swaps480.json":
            continue
        out.append(obj)
        out.extend(_transported(obj, rng) for _ in range(10))
    for _ in range(30):
        gens = ["s", "t"][: 1 + rng.randrange(2)]
        out.append({
            "D": 1,
            "generators": gens,
            "local": {str(ell): _random_component(rng, ell, gens)
                      for ell in rng.sample([2, 3, 5, 7], 1 + rng.randrange(3))},
        })
    return [dd.scenario_from_json(obj) for obj in out]


# sha256 of each scenario's report, then of every group element's image of
# the base point and its twist, in group_elements order: the 17 fixtures and
# two copies of each transported by _transported (seed "digest").  Frozen
# while each element acted through its isometric extension built from
# geodesics.
DESCENT_DIGEST = ("a5b6d28cfe8ce68beb8324cb6322eaef"
                  "3cdb2fa0036cafe7f91faff8018792a7")


def test_descent_matches_the_frozen_digest():
    rng = random.Random("digest")
    objs = []
    for obj in _fixture_objects().values():
        objs.append(obj)
        objs.extend(_transported(obj, rng) for _ in range(2))
    assert len(objs) == 51
    h = hashlib.sha256()
    for obj in objs:
        s = dd.scenario_from_json(obj)
        h.update(dd.report_to_json(dd.run_descent(s)).encode())
        _, centers = dd.compute_level(s)
        Q = dd.choose_point(s, centers)
        for w in dd.group_elements(s):
            point = dd.point_to_json(dd.galois_apply(s, w, Q))
            h.update(json.dumps(point, sort_keys=True).encode())
            h.update(repr(sorted(dd.galois_twist(s, w, Q))).encode())
    assert h.hexdigest() == DESCENT_DIGEST


def test_extension_matches_all_pairs_oracle():
    # the oracle's image of each subtree vertex is the one hull vertex whose
    # profile the permutation sends it to
    triples = {}
    scenarios = _oracle_scenarios() + [scenario("s5_swaps480.json")]
    for s in scenarios:
        for perms, _ in dd.group_elements(s).values():
            for ell, perm in zip(s.split_primes(), perms):
                comp = s.local[ell]
                triples.setdefault((ell, comp.vertices, perm), comp)
    assert len(triples) > 300
    for (ell, verts, perm), comp in triples.items():
        dd._check_isometry(comp, perm)
        image = _extension_oracle(ell, verts, perm)
        assert list(comp.hull) == list(image)
        for v, row in comp.hull.items():
            assert [u for u, r in comp.hull.items()
                    if dd._sends(perm, row, r)] == [image[v]]


def test_minimality_witnesses_match_the_oracle():
    witnessed = 0
    for s in _oracle_scenarios() + [scenario("s5_swaps480.json")]:
        N, _ = dd.compute_level(s)
        per = dd.verify_minimality(s, N)["perPrime"]
        level_primes = [ell for ell in s.split_primes() if N % ell == 0]
        assert sorted(per) == sorted(str(ell) for ell in level_primes)
        for ell in level_primes:
            comp = s.local[ell]
            fixed = set(spanned_subtree(comp.vertices).vertices)
            for g in s.generators:
                image = _extension_oracle(ell, comp.vertices, comp.actions[g])
                fixed = {v for v in fixed if image[v] == v}
            assert per[str(ell)]["fixedVertices"] == [
                bt.format_vertex(v) for v in sorted(fixed)]
            witnessed += bool(fixed)
    assert witnessed >= 11  # fixed_pair2.json and its transported copies


def test_homomorphism_check_matches_pairwise_oracle():
    for s in _oracle_scenarios() + [scenario("s5_swaps480.json")]:
        report = dd.run_descent(s)
        assert report["checks"]["homomorphism"] is _homomorphism_oracle(s)
        assert report["checks"]["homomorphism"] is True


def _plant_twist_fault(monkeypatch, target):
    """Make _twist_of_element add the prime 101 to the twist of target."""
    real = dd._twist_of_element

    def faulty(s, elem, Q):
        t = real(s, elem, Q)
        return t | {101} if elem == target else t

    monkeypatch.setattr(dd, "_twist_of_element", faulty)


# fixtures whose acting group has at least three elements: in a group of
# order 2 a changed twist of the generator is still a homomorphism
PLANT_FIXTURES = ["cycle3_at2.json", "twogen_15.json", "twogen_35.json",
                  "star5.json", "s5_swaps480.json"]


@pytest.mark.parametrize("name", PLANT_FIXTURES)
def test_planted_twist_fault_fails_both_checks(monkeypatch, name):
    s = scenario(name)
    words = dd.group_elements(s)
    assert len(words) >= 3
    target = words[next(w for w in words if w)]
    _plant_twist_fault(monkeypatch, target)
    assert dd.run_descent(s)["checks"]["homomorphism"] is False
    assert _homomorphism_oracle(s) is False


@pytest.mark.parametrize("name", ["swap5.json", "trivial.json",
                                  "twogen_15.json"])
def test_nonempty_identity_twist_fails_both_checks(monkeypatch, name):
    s = scenario(name)
    _plant_twist_fault(monkeypatch, dd.group_elements(s)[()])
    assert dd.run_descent(s)["checks"]["homomorphism"] is False
    assert _homomorphism_oracle(s) is False


@pytest.mark.parametrize("omega", range(7))
def test_phi_tilde_check_matches_all_choices_oracle(omega):
    rng = random.Random(omega)
    edges = {}
    for ell in [2, 3, 5, 7, 11, 13][:omega]:
        r = bt.root(ell)
        e = dd.OrientedEdge(r, rng.choice(bt.neighbors(r)))
        edges[ell] = e.reverse() if rng.randrange(2) else e
    Q = dd.AdelicPoint.build(edges, {17: bt.root(17)}, {19: "+", 23: "-"})
    assert dd.check_phi_tilde_injective(Q) is True
    assert _phi_tilde_oracle(Q) is True


@pytest.mark.parametrize("terminus", ["5:[[1,0],[0,1]]", "5:[[1,0],[0,25]]"])
def test_oriented_edge_refuses_endpoints_that_are_not_adjacent(terminus):
    with pytest.raises(PreconditionError, match="must be adjacent"):
        dd.OrientedEdge(bt.root(5), bt.parse_vertex(terminus))


def test_phi_tilde_check_sees_a_collapsed_edge():
    # OrientedEdge refuses equal endpoints; force one past it to see the
    # check read False
    e = dd.OrientedEdge(bt.root(5), bt.parse_vertex("5:[[1,0],[0,5]]"))
    Q = dd.AdelicPoint.build({5: e}, {}, {})
    object.__setattr__(e, "terminus", e.origin)
    assert dd.check_phi_tilde_injective(Q) is False


def _bad_components():
    """Permutations of hand-built vertex sets at 2 that no tree isometry
    extends: one changes a distance from the first member, one only a
    distance between two others, one is not a bijection."""
    r = bt.root(2)
    m1, m2 = bt.neighbors(r)[:2]
    b, b2 = [w for w in bt.neighbors(m1) if w != r][:2]
    c = next(w for w in bt.neighbors(m2) if w != r)
    return [
        ((r, m1, m2), (1, 0, 2)),
        # distances from r are kept, but the path to b sends m1 to m1 and
        # the path to b2 sends it to m2
        ((r, b, c, b2), (0, 3, 1, 2)),
        ((r, m1, m2), (0, 1, 1)),
    ]


@pytest.mark.parametrize("case,pair", [(0, (0, 2)), (1, (1, 2)), (2, None)],
                         ids=["from-first", "between-others", "not-bijection"])
def test_non_isometric_component_raises(case, pair):
    # the message names the first pair of members whose distance changes
    verts, perm = _bad_components()[case]
    if pair is None:
        needle = "not a permutation of the vertices"
    else:
        a, b = (bt.format_vertex(verts[i]) for i in pair)
        needle = f"not distance-preserving on the pair ({a}, {b})"
    with pytest.raises(InconsistencyError) as err:
        dd._check_isometry(dd.LocalComponent(2, verts, {}), perm)
    assert str(err.value) == needle
    with pytest.raises(InconsistencyError):
        _extension_oracle(2, verts, perm)


def test_galois_apply_rejects_non_isometric_component():
    verts, perm = _bad_components()[0]
    comp = dd.LocalComponent(2, verts, {"s": perm})
    s = dd.GaloisScenario(1, ("s",), False, {2: comp}, {})
    Q = dd.AdelicPoint.build({}, {2: verts[0]}, {})
    with pytest.raises(InconsistencyError):
        dd.galois_apply(s, "s", Q)


def _point(edges=(), vertices=(), bits=()):
    """A hand-built point from vertex literals: edges are (ell, origin,
    terminus) triples, vertices (ell, vertex) pairs, bits (ell, sign)."""
    return dd.AdelicPoint.build(
        {ell: dd.OrientedEdge(bt.parse_vertex(o), bt.parse_vertex(t))
         for ell, o, t in edges},
        {ell: bt.parse_vertex(v) for ell, v in vertices},
        dict(bits))


def _non_isometric_scenario():
    verts, perm = _bad_components()[0]
    comp = dd.LocalComponent(2, verts, {"s": perm})
    return dd.GaloisScenario(1, ("s",), False, {2: comp}, {})


ROOT5, N5 = "5:[[1,0],[0,1]]", "5:[[1,0],[0,5]]"
FOREIGN_EDGE = (7, "7:[[1,0],[0,1]]", "7:[[1,0],[0,7]]")
FOREIGN_VERTEX = (11, "11:[[1,0],[0,1]]")

# name -> (scenario, point, word, error class, message); the points are
# hand-built, so each exercises one way a point and a scenario disagree
APPLY_ERRORS = {
    "edge-at-foreign-prime": (
        "swap5.json", _point(edges=[FOREIGN_EDGE]), "s", PreconditionError,
        "point has an edge at 7 but the scenario does not"),
    "vertex-at-foreign-prime": (
        "swap5.json", _point(vertices=[FOREIGN_VERTEX]), "s",
        PreconditionError,
        "point has a vertex at 11 but the scenario does not"),
    "edge-outside-subtree": (
        "swap5.json", _point(edges=[(5, N5, "5:[[1,0],[0,25]]")]), "s",
        PreconditionError, "point has an edge at 5 outside the spanned subtree"),
    "vertex-outside-subtree": (
        "swap5.json", _point(vertices=[(5, "5:[[1,1],[0,5]]")]), "s",
        PreconditionError,
        "point has a vertex at 5 outside the spanned subtree"),
    "moved-center-edge": (
        "star5.json", _point(edges=[(5, ROOT5, N5)]), "s", InconsistencyError,
        "action does not stabilize the center edge at 5"),
    "moved-center-vertex": (
        "swap5.json", _point(vertices=[(5, ROOT5)]), "s", InconsistencyError,
        "action moves the center vertex at 5"),
    "sign-outside-D": (
        "swap5_bit2.json", _point(edges=[(5, ROOT5, N5)], bits=[(7, "+")]),
        "s", PreconditionError,
        "point has a sign at 7 but the scenario does not"),
    # the messages come edges first, then vertices, then signs
    "edge-before-vertex-and-sign": (
        "swap5.json",
        _point(edges=[FOREIGN_EDGE], vertices=[FOREIGN_VERTEX],
               bits=[(2, "+")]),
        "s", PreconditionError,
        "point has an edge at 7 but the scenario does not"),
    "vertex-before-sign": (
        "swap5.json", _point(vertices=[FOREIGN_VERTEX], bits=[(2, "+")]),
        "s", PreconditionError,
        "point has a vertex at 11 but the scenario does not"),
    "non-isometric-generator": (
        None, _point(vertices=[(2, "2:[[1,0],[0,1]]")]), "s",
        InconsistencyError,
        "not distance-preserving on the pair (2:[[1,0],[0,1]], "
        "2:[[1,1],[0,2]])"),
    # each generator is checked for isometry, so s s is refused although
    # its permutation is the identity
    "non-isometric-square": (
        None, _point(vertices=[(2, "2:[[1,0],[0,1]]")]), "ss",
        InconsistencyError,
        "not distance-preserving on the pair (2:[[1,0],[0,1]], "
        "2:[[1,1],[0,2]])"),
}


@pytest.mark.parametrize("apply", ["galois_apply", "galois_twist"])
@pytest.mark.parametrize("case", APPLY_ERRORS)
def test_apply_errors_keep_their_class_and_message(case, apply):
    name, Q, word, cls, message = APPLY_ERRORS[case]
    s = scenario(name) if name else _non_isometric_scenario()
    with pytest.raises(cls) as err:
        getattr(dd, apply)(s, word, Q)
    assert type(err.value) is cls
    assert str(err.value) == message


BASE_LEVELS = {
    "bitflip2.json": 1, "bitflip23.json": 1, "composite_5_7_2.json": 5,
    "cycle3_at2.json": 1, "deep_pair2.json": 2, "doubleswap_35.json": 35,
    "fixed_pair2.json": 2, "path2_swap2.json": 1, "path2_swap3.json": 1,
    "path3_swap2.json": 2, "s5_swaps480.json": 33, "star5.json": 1,
    "swap5.json": 5, "swap5_bit2.json": 5, "trivial.json": 1,
    "twogen_15.json": 15, "twogen_35.json": 35,
}


def test_base_point_level_of_every_fixture():
    assert sorted(BASE_LEVELS) == sorted(p.name for p in DATA.glob("*.json"))
    for name, level in BASE_LEVELS.items():
        assert _base_point(name)[1].level == level


def test_s5_swaps480_scenario():
    # S5 on five neighbours of the root at 7, times edge swaps at 3 (c)
    # and 11 (d): the twist holds 3 or 11 when c or d occurs an odd
    # number of times
    s = scenario("s5_swaps480.json")
    assert len(dd.group_elements(s)) == 480
    report = dd.run_descent(s)
    assert report["N"] == 33
    assert report["point"]["vertices"] == {"7": "7:[[1,0],[0,1]]"}
    assert len(report["cocycle"]) == 479
    for label, twist in report["cocycle"].items():
        assert twist == [p for p, g in ((3, "c"), (11, "d"))
                         if label.count(g) % 2]
    assert dd.checks_pass(report)


NON_STRING_LITERALS = [None, 5, ["5:[[1,0],[0,1]]"], {"v": "5:[[1,0],[0,1]]"}]


@pytest.mark.parametrize("lit", NON_STRING_LITERALS,
                         ids=["null", "number", "list", "object"])
@pytest.mark.parametrize("where", ["vertices", "action"])
def test_non_string_vertex_literal_rejected(where, lit):
    obj = json.loads((DATA / "swap5.json").read_text())
    comp = obj["local"]["5"]
    if where == "vertices":
        comp["vertices"][1] = lit
    else:
        comp["action"]["s"][0] = lit
    with pytest.raises(ValidationError) as err:
        dd.scenario_from_json(obj)
    assert "bad literal" in str(err.value)
