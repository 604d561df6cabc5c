"""Descent simulator over local tree data.

A scenario couples a finite group, presented by named generators, with
an action on finitely many local pictures: at each prime ell away from
D a finite vertex set permuted isometrically, and at each prime
dividing D a two-element orientation set.  From this the simulator
derives the level N (the product of the primes whose vertex set
centers on an edge), builds a base point with a frozen orientation
convention, writes every group element as an orientation twist W_n,
and checks that the twist assignment is a cocycle, that the forgetful
map phi-tilde is injective over all orientation choices, and that no
level prime carries a globally fixed vertex.  Each action is read off
the member distances, which fix every vertex of the spanned subtree
(Serre, Trees, II.1).  An element acts on the base point as W_n for its
twist n, read off the hull rows of the centers: n holds each level
prime whose center edge the element reverses and each D prime whose
sign it flips.  Isometry is checked once per generator, since
isometries compose.  The first two checks hold by construction:
isometries compose as the group does and commute with edge reversal,
and an OrientedEdge joins adjacent vertices.

Scenario files are JSON:

    {
      "D": 6,
      "generators": ["s"],
      "relationsChecked": false,
      "local": {
        "5": {
          "vertices": ["5:[[1,0],[0,1]]", "5:[[1,0],[0,5]]"],
          "action": {"s": ["5:[[1,0],[0,5]]", "5:[[1,0],[0,1]]"]}
        }
      },
      "ramified": {"2": {"s": "flip"}, "3": {"s": "fix"}}
    }

Action values are image lists parallel to "vertices".  Primes absent
from "local" are implicitly a fixed singleton and never contribute to
the level.  Reports serialize deterministically; identical scenarios
give byte-identical reports.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import prod
from typing import Dict, FrozenSet, Tuple

from .center import Center, spanned_subtree, tree_center
from .errors import (
    InconsistencyError,
    PreconditionError,
    ResourceError,
    ValidationError,
)
from .orders import is_squarefree
from .quaternion import factorize, is_prime
from .tree import TreeVertex, distance, format_vertex, parse_vertex

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# closure guard: group_elements refuses a group with more elements
_GROUP_LIMIT = 512

Word = Tuple[str, ...]
# (per-split-prime index permutations, per-ramified-prime signs)
Element = Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]


@dataclass(frozen=True)
class LocalComponent:
    """Vertex set at one split prime plus the generator action.

    ``actions[g][i]`` is the index of the image of ``vertices[i]``.  In a
    tree a vertex of the spanned subtree is fixed by its distances to the
    members (Serre, Trees, II.1), so the isometry permuting the members by
    p sends v to the one u with ``_sends(p, hull[v], hull[u])``.
    """

    ell: int
    vertices: Tuple[TreeVertex, ...]
    actions: Dict[str, Tuple[int, ...]]

    @cached_property
    def hull(self) -> Dict[TreeVertex, Tuple[int, ...]]:
        """Each vertex of the spanned subtree, in key order, to its
        distances to the members."""
        return {v: tuple(distance(v, x) for x in self.vertices)
                for v in spanned_subtree(self.vertices).vertices}


def _sends(perm, row, image_row) -> bool:
    """Whether the isometry permuting the members by perm sends the vertex
    with distance profile row to the one with image_row."""
    return all(image_row[j] == d for j, d in zip(perm, row))


def _check_isometry(comp: LocalComponent, perm) -> None:
    """InconsistencyError unless perm permutes the members and keeps every
    distance between them; the distances are the members' hull rows."""
    verts = comp.vertices
    if sorted(perm) != list(range(len(verts))):
        raise InconsistencyError("not a permutation of the vertices")
    rows = [comp.hull[x] for x in verts]
    for i, j in combinations(range(len(verts)), 2):
        if rows[perm[i]][perm[j]] != rows[i][j]:
            raise InconsistencyError(
                f"not distance-preserving on the pair "
                f"({format_vertex(verts[i])}, {format_vertex(verts[j])})"
            )


@dataclass(frozen=True)
class GaloisScenario:
    D: int
    generators: Tuple[str, ...]
    relations_checked: bool
    local: Dict[int, LocalComponent]
    ramified: Dict[int, Dict[str, int]]  # ell -> generator -> +1 fix / -1 flip

    def split_primes(self):
        return sorted(self.local)

    def ramified_primes(self):
        return sorted(self.ramified)


def _prime_key(raw, tag, bad):
    try:
        ell = int(raw)
    except (TypeError, ValueError):
        bad.append(f"{tag}: key {raw!r} is not an integer")
        return None
    if ell < 2 or not is_prime(ell):
        bad.append(f"{tag}: {ell} is not prime")
        return None
    return ell


def _parse_local(ell, entry, generators, tag, bad):
    if not isinstance(entry, dict):
        bad.append(f"{tag}: must be an object")
        return None
    for key in sorted(set(entry) - {"vertices", "action"}):
        bad.append(f"{tag}: unknown field {key!r}")
    raw_verts = entry.get("vertices")
    if not isinstance(raw_verts, list) or not raw_verts:
        bad.append(f"{tag}.vertices: must be a nonempty list")
        return None
    verts = []
    for lit in raw_verts:
        try:
            v = parse_vertex(lit)
        except ValidationError:
            bad.append(f"{tag}.vertices: bad literal {lit!r}")
            return None
        if v.ell != ell:
            bad.append(f"{tag}.vertices: {lit!r} is not a vertex at {ell}")
            return None
        verts.append(v)
    if len(set(verts)) != len(verts):
        bad.append(f"{tag}.vertices: duplicate vertices")
        return None
    action_raw = entry.get("action", {})
    if not isinstance(action_raw, dict):
        bad.append(f"{tag}.action: must be an object")
        return None
    missing = sorted(set(generators) - set(action_raw))
    extra = sorted(set(action_raw) - set(generators))
    for g in missing:
        bad.append(f"{tag}.action: missing generator {g!r}")
    for g in extra:
        bad.append(f"{tag}.action: unknown generator {g!r}")
    if missing or extra:
        return None
    index = {v: i for i, v in enumerate(verts)}
    actions = {}
    comp = LocalComponent(ell, tuple(verts), actions)
    ok = True
    for g in generators:
        images = action_raw[g]
        gtag = f"{tag}.action.{g}"
        if not isinstance(images, list) or len(images) != len(verts):
            bad.append(f"{gtag}: image list must match the vertex list")
            ok = False
            continue
        perm = []
        for lit in images:
            try:
                w = parse_vertex(lit)
            except ValidationError:
                bad.append(f"{gtag}: bad literal {lit!r}")
                break
            if w not in index:
                bad.append(f"{gtag}: image {lit!r} is not a listed vertex")
                break
            perm.append(index[w])
        else:
            try:
                _check_isometry(comp, perm)
            except InconsistencyError as exc:
                bad.append(f"{gtag}: {exc}")
            else:
                actions[g] = tuple(perm)
                continue
        ok = False
    return comp if ok else None


def scenario_from_json(obj) -> GaloisScenario:
    """Parse and fully validate a scenario; lists every violation found."""
    if not isinstance(obj, dict):
        raise ValidationError("scenario must be a JSON object")
    bad = []
    allowed = {"D", "generators", "relationsChecked", "local", "ramified"}
    for key in sorted(set(obj) - allowed):
        bad.append(f"unknown field {key!r}")

    D = obj.get("D")
    if not isinstance(D, int) or isinstance(D, bool) or D < 1:
        bad.append("D: must be a positive integer")
        D = 1
    elif not is_squarefree(D):
        bad.append("D: must be squarefree")
    elif len(factorize(D)) % 2 != 0:
        bad.append("D: must be a product of an even number of primes")

    gens_raw = obj.get("generators")
    generators: Tuple[str, ...] = ()
    if not isinstance(gens_raw, list) or any(
        not isinstance(g, str) for g in gens_raw or []
    ):
        bad.append("generators: must be a list of names")
    else:
        for g in gens_raw:
            if not _NAME_RE.match(g):
                bad.append(f"generators: bad name {g!r}")
        if len(set(gens_raw)) != len(gens_raw):
            bad.append("generators: duplicate names")
        generators = tuple(gens_raw)

    rc = obj.get("relationsChecked", False)
    if not isinstance(rc, bool):
        bad.append("relationsChecked: must be a boolean")
        rc = False

    local: Dict[int, LocalComponent] = {}
    local_raw = obj.get("local", {})
    if not isinstance(local_raw, dict):
        bad.append("local: must be an object keyed by primes")
    else:
        for raw in sorted(local_raw, key=str):
            tag = f"local.{raw}"
            ell = _prime_key(raw, tag, bad)
            if ell is None:
                continue
            if D % ell == 0:
                bad.append(f"{tag}: prime divides D")
                continue
            if ell in local:
                bad.append(f"{tag}: duplicate prime")
                continue
            comp = _parse_local(ell, local_raw[raw], generators, tag, bad)
            if comp is not None:
                local[ell] = comp

    ramified: Dict[int, Dict[str, int]] = {}
    ram_raw = obj.get("ramified", {})
    if not isinstance(ram_raw, dict):
        bad.append("ramified: must be an object keyed by primes")
    else:
        for raw in sorted(ram_raw, key=str):
            tag = f"ramified.{raw}"
            ell = _prime_key(raw, tag, bad)
            if ell is None:
                continue
            if D % ell != 0:
                bad.append(f"{tag}: prime does not divide D")
                continue
            entry = ram_raw[raw]
            if not isinstance(entry, dict):
                bad.append(f"{tag}: must be an object")
                continue
            for g in sorted(set(generators) - set(entry)):
                bad.append(f"{tag}: missing generator {g!r}")
            for g in sorted(set(entry) - set(generators)):
                bad.append(f"{tag}: unknown generator {g!r}")
            acts = {}
            for g in generators:
                val = entry.get(g)
                if val == "fix":
                    acts[g] = 1
                elif val == "flip":
                    acts[g] = -1
                elif g in entry:
                    bad.append(f"{tag}.{g}: must be \"flip\" or \"fix\"")
            if len(acts) == len(generators):
                ramified[ell] = acts
        covered = {p for p, _ in factorize(D)} if D > 1 else set()
        for ell in sorted(covered - set(ramified)):
            if not any(f"ramified.{ell}" in msg for msg in bad):
                bad.append(f"ramified: missing prime {ell} dividing D")

    if bad:
        raise ValidationError("invalid scenario: " + "; ".join(bad))
    return GaloisScenario(D, generators, rc, local, ramified)


def load_scenario(path) -> GaloisScenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # also numbers past the digit limit
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_json(obj)


# ---------------------------------------------------------------- group


def _identity_element(s: GaloisScenario) -> Element:
    perms = tuple(
        tuple(range(len(s.local[l].vertices))) for l in s.split_primes()
    )
    return perms, tuple(1 for _ in s.ramified_primes())


def _generator_element(s: GaloisScenario, g: str) -> Element:
    """The element g names.  InconsistencyError unless g is an isometry at
    every split prime; isometries compose, so every element is one."""
    perms = tuple(s.local[l].actions[g] for l in s.split_primes())
    for l, p in zip(s.split_primes(), perms):
        _check_isometry(s.local[l], p)
    return perms, tuple(s.ramified[l][g] for l in s.ramified_primes())


def _compose(a: Element, b: Element) -> Element:
    # (a b)(x) = a(b(x)): b acts first
    perms = tuple(
        tuple(pa[i] for i in pb) for pa, pb in zip(a[0], b[0])
    )
    return perms, tuple(x * y for x, y in zip(a[1], b[1]))


def parse_word(s: GaloisScenario, word) -> Word:
    """A word is a generator-name sequence, a '*'-joined string, or a
    plain concatenation resolved by longest match."""
    if isinstance(word, str):
        if word == "":
            return ()
        if "*" in word:
            names = tuple(word.split("*"))
        else:
            names = []
            rest = word
            by_len = sorted(s.generators, key=len, reverse=True)
            while rest:
                for g in by_len:
                    if rest.startswith(g):
                        names.append(g)
                        rest = rest[len(g):]
                        break
                else:
                    raise PreconditionError(
                        f"cannot read {word!r} as a word in the generators"
                    )
            names = tuple(names)
    else:
        names = tuple(word)
    for g in names:
        if g not in s.generators:
            raise PreconditionError(f"unknown generator {g!r}")
    return names


def element_of_word(s: GaloisScenario, word) -> Element:
    elem = _identity_element(s)
    for g in parse_word(s, word):
        elem = _compose(elem, _generator_element(s, g))
    return elem


def group_elements(s: GaloisScenario) -> Dict[Word, Element]:
    """Closure of the generators; keys are shortest words in list order."""
    gens = [(g, _generator_element(s, g)) for g in s.generators]
    ident = _identity_element(s)
    words: Dict[Word, Element] = {(): ident}
    seen = {ident}
    frontier: list = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g, eg in gens:
                e = _compose(words[w], eg)
                if e in seen:
                    continue
                if len(words) >= _GROUP_LIMIT:
                    raise ResourceError(
                        f"group closure exceeded {_GROUP_LIMIT} elements"
                    )
                seen.add(e)
                words[w + (g,)] = e
                nxt.append(w + (g,))
        frontier = nxt
    return words


def word_label(s: GaloisScenario, word: Word) -> str:
    if all(len(g) == 1 for g in s.generators):
        return "".join(word)
    return "*".join(word)


# ---------------------------------------------------------------- points


@dataclass(frozen=True)
class OrientedEdge:
    origin: TreeVertex
    terminus: TreeVertex

    def __post_init__(self):
        if distance(self.origin, self.terminus) != 1:
            raise PreconditionError("edge endpoints must be adjacent")

    def reverse(self) -> "OrientedEdge":
        return OrientedEdge(self.terminus, self.origin)


@dataclass(frozen=True)
class AdelicPoint:
    """Oriented center data: one oriented edge per level prime, one
    vertex per other scenario prime and one sign per prime dividing D."""

    edges: Tuple[Tuple[int, OrientedEdge], ...]
    vertices: Tuple[Tuple[int, TreeVertex], ...]
    bits: Tuple[Tuple[int, str], ...]

    @staticmethod
    def build(edges, vertices, bits) -> "AdelicPoint":
        return AdelicPoint(
            tuple(sorted(edges.items())),
            tuple(sorted(vertices.items())),
            tuple(sorted(bits.items())),
        )

    @property
    def level(self) -> int:
        """The product of the edge primes."""
        return prod(ell for ell, _ in self.edges)

    @property
    def edge_map(self):
        return dict(self.edges)

    @property
    def vertex_map(self):
        return dict(self.vertices)

    @property
    def bit_map(self):
        return dict(self.bits)


def _flip(bit: str) -> str:
    return "-" if bit == "+" else "+"


def compute_level(s: GaloisScenario):
    """N and the center of every listed split prime."""
    centers = {l: tree_center(s.local[l].vertices) for l in s.split_primes()}
    N = 1
    for ell, c in centers.items():
        if c.is_edge():
            N *= ell
    return N, centers


def choose_point(s: GaloisScenario, centers: Dict[int, Center]) -> AdelicPoint:
    """Base point with the frozen orientation convention: the textually
    smaller vertex literal becomes the origin; ramified signs start at +."""
    edges = {}
    vertices = {}
    for ell, c in centers.items():
        if c.is_edge():
            u, w = c.vertices
            if format_vertex(w) < format_vertex(u):
                u, w = w, u
            edges[ell] = OrientedEdge(u, w)
        else:
            vertices[ell] = c.vertices[0]
    bits = {ell: "+" for ell in s.ramified_primes()}
    return AdelicPoint.build(edges, vertices, bits)


def _twist_primes(n) -> FrozenSet[int]:
    if isinstance(n, int):
        if n < 1 or not is_squarefree(n):
            raise PreconditionError(
                "twist must be a squarefree positive integer"
            )
        return frozenset(p for p, _ in factorize(n)) if n > 1 else frozenset()
    primes = set()
    for p in n:
        if not isinstance(p, int) or not is_prime(p):
            raise PreconditionError(f"twist member {p!r} is not prime")
        primes.add(p)
    return frozenset(primes)


def atkin_lehner(Q: AdelicPoint, n) -> AdelicPoint:
    """W_n: reverse the edge at each level prime of n, flip the sign at
    each D prime of n.  n may be a squarefree integer or a prime set."""
    primes = _twist_primes(n)
    allowed = set(Q.edge_map) | set(Q.bit_map)
    for p in sorted(primes - allowed):
        raise PreconditionError(
            f"twist prime {p} divides neither the level nor D"
        )
    edges = {
        ell: (e.reverse() if ell in primes else e) for ell, e in Q.edges
    }
    bits = {
        ell: (_flip(b) if ell in primes else b) for ell, b in Q.bits
    }
    return AdelicPoint.build(edges, dict(Q.vertices), bits)


def _twist_of_element(s, elem, Q) -> FrozenSet[int]:
    """The prime set n with elem(Q) = W_n(Q), read off the hull rows of
    Q's centers: a level prime is in n if elem swaps the ends of its
    center edge, and a D prime if elem flips its sign."""
    perms = dict(zip(s.split_primes(), elem[0]))
    signs = dict(zip(s.ramified_primes(), elem[1]))

    def rows(ell, what, *vs):
        # the permutation at ell and the hull rows of the point's vertices
        # there; what is "an edge" or "a vertex", for the messages
        if ell not in perms:
            raise PreconditionError(
                f"point has {what} at {ell} but the scenario does not"
            )
        hull = s.local[ell].hull
        if not all(v in hull for v in vs):
            raise PreconditionError(
                f"point has {what} at {ell} outside the spanned subtree"
            )
        return perms[ell], [hull[v] for v in vs]

    n = set()
    for ell, e in Q.edges:
        p, (o, t) = rows(ell, "an edge", e.origin, e.terminus)
        if _sends(p, o, o) and _sends(p, t, t):
            continue
        if not (_sends(p, o, t) and _sends(p, t, o)):
            raise InconsistencyError(
                f"action does not stabilize the center edge at {ell}"
            )
        n.add(ell)
    for ell, v in Q.vertices:
        p, (row,) = rows(ell, "a vertex", v)
        if not _sends(p, row, row):
            raise InconsistencyError(
                f"action moves the center vertex at {ell}"
            )
    for ell, _ in Q.bits:
        if ell not in signs:
            raise PreconditionError(
                f"point has a sign at {ell} but the scenario does not"
            )
        if signs[ell] == -1:
            n.add(ell)
    return frozenset(n)


def galois_twist(s: GaloisScenario, sigma, Q: AdelicPoint) -> FrozenSet[int]:
    """The unique prime set n with sigma(Q) = W_n(Q)."""
    return _twist_of_element(s, element_of_word(s, sigma), Q)


def galois_apply(s: GaloisScenario, sigma, Q: AdelicPoint) -> AdelicPoint:
    """The group element named by the word sigma acts on Q as W_n for its
    twist n."""
    return atkin_lehner(Q, galois_twist(s, sigma, Q))


def phi(Q: AdelicPoint) -> AdelicPoint:
    """Forget orientations: each edge collapses to its origin vertex."""
    vertices = dict(Q.vertices)
    for ell, e in Q.edges:
        vertices[ell] = e.origin
    return AdelicPoint.build({}, vertices, dict(Q.bits))


def phi_tilde(Q: AdelicPoint):
    """(phi(Q), phi(W_N(Q))) where N is the level of Q."""
    return phi(Q), phi(atkin_lehner(Q, set(Q.edge_map)))


def check_phi_tilde_injective(Q: AdelicPoint) -> bool:
    """phi_tilde separates all 2^omega(N) orientation assignments of the
    same centers.  At an edge (o, t), phi_tilde(W_T(Q)) shows (o, t) if
    the prime is outside T and (t, o) if it is in T, and two assignments
    agree off their difference; so it suffices that o != t everywhere."""
    return all(e.origin != e.terminus for _, e in Q.edges)


def verify_minimality(s: GaloisScenario, N=None) -> dict:
    """No vertex of the spanned subtree at any level prime may be fixed
    by every generator; witnesses are reported per prime."""
    if N is None:
        N, _ = compute_level(s)
    per = {}
    for ell in s.split_primes():
        if N % ell != 0:
            continue
        comp = s.local[ell]
        perms = [comp.actions[g] for g in s.generators]
        for p in perms:
            _check_isometry(comp, p)
        fixed = [v for v, row in comp.hull.items()
                 if all(_sends(p, row, row) for p in perms)]
        per[str(ell)] = {
            "ok": not fixed,
            "fixedVertices": [format_vertex(v) for v in fixed],
        }
    return {"ok": all(p["ok"] for p in per.values()), "perPrime": per}


# ---------------------------------------------------------------- report


def point_to_json(Q: AdelicPoint) -> dict:
    return {
        "level": Q.level,
        "edges": {
            str(ell): {
                "origin": format_vertex(e.origin),
                "terminus": format_vertex(e.terminus),
            }
            for ell, e in Q.edges
        },
        "vertices": {str(ell): format_vertex(v) for ell, v in Q.vertices},
        "ramified": {str(ell): b for ell, b in Q.bits},
        "tau": "tau0",
    }


def run_descent(s: GaloisScenario) -> dict:
    """End-to-end report: level, centers, base point, cocycle table over
    the whole group, and the three checks.  Check failures are recorded,
    not raised."""
    N, centers = compute_level(s)
    Q = choose_point(s, centers)
    words = group_elements(s)
    by_element = {e: w for w, e in words.items()}
    twists = {w: _twist_of_element(s, e, Q) for w, e in words.items()}

    # t(e) = {} and t(g x) = t(g) ^ t(x) for generators g give
    # t(x y) = t(x) ^ t(y) by induction on a word for x:
    # t(g x y) = t(g) ^ t(x y) = t(g) ^ t(x) ^ t(y) = t(g x) ^ t(y).
    # A generator may equal e or another generator: look it up by element.
    gens = [_generator_element(s, g) for g in s.generators]
    hom_ok = not twists[()] and all(
        twists[by_element[_compose(eg, e)]]
        == twists[by_element[eg]] ^ twists[w]
        for eg in gens
        for w, e in words.items()
    )
    inj_ok = check_phi_tilde_injective(Q)
    minimality = verify_minimality(s, N)

    return {
        "N": N,
        "centers": {
            str(ell): {
                "kind": c.kind,
                "vertices": [format_vertex(v) for v in c.vertices],
            }
            for ell, c in centers.items()
        },
        "point": point_to_json(Q),
        "cocycle": {
            word_label(s, w): sorted(twists[w])
            for w in words
            if w != ()
        },
        "checks": {
            "homomorphism": hom_ok,
            "phiTildeInjective": inj_ok,
            "minimality": minimality["ok"],
        },
    }


def report_to_json(report: dict) -> str:
    """The report as sorted, indented JSON: the CLI's one output format."""
    try:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    except ValueError as exc:  # an integer past the int-str digit limit
        raise ResourceError(f"output too large to print: {exc}") from None


def checks_pass(report: dict) -> bool:
    return all(report["checks"].values())
