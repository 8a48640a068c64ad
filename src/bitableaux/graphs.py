"""Crystal graphs: vertices with weights, indexed f/e edges, DOT and JSON export."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .partitions import check_int

Weight = tuple[int, ...]


@dataclass(frozen=True)
class CrystalVertex:
    """A vertex: its id, a JSON-ready payload and its weights.

    A bitableau vertex (full_crystal, the shape-(2,1) candidate) carries a
    dict {"shape", "rows", "n", "m"} whose shape and rows are tuples, so they
    cannot change in place; full_crystal shares its row tuples, their pair
    tuples and its weight tuples (one per distinct weight) between vertices.
    A word-crystal vertex carries its word as a list.
    """

    id: int
    payload: object = field(hash=False)
    weight_a: Weight | None
    weight_b: Weight


@dataclass(frozen=True)
class CrystalGraph:
    """Finite crystal: f-edges stored as (vertex id, operator index) -> id.

    Vertex ids are distinct ints >= 0 and operator indices ints >= 1, both
    checked by partitions.check_int; every edge joins two vertices and each
    f_i is injective; e-edges are the inverses of the f-edges.  Immutable: the
    edges are a read-only copy of the mapping passed in, so e() never goes
    stale.
    """

    vertices: tuple[CrystalVertex, ...]
    edges: Mapping[tuple[int, int], int] = field(hash=False)
    _reverse: Mapping[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        ids = {v.id for v in vertices}
        # each integer rule scans types and bounds at C level first, so a
        # graph with nothing to refuse runs no check_int loop
        if set(map(type, ids)) - {int} or min(ids, default=0) < 0:
            for v in vertices:
                check_int(v.id, "vertex id")
        if len(ids) != len(vertices):
            raise ValueError("vertex ids must be distinct")
        edges = dict(self.edges)
        rev: dict[tuple[int, int], int] = {}
        for (src, i), dst in edges.items():
            if src not in ids or dst not in ids:
                raise ValueError(f"f_{i} edge {src} -> {dst} is not between vertices")
            key = (dst, i)
            if key in rev:
                raise ValueError(f"f_{i} is not injective at vertex {dst}")
            rev[key] = src
        # an endpoint equal to a vertex id but of another type (1.0, True) passes the test above
        numbers = chain(chain.from_iterable(edges), edges.values())
        if set(map(type, numbers)) - {int} or min(map(itemgetter(1), edges), default=1) < 1:
            for (src, i), dst in edges.items():
                check_int(src, "vertex id")
                check_int(i, "operator index", 1)
                check_int(dst, "vertex id")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", MappingProxyType(edges))
        object.__setattr__(self, "_reverse", MappingProxyType(rev))

    def f(self, vertex_id: int, i: int) -> int | None:
        return self.edges.get((vertex_id, i))

    def e(self, vertex_id: int, i: int) -> int | None:
        return self._reverse.get((vertex_id, i))

    def operator_indices(self) -> tuple[int, ...]:
        return tuple(sorted({i for _, i in self.edges}))

    @cached_property
    def highest_weight_vertices(self) -> tuple[CrystalVertex, ...]:
        """The vertices no f-edge enters, that is, with no e-edge out, in vertex order.

        Read once per graph: the graph is immutable.
        """
        targets = set(self.edges.values())
        return tuple(v for v in self.vertices if v.id not in targets)

    def highest_weight_ids(self) -> list[int]:
        """Ids of the highest-weight vertices, a fresh list from highest_weight_vertices."""
        return [v.id for v in self.highest_weight_vertices]

    def components(self) -> list[list[int]]:
        """Vertex ids per connected component, each sorted, in sorted order."""
        parent = {v.id: v.id for v in self.vertices}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (src, _), dst in self.edges.items():
            ra, rb = find(src), find(dst)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for v in self.vertices:
            groups.setdefault(find(v.id), []).append(v.id)
        return sorted(sorted(g) for g in groups.values())

    def to_json(self) -> dict:
        """The naive reference of export_crystal's JSON: only the tests call it."""
        return {
            "vertices": [
                {
                    "id": v.id,
                    "payload": v.payload,
                    "weight_a": list(v.weight_a) if v.weight_a is not None else None,
                    "weight_b": list(v.weight_b),
                }
                for v in self.vertices
            ],
            "edges": [
                {"from": src, "i": i, "dir": "f", "to": dst}
                for (src, i), dst in sorted(self.edges.items())
            ],
        }


_compact_json = json.JSONEncoder(separators=(",", ":")).encode
_sorted_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode  # json.dumps's


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


class _Texts(dict):
    """id(obj) -> obj's text, encoded once per export call by calling it on obj.

    A hot loop reads get(id(obj)) or self(obj).  It holds every object it
    has encoded, so that no other object takes its id during the call.
    """

    def __init__(self, encode: Callable[[object], str]) -> None:
        super().__init__()
        self.encode = encode
        self.held: list[object] = []

    def __call__(self, obj: object) -> str:
        text = self.get(id(obj))
        if text is None:
            text = self[id(obj)] = self.encode(obj)
            self.held.append(obj)
        return text


def _frame(rest: dict) -> tuple[dict, str, str] | None:
    """A payload's items other than rows, as the text before and after its rows.

    None unless every key is a str, so that json.dumps writes the payload.
    The frame holds rest, so that the ids of its keys and values stay theirs.
    """
    if not all(type(k) is str for k in rest):
        return None
    items = [f"{_sorted_json(k)}:{_sorted_json(x)}" for k, x in sorted(rest.items())]
    before = sum(k < "rows" for k in rest)
    head = "{" + "".join(item + "," for item in items[:before]) + '"rows":['
    return rest, head, "]" + "".join("," + item for item in items[before:]) + "}"


def _json(g: CrystalGraph) -> str:
    """json.dumps(g.to_json(), separators=(",", ":"), sort_keys=True), without the dict tree.

    A dict payload with str keys and tuple rows is its frame (made once per
    set of key and value objects) around its rows, each row object encoded
    once; any other payload is one json.dumps.  Each weight object is
    encoded once.  Vertex ids and operator indices are written with %d, as
    the graph holds them to ints.
    """
    row_texts, weight_texts = _Texts(_sorted_json), _Texts(lambda w: _sorted_json(list(w)))
    row_text, weight_text = row_texts.get, weight_texts.get
    frames: dict[tuple[int, ...], tuple[dict, str, str] | None] = {}  # by the ids of rest's keys and values
    vertices = []
    for v in g.vertices:
        payload, frame = v.payload, None
        if type(payload) is dict and type(payload.get("rows")) is tuple:
            rest = payload.copy()
            rows = rest.pop("rows")
            key = tuple(map(id, chain(rest, rest.values())))
            frame = frames.get(key)
            if frame is None:
                frame = frames[key] = _frame(rest)
        if frame:
            text = frame[1] + ",".join([row_text(id(r)) or row_texts(r) for r in rows]) + frame[2]
        else:
            text = _sorted_json(payload)
        wa, wb = v.weight_a, v.weight_b
        wa = "null" if wa is None else weight_text(id(wa)) or weight_texts(wa)
        wb = weight_text(id(wb)) or weight_texts(wb)
        vertices.append('{"id":%d,"payload":%s,"weight_a":%s,"weight_b":%s}' % (v.id, text, wa, wb))
    edges = ['{"dir":"f","from":%d,"i":%d,"to":%d}' % (src, i, dst) for (src, i), dst in sorted(g.edges.items())]
    return '{"edges":[' + ",".join(edges) + '],"vertices":[' + ",".join(vertices) + "]}"


_DOT_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def export_crystal(
    g: CrystalGraph, format: str = "dot", name: str = "crystal", dashed: Iterable[int] = ()
) -> str:
    """Serialize a crystal graph; byte-stable across runs.

    JSON has the bytes of json.dumps(g.to_json(), separators=(",", ":"),
    sort_keys=True), the reference the tests compare it with; _json writes
    every graph without calling to_json or building that dict tree.  DOT:
    the graph is called name, which must be an identifier
    ([A-Za-z_][A-Za-z0-9_]*) and no DOT keyword in any case; each vertex is
    the node v<id> (a valid name, as ids are ints >= 0) and the vertex ids
    in dashed are dashed.  A label is the compact JSON of the payload's rows (of the payload when it has
    none).  Both forms encode each row object of tuple rows, and each
    weight object, once per call and reuse its text for every vertex that
    holds it, as full_crystal's vertices share their rows and weights; DOT
    keeps each weight as its whole attribute, so a vertex is one f-string,
    and the edges are one list comprehension.
    """
    if format == "json":
        return _json(g)
    if format != "dot":
        raise ValueError(f"unknown format {format!r}")
    if not isinstance(name, str) or not _DOT_NAME.fullmatch(name) or name.lower() in _DOT_KEYWORDS:
        raise ValueError(f"graph name {name!r} is not a DOT identifier")
    dashed = set(dashed)
    row_texts = _Texts(lambda row: _escape(_compact_json(row)))
    # each weight object's attribute, with its leading space
    a_texts = _Texts(lambda w: ' weight_a="%s"' % ",".join(map(str, w)))
    b_texts = _Texts(lambda w: ' weight_b="%s"' % ",".join(map(str, w)))
    row_text, a_text, b_text = row_texts.get, a_texts.get, b_texts.get
    lines = [f"digraph {name} {{"]
    for v in g.vertices:
        shown = v.payload
        if isinstance(shown, dict) and "rows" in shown:
            shown = shown["rows"]
        if type(shown) is tuple:
            label = "[" + ",".join([row_text(id(r)) or row_texts(r) for r in shown]) + "]"
        else:
            label = _escape(_compact_json(shown))
        wa, wb = v.weight_a, v.weight_b
        wa = "" if wa is None else a_text(id(wa)) or a_texts(wa)
        wb = b_text(id(wb)) or b_texts(wb)
        style = " style=dashed" if dashed and v.id in dashed else ""
        lines.append(f'  v{v.id} [label="{label}"{wa}{wb}{style}];')
    lines += [f'  v{src} -> v{dst} [label="{i}"];' for (src, i), dst in sorted(g.edges.items())]
    lines.append("}")
    return "\n".join(lines) + "\n"
