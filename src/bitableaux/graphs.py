"""Crystal graphs: vertices with weights, indexed f/e edges, DOT and JSON export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

Weight = tuple[int, ...]


@dataclass(frozen=True)
class CrystalVertex:
    """A vertex: its id, a JSON-ready payload and its weights.

    A bitableau vertex (full_crystal, the shape-(2,1) candidate) carries a
    dict {"shape", "rows", "n", "m"} whose shape and rows are tuples, so they
    cannot change in place; full_crystal shares its row tuples and their pair
    tuples between vertices.  A word-crystal vertex carries its word as a list.
    """

    id: int
    payload: object = field(hash=False)
    weight_a: Weight | None
    weight_b: Weight


@dataclass(frozen=True)
class CrystalGraph:
    """Finite crystal: f-edges stored as (vertex id, operator index) -> id.

    Vertex ids are distinct, every edge joins two vertices and each f_i is
    injective; e-edges are the inverses of the f-edges.  Immutable: the
    edges are a read-only copy of the mapping passed in, so e() never goes
    stale.
    """

    vertices: tuple[CrystalVertex, ...]
    edges: Mapping[tuple[int, int], int] = field(hash=False)
    _reverse: Mapping[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        ids = {v.id for v in vertices}
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
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", MappingProxyType(edges))
        object.__setattr__(self, "_reverse", MappingProxyType(rev))

    def f(self, vertex_id: int, i: int) -> int | None:
        return self.edges.get((vertex_id, i))

    def e(self, vertex_id: int, i: int) -> int | None:
        return self._reverse.get((vertex_id, i))

    def operator_indices(self) -> tuple[int, ...]:
        return tuple(sorted({i for _, i in self.edges}))

    def highest_weight_ids(self) -> list[int]:
        """Ids of the vertices no f-edge enters, that is, with no e-edge out."""
        targets = set(self.edges.values())
        return [v.id for v in self.vertices if v.id not in targets]

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


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_crystal(
    g: CrystalGraph, format: str = "dot", name: str = "crystal", dashed: Iterable[int] = ()
) -> str:
    """Serialize a crystal graph; byte-stable across runs.

    DOT only: the graph is called name and the vertex ids in dashed are dashed.
    A label is the compact JSON of the payload's rows (of the payload when it
    has none).  When that is a tuple, each of its row objects is formatted
    once per call and its text reused for every vertex that holds it, as
    full_crystal's vertices share their rows.
    """
    if format == "json":
        return json.dumps(g.to_json(), separators=(",", ":"), sort_keys=True)
    if format != "dot":
        raise ValueError(f"unknown format {format!r}")
    dashed = set(dashed)
    # id(row) -> (row, its label text); holding the row keeps its id unique
    # for the call
    texts: dict[int, tuple[object, str]] = {}
    lines = [f"digraph {name} {{"]
    for v in g.vertices:
        shown = v.payload
        if isinstance(shown, dict) and "rows" in shown:
            shown = shown["rows"]
        if type(shown) is tuple:
            parts = []
            for row in shown:
                known = texts.get(id(row))
                if known is None:
                    known = texts[id(row)] = (row, _escape(_compact_json(row)))
                parts.append(known[1])
            label = "[" + ",".join(parts) + "]"
        else:
            label = _escape(_compact_json(shown))
        attrs = [f'label="{label}"']
        if v.weight_a is not None:
            attrs.append(f'weight_a="{",".join(map(str, v.weight_a))}"')
        attrs.append(f'weight_b="{",".join(map(str, v.weight_b))}"')
        if v.id in dashed:
            attrs.append("style=dashed")
        lines.append(f'  v{v.id} [{" ".join(attrs)}];')
    for (src, i), dst in sorted(g.edges.items()):
        lines.append(f'  v{src} -> v{dst} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
