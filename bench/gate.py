"""Independent re-check of every answer the pipelines return.

`verify_packing` is part of the code under test, so nothing here calls into
treepack: parts are re-checked with this file's own union-find and
breadth-first search against the edge list copied out of the instance when
it was generated, and certificates are recounted from that list.
"""

from __future__ import annotations

import hashlib
from collections import deque


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _reaches_all(edges: list[tuple[int, int]], vertices: set[int]) -> bool:
    """True when the edges connect every vertex of `vertices` (BFS)."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(vertices)
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return vertices <= seen


def _check_part(mode: str, part, ends: dict[int, tuple[int, int]],
                vertices: frozenset[int], terminals: frozenset[int]) -> str | None:
    edges = [ends[eid] for eid in part]
    touched = {x for e in edges for x in e}
    if mode == "spanning":
        if len(edges) != len(vertices) - 1:
            return f"{len(edges)} edges cannot form a spanning tree on {len(vertices)} vertices"
        touched = set(vertices)
    elif not terminals <= touched:
        return "part misses a terminal"
    if mode in ("spanning", "steiner"):
        uf = _UnionFind()
        if not all(u != v and uf.union(u, v) for u, v in edges):
            return "part has a cycle"
    if not _reaches_all(edges, touched):
        return "part is disconnected"
    if mode == "connector":
        degree: dict[int, int] = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        odd = sorted(v for v, d in degree.items() if d % 2 and v not in terminals)
        if odd:
            return f"non-terminal {odd[0]} has odd degree"
    return None


def check(inst, result) -> str | None:
    """None when `result` is a correct answer for `inst`, else the reason."""
    if result.method != "pipeline":
        return f"method {result.method!r}, expected 'pipeline'"
    if result.outcome != inst.expected:
        return f"outcome {result.outcome!r}, expected {inst.expected!r}"
    ends = inst.ends
    if result.outcome == "packed":
        packing = result.packing
        if packing.mode != inst.mode or len(packing.parts) != inst.k:
            return f"{len(packing.parts)} {packing.mode} parts, expected {inst.k} {inst.mode}"
        used: set[int] = set()
        for i, part in enumerate(packing.parts):
            if not part <= ends.keys():
                return f"part {i} names an edge the instance does not have"
            if used & part:
                return f"part {i} shares an edge with an earlier part"
            used |= part
            reason = _check_part(inst.mode, part, ends, inst.vertices, inst.terminals)
            if reason:
                return f"part {i}: {reason}"
        return None
    cert = result.certificate
    if cert.kind != "violating-partition" or cert.scope != "graph":
        return f"certificate {cert.kind}/{cert.scope}, expected violating-partition/graph"
    block_of: dict[int, int] = {}
    for i, block in enumerate(cert.partition):
        for v in block:
            if v in block_of:
                return f"vertex {v} lies in two blocks"
            block_of[v] = i
    if block_of.keys() != inst.vertices or not all(cert.partition):
        return "blocks are not a partition of the vertex set"
    crossing = sum(block_of[u] != block_of[v] for u, v in ends.values())
    bound = inst.k * (len(cert.partition) - 1)
    if (crossing, bound) != (cert.lambda_out, cert.bound) or crossing >= bound:
        return (f"recount gives {crossing} crossing edges against bound {bound}; "
                f"certificate says {cert.lambda_out} < {cert.bound}")
    return None


def canonical(result) -> str:
    """Text form of an answer, independent of treepack's serializers."""
    if result.outcome == "packed":
        parts = ";".join(",".join(map(str, sorted(p))) for p in result.packing.parts)
        return f"packed {result.packing.mode} {parts}"
    cert = result.certificate
    if cert is None:
        return result.outcome
    blocks = "|".join(",".join(map(str, sorted(b)))
                      for b in sorted(cert.partition or (), key=min))
    return f"certificate {cert.kind} {blocks} {cert.lambda_out} {cert.bound}"


def digest(answers: list[str]) -> str:
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()[:16]
