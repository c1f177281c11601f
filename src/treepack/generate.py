"""Seeded instance generators for the three experiment models.

All randomness flows through the pinned 64-bit generator in `rng`, so a
(model, n, k, seed) tuple fully determines the instance.  Every model
verifies its own connectivity target before returning and retries with
fresh draws on a miss; the retry budget is 1000 attempts.

Models:
  nwt       union of k+1 vertex permutations closed into cycles; every cut
            receives at least two edges per cycle, so the 2k target always
            verifies.  All vertices are terminals.
  fkk       bipartite shape: terminals plus degree-3 non-terminals on
            random distinct terminal triples (optionally a few
            terminal-terminal edges), padded until every terminal degree
            reaches 3k, then verified to 3k terminal connectivity.
  kriesell  random multigraph with geometric edge multiplicities over a
            seeded terminal subset, verified to the requested threshold
            (the 5k-range packing threshold by default).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GenerationFailureError, InvalidArgumentError
from .graphcore import Multigraph, steiner_connectivity
from .packing import Thresholds
from .rng import SplitMix64

RETRY_BUDGET = 1000

MODELS = ("nwt", "fkk", "kriesell")


@dataclass(frozen=True)
class GeneratedInstance:
    model: str
    n: int
    k: int
    seed: int
    graph: Multigraph
    terminals: frozenset[int]
    connectivity: int
    target: int
    attempts: int


def generate(model: str, n: int, k: int, seed: int) -> GeneratedInstance:
    if model == "nwt":
        return generate_nwt(n, k, seed)
    if model == "fkk":
        return generate_fkk(n, k, seed)
    if model == "kriesell":
        return generate_kriesell(n, k, seed)
    raise InvalidArgumentError(f"unknown model {model!r}")


def generate_nwt(n: int, k: int, seed: int) -> GeneratedInstance:
    if n < 2 or k < 1:
        raise InvalidArgumentError("nwt model needs n >= 2 and k >= 1")
    rng = SplitMix64(seed)
    target = 2 * k
    for attempt in range(1, RETRY_BUDGET + 1):
        g = Multigraph()
        for v in range(n):
            g.add_vertex(v)
        for _ in range(k + 1):
            order = list(range(n))
            rng.shuffle(order)
            for i in range(n):
                g.add_edge(order[i], order[(i + 1) % n])
        conn = steiner_connectivity(g, frozenset(range(n)))
        if conn >= target:
            return GeneratedInstance(model="nwt", n=n, k=k, seed=seed, graph=g,
                                     terminals=frozenset(range(n)),
                                     connectivity=conn, target=target,
                                     attempts=attempt)
    raise GenerationFailureError(
        f"nwt model failed to reach connectivity {target} after {RETRY_BUDGET} attempts")


def generate_fkk(n: int, k: int, seed: int) -> GeneratedInstance:
    """Bipartite instance whose reduction is already in normal form."""
    if n < 2 or k < 1:
        raise InvalidArgumentError("fkk model needs n >= 2 and k >= 1")
    rng = SplitMix64(seed)
    terminals = frozenset(range(n))
    target = 3 * k
    for attempt in range(1, RETRY_BUDGET + 1):
        g = Multigraph()
        for v in range(n):
            g.add_vertex(v)
        if n == 2:
            # No room for triples; a parallel bundle is the degenerate shape.
            for _ in range(target):
                g.add_edge(0, 1)
        else:
            next_vertex = n
            hubs = k * (n - 1) + rng.below(3)
            for _ in range(hubs):
                triple = rng.sample(range(n), 3)
                g.add_vertex(next_vertex)
                for t in triple:
                    g.add_edge(next_vertex, t)
                next_vertex += 1
            for _ in range(rng.below(n)):
                a = rng.below(n)
                b = rng.below(n)
                if a != b:
                    g.add_edge(a, b)
            while True:
                degrees = sorted((g.degree(t), t) for t in range(n))
                if degrees[0][0] >= target:
                    break
                low = degrees[0][1]
                others = rng.sample([t for t in range(n) if t != low], 2)
                g.add_vertex(next_vertex)
                for t in [low, *others]:
                    g.add_edge(next_vertex, t)
                next_vertex += 1
        conn = steiner_connectivity(g, terminals)
        if conn >= target:
            return GeneratedInstance(model="fkk", n=n, k=k, seed=seed, graph=g,
                                     terminals=terminals, connectivity=conn,
                                     target=target, attempts=attempt)
    raise GenerationFailureError(
        f"fkk model failed to reach connectivity {target} after {RETRY_BUDGET} attempts")


def generate_kriesell(n: int, k: int, seed: int,
                      min_connectivity: int | None = None,
                      max_edges: int | None = None) -> GeneratedInstance:
    if n < 2 or k < 1:
        raise InvalidArgumentError("kriesell model needs n >= 2 and k >= 1")
    rng = SplitMix64(seed)
    target = Thresholds.for_k(k).f_k if min_connectivity is None else min_connectivity
    pair_count = n * (n - 1) // 2
    mean = max(1, (target + 2) // max(1, n - 1))
    if max_edges is not None:
        mean = max(1, min(mean, max_edges // pair_count + 1))
    cont_num, cont_den = mean, mean + 1  # geometric: keep going with chance mean/(mean+1)
    cap = target + 2
    for attempt in range(1, RETRY_BUDGET + 1):
        g = Multigraph()
        for v in range(n):
            g.add_vertex(v)
        t_count = 2 + (rng.below(n - 1) if n > 2 else 0)
        terminals = frozenset(rng.sample(range(n), t_count))
        for u in range(n):
            for v in range(u + 1, n):
                mult = 0
                while mult < cap and rng.chance(cont_num, cont_den):
                    mult += 1
                for _ in range(mult):
                    g.add_edge(u, v)
        if max_edges is not None and g.edge_count() > max_edges:
            continue
        if not g.is_connected():
            continue  # its terminals may still share a component
        conn = steiner_connectivity(g, terminals)
        if conn >= target:
            return GeneratedInstance(model="kriesell", n=n, k=k, seed=seed,
                                     graph=g, terminals=terminals,
                                     connectivity=conn, target=target,
                                     attempts=attempt)
    raise GenerationFailureError(
        f"kriesell model failed to reach connectivity {target} after "
        f"{RETRY_BUDGET} attempts (n={n}, k={k}, max_edges={max_edges})")
