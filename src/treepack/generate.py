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
            (the 5k-range packing threshold by default).  A draw in which
            some terminal has fewer edge ends than the threshold is refused
            before its graph is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _verified(model: str, n: int, k: int, seed: int, target: int,
              draw: Callable[[Multigraph, SplitMix64], frozenset[int] | None]
              ) -> GeneratedInstance:
    """The first of RETRY_BUDGET draws whose terminal connectivity reaches
    `target`.  Each draw takes the seed's generator, adds edges (and
    non-terminals) to an empty graph on range(n) and returns its
    terminals, or None to reject it unchecked: a draw may reject itself by
    a necessary condition on its connectivity, as long as it draws the
    same numbers from the generator either way."""
    rng = SplitMix64(seed)
    for attempt in range(1, RETRY_BUDGET + 1):
        g = Multigraph()
        for v in range(n):
            g.add_vertex(v)
        terminals = draw(g, rng)
        if terminals is None:
            continue
        conn = steiner_connectivity(g, terminals)
        if conn >= target:
            return GeneratedInstance(model=model, n=n, k=k, seed=seed, graph=g,
                                     terminals=terminals, connectivity=conn,
                                     target=target, attempts=attempt)
    raise GenerationFailureError(
        f"{model} model failed to reach connectivity {target} after "
        f"{RETRY_BUDGET} attempts")


def generate_nwt(n: int, k: int, seed: int) -> GeneratedInstance:
    if n < 2 or k < 1:
        raise InvalidArgumentError("nwt model needs n >= 2 and k >= 1")

    def draw(g: Multigraph, rng: SplitMix64) -> frozenset[int]:
        for _ in range(k + 1):
            order = list(range(n))
            rng.shuffle(order)
            for i in range(n):
                g.add_edge(order[i], order[(i + 1) % n])
        return frozenset(range(n))

    return _verified("nwt", n, k, seed, 2 * k, draw)


def generate_fkk(n: int, k: int, seed: int) -> GeneratedInstance:
    """Bipartite instance whose reduction is already in normal form."""
    if n < 2 or k < 1:
        raise InvalidArgumentError("fkk model needs n >= 2 and k >= 1")
    target = 3 * k

    def draw(g: Multigraph, rng: SplitMix64) -> frozenset[int]:
        if n == 2:
            # No room for triples; a parallel bundle is the degenerate shape.
            for _ in range(target):
                g.add_edge(0, 1)
            return frozenset(range(n))
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
                return frozenset(range(n))
            low = degrees[0][1]
            others = rng.sample([t for t in range(n) if t != low], 2)
            g.add_vertex(next_vertex)
            for t in [low, *others]:
                g.add_edge(next_vertex, t)
            next_vertex += 1

    return _verified("fkk", n, k, seed, target, draw)


def generate_kriesell(n: int, k: int, seed: int,
                      min_connectivity: int | None = None,
                      max_edges: int | None = None) -> GeneratedInstance:
    """Random multigraph whose terminal connectivity reaches
    `min_connectivity` (default the packing threshold f_k).

    Each draw takes the terminals and every pair's multiplicity before it
    adds an edge.  It is refused unbuilt when the edges exceed `max_edges`
    or a terminal has fewer than the target edge ends (a lone terminal is a
    T-cut), refused built when disconnected, and otherwise measured by the
    exact terminal flows.
    """
    if n < 2 or k < 1:
        raise InvalidArgumentError("kriesell model needs n >= 2 and k >= 1")
    target = Thresholds.for_k(k).f_k if min_connectivity is None else min_connectivity
    pair_count = n * (n - 1) // 2
    mean = max(1, (target + 2) // max(1, n - 1))
    if max_edges is not None:
        mean = max(1, min(mean, max_edges // pair_count + 1))
    cont_num, cont_den = mean, mean + 1  # geometric: keep going with chance mean/(mean+1)
    cap = target + 2

    def draw(g: Multigraph, rng: SplitMix64) -> frozenset[int] | None:
        t_count = 2 + (rng.below(n - 1) if n > 2 else 0)
        terminals = frozenset(rng.sample(range(n), t_count))
        mults = {}
        degree = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                mult = 0
                while mult < cap and rng.chance(cont_num, cont_den):
                    mult += 1
                if mult:
                    mults[u, v] = mult
                    degree[u] += mult
                    degree[v] += mult
        # Every multiplicity is drawn first, so a rejection leaves the stream
        # where the full draw would.
        if max_edges is not None and sum(mults.values()) > max_edges:
            return None
        if min(degree[t] for t in terminals) < target:
            return None
        for (u, v), mult in mults.items():
            for _ in range(mult):
                g.add_edge(u, v)
        if not g.is_connected():
            return None  # its terminals may still share a component
        return terminals

    try:
        return _verified("kriesell", n, k, seed, target, draw)
    except GenerationFailureError as e:
        raise GenerationFailureError(f"{e} (n={n}, k={k}, max_edges={max_edges})") from None
