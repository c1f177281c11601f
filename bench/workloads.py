"""The benchmark's four workloads and the seeded instance pools they solve.

Every pool is a fixed list of shapes; the benchmark seed only picks the
generator seeds, so two seeds give different graphs of the same sizes.  The
library sees nothing but the generated instances.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import treepack

# The kriesell generator draws the terminal count at random and solve time
# grows with it, so the connector pool keeps only instances with at least
# this many of their 11 vertices as terminals; otherwise the pool's median
# follows the draw.
KRIESELL_MIN_TERMINALS = 7


@dataclass(frozen=True)
class Shape:
    """`count` instances of one generator model and one packing request."""

    model: str
    n: int
    gen_k: int
    k: int
    mode: str
    expected: str               # "packed" or "certificate"
    count: int
    threshold: int | None = None
    min_terminals: int = 0


@dataclass(frozen=True)
class Instance:
    label: str
    graph: treepack.Multigraph
    terminals: frozenset[int]
    k: int
    mode: str
    expected: str
    threshold: int | None
    # Copied out at generation time for the independent gate.
    ends: dict[int, tuple[int, int]]
    vertices: frozenset[int]


# Why each workload exists is recorded in BENCHMARK.json and DESIGN.md.
WORKLOADS: dict[str, tuple[Shape, ...]] = {
    "spanning-nwt": (Shape("nwt", 24, 2, 2, "spanning", "packed", 60),),
    "steiner-fkk": (Shape("fkk", 11, 2, 2, "steiner", "packed", 64, threshold=6),
                    Shape("fkk", 9, 3, 3, "steiner", "packed", 16, threshold=9)),
    "connector-kriesell": (Shape("kriesell", 11, 1, 1, "connector", "packed", 100, threshold=8,
                                 min_terminals=KRIESELL_MIN_TERMINALS),),
    "refute-nwt": (Shape("nwt", 9, 2, 4, "spanning", "certificate", 120),),
}


def build_pool(workload: str, seed: int) -> list[Instance]:
    """Generate the workload's instances for one benchmark seed.

    The generator is looked up in the `treepack.generate` module on each
    call, so that a traced set-up sees it through the tracer; the package
    attribute of that name is the function itself, hence `sys.modules`.
    """
    gen_module = sys.modules["treepack.generate"]
    rng = random.Random(f"{workload}/{seed}")
    pool = []
    for shape in WORKLOADS[workload]:
        for _ in range(shape.count):
            while True:
                gen_seed = rng.getrandbits(48)
                gi = gen_module.generate(shape.model, shape.n, shape.gen_k, gen_seed)
                if len(gi.terminals) >= shape.min_terminals:
                    break
            pool.append(Instance(
                label=f"{shape.model} n={shape.n} k={shape.gen_k} seed={gen_seed}",
                graph=gi.graph, terminals=gi.terminals, k=shape.k, mode=shape.mode,
                expected=shape.expected, threshold=shape.threshold,
                ends=dict(gi.graph.edges), vertices=frozenset(gi.graph.vertices)))
    return pool


def solve(inst: Instance):
    """One closed-loop request: the public pipeline for the instance's mode."""
    if inst.mode == "spanning":
        return treepack.pack_spanning_trees(inst.graph, inst.k)
    pack = treepack.pack_steiner_trees if inst.mode == "steiner" else treepack.pack_connectors
    return pack(inst.graph, inst.terminals, inst.k, threshold=inst.threshold,
                brute_fallback=False)
