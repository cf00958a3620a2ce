"""Seeded input corpus of the repository benchmark.

Every workload draws its graphs here, from ``--seed`` alone: the same
seed gives the same graphs on every commit, and :func:`fingerprint`
hashes their edge arrays so two commits can be shown to have scheduled
identical inputs.  The program under test only ever receives the
generated graphs (or their KPBW blobs).

The composition of each workload is fixed (families, exact side
lengths, counts); the seed only picks the draws inside each cell, so
the figures of two seeds differ by instance noise, not by a different
mix of easy and hard instances.

Print a workload's fingerprint (from the repository root)::

    PYTHONPATH=src python3 perfbench/corpus.py --workload solve --seed 1
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import from_traffic_matrix, random_bipartite
from repro.patterns import (
    block_cyclic_matrix,
    hotspot_matrix,
    sparse_matrix,
    uniform_matrix,
    zipf_matrix,
)
from repro.util.rng import derive_rng

#: Structured families from ``repro.patterns``, then the paper's random one.
FAMILIES = ("uniform", "zipf", "hotspot", "sparse", "block_cyclic", "random")

#: Solve corpus: ``SOLVE_DRAWS`` exact-engine instances per side for every
#: structured family and both algorithms.  Run time grows steeply with the side and
#: differs tenfold between families at one side (block-cyclic and sparse
#: are cheap, hotspot and zipf dear under OGGP), so each side is its own
#: cell instead of a random size; the sides are close enough that the
#: latency distribution has no gaps for its percentiles to jump across.
SOLVE_SIDES = tuple(range(6, 21, 2))
#: Two draws per cell, so one unusual draw moves the percentiles less.
SOLVE_DRAWS = 2
#: Paper-style random instances (section 5.1): ``(side, edges, draws)``.
SOLVE_RANDOM = ((10, 50, 4), (20, 200, 4))
#: OGGP with ``engine='approx'`` on large graphs: ``(family, side)``.
SOLVE_APPROX = (("sparse", 300), ("random", 300), ("block_cyclic", 300))

#: Backbone parameters: serve-cold and batch use the daemon load
#: generator's k; the solve corpus scales k with the side.
BETA = 1.0
SERVE_K = 5

#: Sides of the paper-scale instances (section 5.1 goes up to 20 per
#: side); batch cycles through them so every seed sends the same mix
#: of sizes.
PAPER_SIDES = (10, 12, 14, 16, 18, 20)

#: Batch workload: distinct paper-scale instances per batch, each sent
#: ``BATCH_DUP`` times under a different edge-id order.
BATCH_DISTINCT = 8
BATCH_DUP = 4
BATCH_SIZE = BATCH_DISTINCT * BATCH_DUP

TENANTS = ("tenant-0", "tenant-1")
#: serve-cold: one distinct ``COLD_SIDE`` x ``COLD_SIDE`` instance per
#: request; warm-up fills the daemon cache with ``COLD_FILL`` distinct
#: tiny ones so every timed request misses and evicts.
COLD_SIDE = 50
COLD_EDGES = 100
COLD_FILL = 300


@dataclass(frozen=True)
class Instance:
    """One solve-corpus entry."""

    family: str
    side: int
    algorithm: str  # 'ggp' or 'oggp'
    engine: str | None  # None = the default exact engine
    k: int
    graph: BipartiteGraph


def family_graph(family: str, side: int, seed: int, *path: int) -> BipartiteGraph:
    """One ``side`` x ``side`` graph of ``family`` drawn from ``(seed, path)``."""
    rng = derive_rng(seed, FAMILIES.index(family), side, *path)
    if family == "random":
        edges = 10 * side if side > 20 else side * side // 2
        return random_bipartite(
            rng, max_side=side, min_side=side, max_edges=edges, min_edges=edges
        )
    if family == "uniform":
        matrix = uniform_matrix(rng, side, side, 1.0, 20.0)
    elif family == "zipf":
        matrix = zipf_matrix(rng, side, side, total=10.0 * side * side)
    elif family == "hotspot":
        # The seed picks the hot receivers; fixed volumes keep this
        # family's (corpus-worst) evaluation ratio the same for every seed.
        matrix = hotspot_matrix(rng, side, side, 2.0, 20.0, num_hot=2)
    elif family == "sparse":
        density = 0.25 if side <= 50 else 0.02
        matrix = sparse_matrix(rng, side, side, density, 1.0, 20.0)
    elif family == "block_cyclic":
        # Source layout cyclic(b1) over `side` ranks, target cyclic(b2):
        # owner(i) = (i // b) % p, as in the classic redistribution codes.
        b1, b2 = (int(b) for b in rng.integers(1, 9, size=2))
        elements = side * math.lcm(b1, b2) * int(rng.integers(2, 5))
        matrix = block_cyclic_matrix(elements, side, b1, side, b2)
    else:
        raise ValueError(f"unknown family {family!r}")
    return from_traffic_matrix(matrix)


def solve_corpus(seed: int) -> list[Instance]:
    """The fixed-composition solve corpus for ``seed``."""
    out: list[Instance] = []
    for family in FAMILIES[:-1]:
        for side in SOLVE_SIDES:
            for draw in range(SOLVE_DRAWS):
                graph = family_graph(family, side, seed, draw)
                for algorithm in ("ggp", "oggp"):
                    out.append(Instance(family, side, algorithm, None, side // 2, graph))
    for side, edges, draws in SOLVE_RANDOM:
        for draw in range(draws):
            graph = random_bipartite(
                derive_rng(seed, FAMILIES.index("random"), side, edges, draw),
                max_side=side, min_side=side, max_edges=edges, min_edges=edges,
            )
            for algorithm in ("ggp", "oggp"):
                out.append(Instance("random", side, algorithm, None, side // 2, graph))
    for family, side in SOLVE_APPROX:
        graph = family_graph(family, side, seed, 0)
        out.append(Instance(family, side, "oggp", "approx", side // 2, graph))
    return out


def paper_graph(seed: int, side: int, *path: int) -> BipartiteGraph:
    """A paper-scale random instance: exact ``side``, half the pairs used."""
    edges = side * side // 2
    return random_bipartite(
        derive_rng(seed, side, *path),
        max_side=side, min_side=side, max_edges=edges, min_edges=edges,
    )


def relabelled(graph: BipartiteGraph, seed: int, *path: int) -> BipartiteGraph:
    """The same pattern with its edges inserted in a shuffled order.

    Edge ids differ, the canonical signature does not: the batch engine
    must recognise it as a duplicate and remap the schedule.
    """
    rows = [(e.left, e.right, e.weight) for e in graph.edges()]
    order = derive_rng(seed, *path).permutation(len(rows))
    out = BipartiteGraph()
    for index in order:
        left, right, weight = rows[int(index)]
        out.add_edge(left, right, weight)
    return out


def batch_graphs(seed: int, index: int) -> list[BipartiteGraph]:
    """Batch number ``index``: fresh instances, each repeated ``BATCH_DUP`` times.

    Index -1 is the warm-up batch; timed batches never repeat a pattern
    that an earlier batch sent, so worker caches cannot serve them.
    """
    out = []
    for item in range(BATCH_DISTINCT):
        graph = paper_graph(seed, PAPER_SIDES[item % len(PAPER_SIDES)], 101, index + 1, item)
        out.append(graph)
        out.extend(
            relabelled(graph, seed, 102, index + 1, item, dup)
            for dup in range(1, BATCH_DUP)
        )
    return out


def cold_graph(seed: int, index: int) -> BipartiteGraph:
    """serve-cold request ``index``: a distinct ~50-per-side instance."""
    return random_bipartite(
        derive_rng(seed, 301, index),
        max_side=COLD_SIDE, min_side=COLD_SIDE,
        max_edges=COLD_EDGES, min_edges=COLD_EDGES,
    )


def fill_graph(seed: int, index: int) -> BipartiteGraph:
    """A distinct tiny instance that only occupies a cache slot."""
    return random_bipartite(
        derive_rng(seed, 302, index), max_side=4, min_side=4, max_edges=8, min_edges=8
    )


def fingerprint(graphs) -> str:
    """SHA-256 over the edge arrays (id, left, right, weight) of ``graphs``."""
    digest = hashlib.sha256()
    for graph in graphs:
        for edge in sorted(graph.edges(), key=lambda e: e.id):
            digest.update(
                f"{edge.id},{edge.left},{edge.right},{edge.weight!r};".encode()
            )
        digest.update(b"|")
    return digest.hexdigest()


def workload_graphs(workload: str, seed: int, count: int = 4) -> list[BipartiteGraph]:
    """The graphs a workload starts from (the first ``count`` batches or
    requests where the workload draws them on the fly)."""
    if workload == "solve":
        return [inst.graph for inst in solve_corpus(seed)]
    if workload == "batch":
        return [g for i in range(-1, count) for g in batch_graphs(seed, i)]
    if workload == "serve-cold":
        return [fill_graph(seed, i) for i in range(COLD_FILL)] + [
            cold_graph(seed, i) for i in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="solve")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    graphs = workload_graphs(args.workload, args.seed)
    print(f"{args.workload} seed={args.seed} graphs={len(graphs)} "
          f"fingerprint={fingerprint(graphs)}")
