"""Graph500-style validation of BFS results, their scan volumes, and TEPS.

BFS is the Graph500 kernel (paper §I), so we validate engine output the way
the benchmark does: the (parent, level) pair must describe a genuine BFS
tree of the input graph, and every vertex reachable from the root must be in
it.  How much an edge-centric engine read to get there is a closed form of
the same reference levels (:meth:`BFSAnswerChecker.pass_volumes`).
``teps`` computes the benchmark's traversed-edges-per-second figure from a
result and a (simulated) execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.reference import bfs_levels
from repro.core.policies import TrimPolicy
from repro.engines.base import EdgeCentricEngine
from repro.engines.result import IterationStats
from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.partition import VertexPartitioning
from repro.graph.types import NO_PARENT, UNVISITED


@dataclass
class ValidationReport:
    """Outcome of a BFS validation pass."""

    ok: bool
    errors: List[str] = field(default_factory=list)
    visited: int = 0
    depth: int = 0

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ValidationError("; ".join(self.errors[:5]))


class BFSAnswerChecker:
    """Checks BFS answers on one graph against the in-memory reference.

    Built once per graph: it holds the graph's CSR and edge arrays, so
    each :meth:`check` costs one reference search plus one linear pass
    over the edges, with no sort.  Every path that returns a BFS answer
    (``repro run --validate``, the Graph500 protocol, both chaos sweeps
    and the contract matrix) checks it here.

    An answer is correct when:

    * its levels equal :func:`~repro.algorithms.reference.bfs_levels`
      from the same root.  The Graph500 level rules then hold without a
      pass of their own: the reference is a BFS (``tests/
      test_algorithms_reference.py::TestAgainstDequeBFS`` pins it to a
      plain queue BFS), so the root has level 0 (rule 1), exactly the
      reachable vertices are visited (rule 2), and no edge from a visited
      vertex skips a level (rule 4);
    * given parents, every visited non-root has one, it is a vertex one
      level up, and the edge from it exists in the graph (rule 3); no
      unvisited vertex claims a parent.
    """

    def __init__(self, graph: Graph) -> None:
        self.csr = CSRGraph.from_graph(graph)
        self.src = graph.edges["src"]
        self.dst = graph.edges["dst"]

    def check(
        self,
        root: int,
        levels: np.ndarray,
        parents: Optional[np.ndarray] = None,
    ) -> ValidationReport:
        """Check one (levels, parents) answer of a search from ``root``."""
        n = self.csr.num_vertices
        levels = np.asarray(levels)
        if levels.shape != (n,):
            return ValidationReport(False, [f"levels shape {levels.shape} != ({n},)"])
        if not 0 <= root < n:
            return ValidationReport(False, [f"root {root} out of range"])
        errors: List[str] = []
        reference = bfs_levels(self.csr, root)
        wrong = np.flatnonzero(levels != reference)
        if len(wrong):
            v = int(wrong[0])
            errors.append(
                f"levels differ from the reference BFS at {len(wrong)} vertices "
                f"(vertex {v}: {int(levels[v])}, expected {int(reference[v])})"
            )
        if parents is not None:
            errors.extend(self._parent_errors(root, reference, np.asarray(parents)))
        visited = levels != UNVISITED
        depth = int(levels[visited].max()) if visited.any() else 0
        return ValidationReport(
            ok=not errors, errors=errors, visited=int(visited.sum()), depth=depth
        )

    def pass_volumes(
        self,
        engine: EdgeCentricEngine,
        partitioning: VertexPartitioning,
        roots: Union[int, Sequence[int]],
    ) -> List[Tuple[int, int, int]]:
        """Each pass's ``(edges_scanned, updates_generated,
        stay_records_written)`` of a BFS or unit-SSSP run of ``engine``
        over ``partitioning``: from one root a serial query's
        ``iterations``, from two or more one MS-BFS batch's
        ``shared_iterations``.

        A closed form of the reference levels; no engine runs.  Let an
        edge's level be its source's (never, if unreached).  Pass *i*
        scans the edges not yet trimmed of the scheduled partitions: under
        FastBFS's selective scheduling those holding a vertex at level *i*
        in some query, else all of them.  Its updates are the scanned
        edges at level *i* in some query (one record serves every query of
        a batch); the run ends after a pass with none.  Where
        :class:`~repro.core.policies.TrimPolicy`, fed these counts, says
        FastBFS trims, the scanned edges it eliminates are trimmed and the
        rest are its stay records: a serial query eliminates its updates
        (the paper's rule), or every scanned edge at level *i* or less
        under ``extended_trim``; a batch, the edges at level *i* or less
        in every live query, a query being live while it generated
        updates in the pass before.  The engine's own config says what it
        does: X-Stream's pins trimming and selective scheduling off, so it
        never trims nor skips.

        Holds for runs without stay cancellations: a cancelled stay file
        leaves its partition on the older, longer input.
        """
        levels = np.stack([bfs_levels(self.csr, r) for r in np.atleast_1d(roots)])
        levels[levels == UNVISITED] = np.iinfo(levels.dtype).max
        edge_levels = levels[:, self.src]
        owner = partitioning.partition_of(np.arange(self.csr.num_vertices))
        edge_owner = owner.take(self.src)
        policy = TrimPolicy(engine.config, True)
        selective = engine.config.selective_scheduling
        dead = np.zeros(len(self.src), dtype=bool)
        live = np.ones(len(levels), dtype=bool)
        passes: List[IterationStats] = []
        while not passes or passes[-1].updates_generated:
            i = len(passes)
            scanned = ~dead
            if selective:
                scanned &= np.isin(edge_owner, owner[(levels == i).any(axis=0)])
            at_level = edge_levels == i
            updates = scanned & at_level.any(axis=0)
            stats = IterationStats(
                i, int(np.count_nonzero(scanned)), int(np.count_nonzero(updates))
            )
            if policy.trimming_active(
                i, passes[-1] if passes else None
            ):
                if len(levels) > 1:
                    trimmed = scanned & (edge_levels[live] <= i).all(axis=0)
                elif engine.config.extended_trim:
                    trimmed = scanned & (edge_levels[0] <= i)
                else:
                    trimmed = updates
                dead |= trimmed
                stats.stay_records_written = (
                    stats.edges_scanned - int(np.count_nonzero(trimmed))
                )
            live = (at_level & scanned).any(axis=1)
            passes.append(stats)
        return [stats.volume for stats in passes]

    def _parent_errors(
        self, root: int, levels: np.ndarray, parents: np.ndarray
    ) -> List[str]:
        """Rule 3 and the parent half of rule 2, against reference ``levels``."""
        n = len(levels)
        if parents.shape != (n,):
            return [f"parents shape {parents.shape} != ({n},)"]
        errors: List[str] = []
        visited = levels != UNVISITED
        claims = parents != NO_PARENT
        tree = visited.copy()
        tree[root] = False
        if (tree & ~claims).any():
            errors.append("visited non-root vertex without a parent")
        if (claims & ~visited).any():
            errors.append("unvisited vertex claims a parent")
        children = np.flatnonzero(tree & claims)
        claimed = parents[children].astype(np.int64)
        if (claimed >= n).any():
            errors.append("parent id out of range")
            return errors
        bad = int((levels[claimed] != levels[children] - 1).sum())
        if bad:
            errors.append(f"{bad} tree edges don't descend one level")
        # A vertex is confirmed when some graph edge ends at it from the
        # parent it claims: one pass over the edges, repeats harmless.
        confirmed = np.zeros(n, dtype=bool)
        confirmed[self.dst[parents.take(self.dst) == self.src]] = True
        missing = int((~confirmed[children]).sum())
        if missing:
            errors.append(f"{missing} claimed tree edges are not graph edges")
        return errors


def validate_bfs_result(
    graph: Graph,
    root: int,
    levels: np.ndarray,
    parents: Optional[np.ndarray] = None,
    reference_levels: Optional[np.ndarray] = None,
) -> ValidationReport:
    """Check one BFS (levels, parents) result against the input graph.

    The one-shot form of :class:`BFSAnswerChecker` (which holds the CSR
    for many answers), under the Graph500 rules adapted to directed
    graphs:

    1. the root has level 0;
    2. a vertex is visited iff its level >= 0; visited non-roots have a
       visited parent exactly one level shallower;
    3. every claimed tree edge (parent[v] -> v) exists in the graph;
    4. no edge skips a level: for every graph edge (u -> v) with u visited,
       v is visited with level[v] <= level[u] + 1;
    5. if ``reference_levels`` is given, levels match it exactly.
    """
    report = BFSAnswerChecker(graph).check(root, levels, parents)
    if reference_levels is not None and not np.array_equal(levels, reference_levels):
        report.errors.append("levels differ from reference_levels")
        report.ok = False
    return report


def traversed_edges(graph: Graph, levels: np.ndarray) -> int:
    """Edges considered traversed by Graph500: those leaving visited vertices."""
    visited = np.asarray(levels) != UNVISITED
    return int(visited[graph.edges["src"]].sum())


def teps(graph: Graph, levels: np.ndarray, seconds: float) -> float:
    """Graph500 traversed-edges-per-second for one BFS run."""
    if seconds <= 0:
        raise ValidationError(f"seconds must be positive, got {seconds}")
    return traversed_edges(graph, levels) / seconds
