#!/usr/bin/env python
"""Beyond BFS: the paper's future work ("support more algorithms").

The engines are generic scatter/gather machines; this example runs two more
traversal-family algorithms through them:

* **unit-weight SSSP** — identical traversal to BFS (hop counts are the
  distances), so FastBFS's trimming applies in full;
* **weakly connected components** — min-label propagation is
  label-correcting (a vertex can improve many times), so no edge is ever
  provably dead: FastBFS detects ``supports_trimming=False`` and degrades
  gracefully to streaming + selective scheduling;
* **PageRank** — X-Stream's flagship numeric workload: dense fixed-round
  iteration with float payloads riding in the 8-byte update records.

It also cross-checks the results against networkx / a dense oracle.

Run:  python examples/algorithm_extensions.py
"""

import networkx as nx
import numpy as np

from repro import (
    FastBFSEngine,
    UnitSSSPAlgorithm,
    WCCAlgorithm,
    rmat_graph,
)
from repro.analysis.calibration import scaled_fastbfs_config, scaled_machine
from repro.utils.units import format_seconds

DIVISOR = 1024


def main() -> None:
    # An undirected social-like graph (WCC needs both edge directions).
    graph = rmat_graph(scale=12, edge_factor=4, seed=3).symmetrized()
    root = int(np.argmax(graph.out_degrees()))
    print(f"graph: {graph!r}\n")
    engine = FastBFSEngine(scaled_fastbfs_config(DIVISOR))

    # --- unit-weight SSSP: trimming fully applies -----------------------
    machine = scaled_machine("4GB", divisor=DIVISOR)
    sssp = engine.run(graph, machine, algorithm=UnitSSSPAlgorithm(), root=root)
    dist = sssp.output["distance"]
    print(f"unit-SSSP from {root}: {format_seconds(sssp.execution_time)}, "
          f"{sssp.num_iterations} iterations, "
          f"{int(sssp.extras['stay_swaps'])} stay swaps (trimming active)")
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(graph.num_vertices))
    nxg.add_edges_from(zip(graph.edges["src"].tolist(),
                           graph.edges["dst"].tolist()))
    expected = nx.single_source_shortest_path_length(nxg, root)
    assert all(dist[v] == d for v, d in expected.items())
    print("  distances match networkx shortest paths")

    # --- WCC: graceful fallback, no trimming ----------------------------
    machine = scaled_machine("4GB", divisor=DIVISOR)
    wcc = engine.run(graph, machine, algorithm=WCCAlgorithm())
    labels = wcc.output["label"]
    components = len(np.unique(labels))
    print(f"\nWCC: {format_seconds(wcc.execution_time)}, "
          f"{wcc.num_iterations} iterations, {components:,} components, "
          f"{int(wcc.extras['stay_files_written'])} stay files "
          f"(trimming correctly disabled)")
    nx_components = list(nx.connected_components(nxg.to_undirected()))
    assert components == len(nx_components)
    for comp in nx_components:
        comp = list(comp)
        assert len(np.unique(labels[comp])) == 1, "component split!"
    print("  components match networkx connected_components")

    # --- PageRank: dense numeric rounds ---------------------------------
    from repro.algorithms.pagerank import PageRankAlgorithm, reference_pagerank

    rounds = 12
    machine = scaled_machine("4GB", divisor=DIVISOR)
    pr = engine.run(
        graph, machine,
        algorithm=PageRankAlgorithm(graph.out_degrees(), rounds), root=0,
    )
    rank = pr.output["rank"]
    oracle = reference_pagerank(graph, rounds)
    assert np.allclose(rank, oracle, rtol=1e-4, atol=1e-7)
    top = np.argsort(rank)[-3:][::-1]
    print(f"\nPageRank ({rounds} rounds): "
          f"{format_seconds(pr.execution_time)}, top vertices "
          f"{top.tolist()} (max rank {rank.max():.2e})")
    print("  ranks match the dense float32 oracle")

    print("\nAll algorithms ran unmodified on the FastBFS engine; only the "
          "algorithm object changed.")


if __name__ == "__main__":
    main()
