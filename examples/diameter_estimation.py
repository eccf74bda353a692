#!/usr/bin/env python
"""Graph diameter estimation — the paper's motivating application.

"Performing BFS algorithm over these data sets can provide the building
block for applications such as graph diameter finding" (§IV-A).  This
example runs the classic double-sweep diameter estimator with FastBFS as
the BFS building block, on two graphs with opposite geometry, and renders
the storage-level Gantt chart of one sweep so you can *see* the stay
writes hiding under the edge stream.

Run:  python examples/diameter_estimation.py
"""

import numpy as np

from repro import FastBFSEngine, build_dataset, grid_graph
from repro.algorithms.diameter import double_sweep_diameter, engine_sweep
from repro.analysis.calibration import scaled_fastbfs_config, scaled_machine
from repro.obs import Tracer, render_device_gantt

DIVISOR = 1024


def main() -> None:
    engine = FastBFSEngine(scaled_fastbfs_config(DIVISOR))
    sweep = engine_sweep(
        lambda: engine,
        lambda: scaled_machine("4GB", divisor=DIVISOR),
    )

    # --- a small-world social graph: tiny diameter ----------------------
    social = build_dataset("friendster", divisor=DIVISOR)
    est = double_sweep_diameter(social, sweep=sweep)
    print(f"{social.name}: diameter >= {est.lower_bound} "
          f"({est.sweeps} BFS sweeps from roots {est.sweep_roots})")

    # --- a mesh: diameter is the whole structure ------------------------
    mesh = grid_graph(90, 40)
    est = double_sweep_diameter(mesh, sweep=sweep)
    print(f"{mesh.name}: diameter >= {est.lower_bound} "
          f"(true manhattan diameter {90 - 1 + 40 - 1})")

    # --- storage-level view of one sweep ---------------------------------
    print("\nGantt of one FastBFS sweep (2 disks, rotating streams):")
    graph = build_dataset("rmat25", divisor=DIVISOR)
    machine = scaled_machine("4GB", num_disks=2, divisor=DIVISOR)
    tracer = Tracer()
    machine.attach_tracer(tracer)
    two_disk = FastBFSEngine(
        scaled_fastbfs_config(DIVISOR, rotate_streams=True)
    )
    two_disk.run(graph, machine, root=int(np.argmax(graph.out_degrees())))
    disks = [dev.name for dev in machine.disks]
    print(render_device_gantt(tracer, devices=disks, width=88))
    print("\nReads (edges/updates) and writes (stay/updates) alternate "
          "spindles each iteration — the Fig. 10 rotation at work.")


if __name__ == "__main__":
    main()
