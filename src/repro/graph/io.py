"""Graph file I/O.

The primary format is the paper's (§III): "FastBFS organizes the original
graph in a raw edge list format, which is stored as a binary file ... with
an associated configuration file to describe the graph characteristics."
``<path>`` holds little-endian (u32 src, u32 dst) pairs and ``<path>.json``
records vertex count, directedness and provenance metadata.
"""

from __future__ import annotations

import json
import os
from typing import Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.graph.types import EDGE_DTYPE

_FORMAT_VERSION = 1


def save_graph(graph: Graph, path: Union[str, os.PathLike]) -> None:
    """Write ``graph`` as a raw binary edge list + JSON config sidecar."""
    path = os.fspath(path)
    graph.edges.tofile(path)
    config = {
        "format_version": _FORMAT_VERSION,
        "name": graph.name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "directed": graph.directed,
        "record": "u32le src, u32le dst",
        "meta": _jsonable(graph.meta),
    }
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path: Union[str, os.PathLike]) -> Graph:
    """Read a graph written by :func:`save_graph`, validating the sidecar."""
    path = os.fspath(path)
    config_path = path + ".json"
    if not os.path.exists(config_path):
        raise GraphFormatError(f"missing config sidecar {config_path}")
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"config {config_path} is not valid JSON: {exc}")
    for key in ("num_vertices", "num_edges", "name"):
        if key not in config:
            raise GraphFormatError(f"config {config_path} missing key {key!r}")
    edges = np.fromfile(path, dtype=EDGE_DTYPE)
    if len(edges) != config["num_edges"]:
        raise GraphFormatError(
            f"{path}: expected {config['num_edges']} edges, file holds {len(edges)}"
        )
    return Graph(
        num_vertices=int(config["num_vertices"]),
        edges=edges,
        name=str(config["name"]),
        directed=bool(config.get("directed", True)),
        meta=dict(config.get("meta", {})),
    )


def _jsonable(obj):
    """Best-effort conversion of metadata values to JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)
