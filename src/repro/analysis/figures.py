"""One definition per table and figure of the paper's evaluation (§IV).

``FIGURES`` says, for each of Table I-II and Fig. 1, 4-10: which runs to
make (``measure``, through the one memoizing :class:`ExperimentRunner`, so
Figs. 4-6 share a set of runs as they do in the paper), how to print them
(``render``, a pure function of the measured data) and what must hold
(``claims``, each a function of the measured data only).  Everything else
reads this table: ``build_report`` (``repro reproduce``) renders it,
``check_claims`` (``repro shapes``, tier-1, CI) evaluates every claim, and
``benchmarks/bench_figures.py`` does both and writes
``benchmarks/results/<stem>.txt``.

Range claims carry the paper's range (:mod:`repro.analysis.paper`) and the
relative slack it is held to here; EXPERIMENTS.md documents why each slack
is what it is and lists every claim (``claims_table``).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

from repro.algorithms.reference import level_profile
from repro.analysis import paper
from repro.analysis.harness import ExperimentRunner
from repro.analysis.tables import (
    comparison_table,
    datasets_table,
    format_table,
    representation_table,
    speedup_table,
)
from repro.errors import ConfigError
from repro.graph.datasets import BIG_DATASETS, DATASETS
from repro.utils.units import format_seconds


class FigureClaim(NamedTuple):
    """``holds(value)`` for every ``(label, value)`` of ``cases(data)``."""

    text: str
    cases: Callable[[Any], Iterable[Tuple[str, Any]]]
    holds: Callable[[Any], bool]
    bound: str = ""  # the range or threshold it is held to, for the docs

    def check(self, data: Any) -> Tuple[bool, str]:
        """``(ok, evidence)``; the evidence names each failing case with its
        values (every case when none fails), so a FAIL row says which
        dataset broke and by how much."""
        seen = list(self.cases(data))
        failing = [case for case in seen if not self.holds(case[1])]
        return not failing, "; ".join(
            f"{label}: {_show(value)}" for label, value in failing or seen
        )


class Figure(NamedTuple):
    name: str
    stem: str  # benchmarks/results/<stem>.txt
    measure: Callable[[ExperimentRunner, List[str]], Any]
    render: Callable[[Any], str]
    claims: Tuple[FigureClaim, ...]


class ClaimResult(NamedTuple):
    figure: str
    claim: str
    passed: bool
    evidence: str


def _show(value: Any) -> str:
    if isinstance(value, dict):
        return ", ".join(f"{k}={_show(v)}" for k, v in value.items())
    if isinstance(value, list):
        return " ".join(_show(v) for v in value)
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _span(claim: paper.Claim, percent: bool = False) -> str:
    if percent:
        return f"{claim.low:.1%}-{claim.high:.1%}"
    return f"{claim.low:.1f}-{claim.high:.1f}x"


def _in_range(claim: paper.Claim, slack: float, cases,
              percent: bool = False) -> FigureClaim:
    """Every case lands in the paper's range, widened by ``slack``."""
    return FigureClaim(
        f"{claim.description}: in the paper's range",
        cases,
        lambda value: claim.contains(value, slack),
        f"{_span(claim, percent)}, slack {slack:.0%}",
    )


def _column(table: Callable[[Any], Dict[str, Dict[str, float]]], column: str):
    """Cases: one column of a ``{dataset: {column: value}}`` table of the data."""
    return lambda data: [(ds, row[column]) for ds, row in table(data).items()]


# ----------------------------------------------------------------------
# Figs. 4-7: metrics of the three-engine comparison
# ----------------------------------------------------------------------
def _rows(runner: ExperimentRunner, datasets: List[str], disk_kind: str = "hdd"):
    return {ds: runner.compare(ds, disk_kind) for ds in datasets}


def _metric(rows, attr: str) -> Dict[str, Dict[str, float]]:
    """``{dataset: {engine: value}}`` of one ComparisonRow attribute."""
    return {
        ds: {engine: getattr(row, attr) for engine, row in per_engine.items()}
        for ds, per_engine in rows.items()
    }


def _engines(attr: str):
    """Cases: per dataset, every engine's ``attr``."""
    return lambda rows: _metric(rows, attr).items()


def _fastbfs_speedups(rows) -> Dict[str, Dict[str, float]]:
    return {
        ds: {f"vs {slow}": t[slow] / t["fastbfs"]
             for slow in ("x-stream", "graphchi")}
        for ds, t in _metric(rows, "time").items()
    }


def _render_fig4(rows) -> str:
    return comparison_table(
        rows, "time", "Fig. 4: BFS execution time, single HDD (simulated)"
    ) + "\n\n" + speedup_table(
        _fastbfs_speedups(rows),
        {"vs x-stream": paper.HDD_SPEEDUP_VS_XSTREAM,
         "vs graphchi": paper.HDD_SPEEDUP_VS_GRAPHCHI},
        "FastBFS speedups (Fig. 4 headline numbers)",
    )


def _reductions(rows) -> Dict[str, Dict[str, float]]:
    """Fractions of X-Stream's input and total bytes that FastBFS avoids."""
    def avoided(b):
        return 1.0 - b["fastbfs"] / b["x-stream"] if b["x-stream"] else 0.0

    inputs, totals = _metric(rows, "input_bytes"), _metric(rows, "total_bytes")
    return {
        ds: {"input": avoided(inputs[ds]), "overall": avoided(totals[ds])}
        for ds in rows
    }


def _render_fig5(rows) -> str:
    reduction_rows = [
        [ds, f"{r['input']:.1%}", f"{r['overall']:.1%}"]
        for ds, r in _reductions(rows).items()
    ]
    reduction_rows.append([
        "paper range",
        _span(paper.INPUT_REDUCTION_VS_XSTREAM, percent=True),
        _span(paper.TOTAL_REDUCTION_VS_XSTREAM, percent=True),
    ])
    return comparison_table(
        rows, "input", "Fig. 5: input data amount, single HDD (exact bytes)"
    ) + "\n\n" + format_table(
        ["dataset", "input reduction vs X-Stream", "overall data reduction"],
        reduction_rows,
        "FastBFS data reductions (Fig. 5 headline numbers)",
    )


def _ssd_speedups(data) -> Dict[str, Dict[str, float]]:
    return _fastbfs_speedups(data["ssd"])


def _ssd_gains(data) -> Dict[str, Dict[str, float]]:
    """Per engine, the HDD time over the SSD time."""
    hdd, ssd = _metric(data["hdd"], "time"), _metric(data["ssd"], "time")
    return {
        ds: {engine: hdd[ds][engine] / ssd[ds][engine] for engine in ssd[ds]}
        for ds in ssd
    }


def _fastbfs_hdd_over_xstream_ssd(data):
    hdd, ssd = _metric(data["hdd"], "time"), _metric(data["ssd"], "time")
    return [(ds, hdd[ds]["fastbfs"] / ssd[ds]["x-stream"]) for ds in ssd]


def _render_fig7(data) -> str:
    gain_rows = [
        [ds] + [f"{gain:.2f}x" for gain in gains.values()]
        for ds, gains in _ssd_gains(data).items()
    ]
    gain_rows.append(
        ["paper range"] + [_span(claim) for claim in paper.SSD_GAIN.values()]
    )
    return comparison_table(
        data["ssd"], "time", "Fig. 7: BFS execution time, SATA2 SSD (simulated)"
    ) + "\n\n" + format_table(
        ["dataset"] + list(paper.SSD_GAIN), gain_rows, "SSD/HDD speedup per system"
    )


# ----------------------------------------------------------------------
# Fig. 1; Figs. 8-9, the rmat22 sweeps; Fig. 10, two disks
# ----------------------------------------------------------------------
FIG1_LEVELS = 8


def _render_fig1(profiles) -> str:
    rows = []
    for ds, prof in profiles.items():
        fractions = prof.useful_fraction
        rows.append(
            [ds, prof.depth]
            + [f"{fractions[i]:.0%}" if i < len(fractions) else "-"
               for i in range(FIG1_LEVELS)]
        )
    return format_table(
        ["dataset", "depth"] + [f"L{i}" for i in range(FIG1_LEVELS)],
        rows,
        title="Fig. 1: fraction of the edge list still useful entering each "
              "BFS level",
    )


def _profiles(value: Callable[[Any], Any]):
    """Cases: per dataset, ``value`` of its level profile."""
    return lambda profiles: [(ds, value(p)) for ds, p in profiles.items()]


def _sweep(keyword: str, values: Tuple, **fixed):
    """measure: rmat22 on both streaming engines at each value of one
    ``runner.run`` keyword."""
    return lambda runner, datasets: {
        engine: {
            v: runner.run("rmat22", engine, **{keyword: v}, **fixed) for v in values
        }
        for engine in ("x-stream", "fastbfs")
    }


def _render_sweep(title: str, column: str = "{}"):
    return lambda results: format_table(
        ["engine"] + [column.format(v) for v in next(iter(results.values()))],
        [[engine] + [format_seconds(r.execution_time) for r in per_value.values()]
         for engine, per_value in results.items()],
        title,
    )


def _sweep_cases(results):
    """Cases: per engine, the time and the in-memory flag at every value."""
    return [
        (engine, {
            "time": [r.execution_time for r in per_value.values()],
            "in_memory": [r.extras["in_memory"] for r in per_value.values()],
        })
        for engine, per_value in results.items()
    ]


def _thread_ratios(over: Tuple[int, ...], under: int):
    return lambda results: [
        (f"{engine} {t}t/{under}t",
         per_thread[t].execution_time / per_thread[under].execution_time)
        for engine, per_thread in results.items() for t in over
    ]


def _measure_fig10(runner, datasets):
    return {
        ds: {
            "x-stream": runner.run(ds, "x-stream", "hdd").execution_time,
            "fastbfs 1 disk": runner.run(ds, "fastbfs", "hdd").execution_time,
            "fastbfs 2 disks": runner.run(
                ds, "fastbfs-2disk", "hdd", num_disks=2
            ).execution_time,
        }
        for ds in datasets
    }


def _two_disk_speedups(times) -> Dict[str, Dict[str, float]]:
    return {
        ds: {"vs 1 disk": t["fastbfs 1 disk"] / t["fastbfs 2 disks"],
             "vs x-stream": t["x-stream"] / t["fastbfs 2 disks"]}
        for ds, t in times.items()
    }


def _render_fig10(times) -> str:
    columns = ["x-stream", "fastbfs 1 disk", "fastbfs 2 disks"]
    return format_table(
        ["dataset"] + columns,
        [[ds] + [format_seconds(t[c]) for c in columns] for ds, t in times.items()],
        "Fig. 10: execution time with parallel I/O (stream rotation across "
        "two disks)",
    ) + "\n\n" + speedup_table(
        _two_disk_speedups(times),
        {"vs 1 disk": paper.TWO_DISK_SPEEDUP_VS_SINGLE,
         "vs x-stream": paper.TWO_DISK_SPEEDUP_VS_XSTREAM},
        "Two-disk FastBFS speedups (Fig. 10 headline numbers)",
    )


def _scale_ratio(field: str, attr: str):
    """Cases: a Table II stand-in's size over the paper's size / divisor."""
    return lambda graphs: [
        (name, getattr(g, attr)
         / (paper.TABLE2[name][field] / g.meta["scale_divisor"]))
        for name, g in graphs.items()
    ]


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
FIGURES: Dict[str, Figure] = {fig.name: fig for fig in (
    Figure(
        "table1", "table1_representation",
        # Structural: regenerated from the text, no run behind it.
        lambda runner, datasets: representation_table(),
        lambda text: text,
        (
            FigureClaim(
                "Table I rows match the paper's text",
                # GraphChi; X-Stream and FastBFS; FastBFS's extra stream.
                lambda text: [
                    (phrase, text.count(phrase) == rows) for phrase, rows in
                    (("in-edge sets", 1), ("out-edge sets", 2),
                     ("update files, stay files", 1))
                ],
                bool,
            ),
        ),
    ),
    Figure(
        "table2", "table2_datasets",
        lambda runner, datasets: {name: runner.graph(name) for name in DATASETS},
        datasets_table,
        (
            # Whiskers add ~2%, generators round edge factors: allow 35%.
            FigureClaim(
                "stand-in edge counts are the paper's over the scale divisor",
                _scale_ratio("edges", "num_edges"),
                lambda r: 0.65 <= r <= 1.35, "0.65-1.35 of paper E / divisor",
            ),
            FigureClaim(
                "stand-in vertex counts are the paper's over the scale divisor",
                _scale_ratio("vertices", "num_vertices"),
                lambda r: 0.5 <= r <= 2.5, "0.5-2.5 of paper V / divisor",
            ),
        ),
    ),
    Figure(
        "fig1", "fig1_convergence",
        lambda runner, datasets: {
            ds: level_profile(runner.graph(ds), runner.root(ds)) for ds in datasets
        },
        _render_fig1,
        (
            FigureClaim(
                "the whole edge list is useful entering level 0",
                _profiles(lambda p: p.useful_fraction[0]), lambda f: f == 1.0,
            ),
            # The paper's toy graph: 100% -> <88% -> <55% over three levels.
            FigureClaim(
                "the useful-edge fraction collapses within the first levels",
                _profiles(lambda p: min(p.useful_fraction[:4])),
                lambda f: f < 0.55, "under 55% by level 3",
            ),
            FigureClaim(
                "the edges left after each level never grow",
                _profiles(lambda p: p.remaining_edges),
                lambda left: all(a >= b for a, b in zip(left, left[1:])),
            ),
        ),
    ),
    Figure(
        "fig4", "fig4_exec_time_hdd", _rows, _render_fig4,
        (
            FigureClaim(
                "FastBFS fastest on every dataset (HDD)", _engines("time"),
                lambda t: t["fastbfs"] < min(t["x-stream"], t["graphchi"]),
            ),
            # The paper's wording; held here on every dataset.
            FigureClaim(
                "GraphChi slowest on most datasets (HDD)", _engines("time"),
                lambda t: t["graphchi"] > max(t["x-stream"], t["fastbfs"]),
                "every dataset",
            ),
            _in_range(paper.HDD_SPEEDUP_VS_XSTREAM, 0.30,
                      _column(_fastbfs_speedups, "vs x-stream")),
            _in_range(paper.HDD_SPEEDUP_VS_GRAPHCHI, 0.30,
                      _column(_fastbfs_speedups, "vs graphchi")),
        ),
    ),
    Figure(
        "fig5", "fig5_input_data", _rows, _render_fig5,
        (
            # X-Stream's indiscriminate rescans put it at (or within a few
            # percent of) the top; FastBFS is strictly the smallest reader.
            FigureClaim(
                "X-Stream reads the most input data", _engines("input_bytes"),
                lambda b: b["x-stream"] >= 0.9 * max(b.values()),
                "at least 0.9 of the largest reader",
            ),
            FigureClaim(
                "FastBFS reads the least input data", _engines("input_bytes"),
                lambda b: b["fastbfs"] == min(b.values()),
            ),
            FigureClaim(
                "input reduction vs X-Stream is substantial",
                _column(_reductions, "input"), lambda r: r > 0.5, "over 50%",
            ),
            # Reductions are ratios in [0, 1]: the slack stays tight.
            _in_range(paper.INPUT_REDUCTION_VS_XSTREAM, 0.15,
                      _column(_reductions, "input"), percent=True),
            _in_range(paper.TOTAL_REDUCTION_VS_XSTREAM, 0.15,
                      _column(_reductions, "overall"), percent=True),
        ),
    ),
    Figure(
        "fig6", "fig6_iowait", _rows,
        lambda rows: comparison_table(
            rows, "iowait", "Fig. 6: iowait time ratio, single HDD"
        ),
        (
            # GraphChi burns CPU on shard sorting and PSW management.
            FigureClaim(
                "GraphChi iowait ratio below X-Stream's and FastBFS's",
                _engines("iowait_ratio"),
                lambda r: r["graphchi"] < min(r["x-stream"], r["fastbfs"]),
            ),
            # FastBFS removes compute and I/O; what is left is I/O-dominated.
            FigureClaim(
                "FastBFS iowait ratio >= X-Stream's", _engines("iowait_ratio"),
                lambda r: r["fastbfs"] >= r["x-stream"] - 0.05, "to within 0.05",
            ),
            FigureClaim(
                "BFS is I/O bound on every engine", _engines("iowait_ratio"),
                lambda r: min(r.values()) > 0.5, "iowait ratio over 50%",
            ),
        ),
    ),
    Figure(
        "fig7", "fig7_exec_time_ssd",
        lambda runner, datasets: {
            kind: _rows(runner, datasets, kind) for kind in ("hdd", "ssd")
        },
        _render_fig7,
        (
            FigureClaim(
                "SSD is faster than HDD for all three systems",
                lambda data: _ssd_gains(data).items(),
                lambda gains: min(gains.values()) > 1.0,
            ),
            FigureClaim(
                "the ranking on SSD is the ranking on HDD",
                lambda data: _metric(data["ssd"], "time").items(),
                lambda t: t["fastbfs"] < t["x-stream"] < t["graphchi"],
            ),
            _in_range(paper.SSD_SPEEDUP_VS_XSTREAM, 0.30,
                      _column(_ssd_speedups, "vs x-stream")),
            _in_range(paper.SSD_SPEEDUP_VS_GRAPHCHI, 0.30,
                      _column(_ssd_speedups, "vs graphchi")),
            *(_in_range(claim, 0.30, _column(_ssd_gains, engine))
              for engine, claim in paper.SSD_GAIN.items()),
            FigureClaim(
                "FastBFS on HDD is close to X-Stream on SSD",
                _fastbfs_hdd_over_xstream_ssd,
                lambda r: 0.5 <= r <= 1.6, "time ratio in 0.5-1.6",
            ),
        ),
    ),
    Figure(
        "fig8", "fig8_threads",
        # 2GB keeps rmat22 in the disk-based regime (the paper's Fig. 8 times
        # match its Fig. 9 disk-based points, not the in-memory cliff), which
        # is where "threads don't help" holds.
        _sweep("threads", (1, 2, 4, 8), memory="2GB"),
        _render_sweep(
            "Fig. 8: execution time vs thread count, rmat22, single HDD",
            "{} threads",
        ),
        (
            FigureClaim(
                "thread count does not help (I/O bound)", _thread_ratios((2, 4), 1),
                lambda r: 0.8 <= r <= 1.2, "within 20% of one thread",
            ),
            # Oversubscribing the 4 cores costs synchronization.
            FigureClaim(
                "threads beyond core count degrade slightly",
                _thread_ratios((8,), 4), lambda r: r > 1.0,
            ),
            FigureClaim(
                "FastBFS stays faster than X-Stream at every thread count",
                lambda results: [
                    (f"{t} threads", {e: results[e][t].execution_time for e in results})
                    for t in results["fastbfs"]
                ],
                lambda at: at["fastbfs"] < at["x-stream"],
            ),
        ),
    ),
    Figure(
        "fig9", "fig9_memory",
        _sweep("memory", ("256MB", "512MB", "1GB", "2GB", "4GB")),
        _render_sweep(
            "Fig. 9: execution time vs working memory (paper scale), rmat22"
        ),
        (
            FigureClaim(
                "performance is flat across 256MB-2GB memory", _sweep_cases,
                lambda s: max(s["time"][:-1]) / min(s["time"][:-1]) < 1.5,
                "max/min under 1.5",
            ),
            FigureClaim(
                "4GB turns on in-memory mode and drops execution time sharply",
                _sweep_cases,
                lambda s: s["in_memory"][-2:] == [0.0, 1.0]
                and s["time"][-1] < 0.6 * s["time"][-2],
                "under 0.6 of the 2GB time",
            ),
        ),
    ),
    Figure(
        "fig10", "fig10_two_disks", _measure_fig10, _render_fig10,
        (
            FigureClaim(
                "two disks beat one disk which beats X-Stream",
                lambda times: times.items(),
                lambda t: t["fastbfs 2 disks"] < t["fastbfs 1 disk"] < t["x-stream"],
            ),
            FigureClaim(
                "the second disk buys FastBFS a clear speedup",
                _column(_two_disk_speedups, "vs 1 disk"),
                lambda s: s > 1.1, "over 1.1x",
            ),
            _in_range(paper.TWO_DISK_SPEEDUP_VS_XSTREAM, 0.30,
                      _column(_two_disk_speedups, "vs x-stream")),
        ),
    ),
)}


# ----------------------------------------------------------------------
# readers of the table
# ----------------------------------------------------------------------
def evaluate(figure: Figure, data: object) -> List[ClaimResult]:
    """Every claim of ``figure`` against its measured ``data``."""
    return [
        ClaimResult(figure.name, claim.text, *claim.check(data))
        for claim in figure.claims
    ]


def check_claims(
    runner: Optional[ExperimentRunner] = None,
    datasets: Optional[List[str]] = None,
) -> List[ClaimResult]:
    """Measure every figure and evaluate every claim of it."""
    runner = runner if runner is not None else ExperimentRunner()
    datasets = datasets if datasets is not None else list(BIG_DATASETS)
    return [
        result
        for figure in FIGURES.values()
        for result in evaluate(figure, figure.measure(runner, datasets))
    ]


def scoreboard(results: List[ClaimResult]) -> str:
    """Render claim results as the EXPERIMENTS.md-style table."""
    return format_table(
        ["figure", "claim", "verdict", "evidence"],
        [[r.figure, r.claim, "PASS" if r.passed else "FAIL", r.evidence]
         for r in results],
        title="Executable claims",
    )


def build_report(
    runner: Optional[ExperimentRunner] = None,
    figures: Iterable[str] = tuple(FIGURES),
    datasets: Optional[List[str]] = None,
) -> str:
    """Render the requested figures as one markdown document."""
    runner = runner if runner is not None else ExperimentRunner()
    datasets = datasets if datasets is not None else list(BIG_DATASETS)
    figures = list(figures)
    unknown = set(figures) - set(FIGURES)
    if unknown:
        raise ConfigError(f"unknown figures {sorted(unknown)}; "
                          f"options: {tuple(FIGURES)}")
    sections = [
        "# FastBFS reproduction report",
        f"scale divisor: {runner.divisor}  |  datasets: {', '.join(datasets)}",
    ]
    for name in figures:
        figure = FIGURES[name]
        text = figure.render(figure.measure(runner, datasets))
        sections.append("```\n" + text + "\n```")
    return "\n\n".join(sections) + "\n"


def claims_table() -> str:
    """The "Claims checked" table of EXPERIMENTS.md (pinned by a test)."""
    lines = ["| Figure | Claim | Held to |", "|---|---|---|"]
    lines += [
        f"| {figure.name} | {claim.text} | {claim.bound or '-'} |"
        for figure in FIGURES.values() for claim in figure.claims
    ]
    return "\n".join(lines)
