"""Table I-II and Fig. 1, 4-10 of the paper, one parametrized case each.

What a figure runs, how it prints and what must hold of it are defined
once, in ``repro.analysis.figures.FIGURES``; this file measures each entry
on the four big datasets, writes ``benchmarks/results/<stem>.txt`` and
fails on any claim that does not hold.
"""

import pytest
from conftest import once

from repro.analysis.figures import FIGURES, evaluate, scoreboard
from repro.graph.datasets import BIG_DATASETS


@pytest.mark.parametrize("figure", FIGURES.values(), ids=list(FIGURES))
def test_figure(figure, benchmark, runner, emit):
    data = once(benchmark, lambda: figure.measure(runner, list(BIG_DATASETS)))
    emit(figure.stem, figure.render(data))
    failing = [r for r in evaluate(figure, data) if not r.passed]
    assert not failing, scoreboard(failing)
