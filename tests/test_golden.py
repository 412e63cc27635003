"""Each golden run's report against its committed file (see ``golden_reports.py``)."""

import json

import pytest

import golden_reports as G


@pytest.mark.filterwarnings("ignore:spectral truncation")  # the sparse blob's sums
@pytest.mark.parametrize("name", sorted(G.RUNS))
def test_report_matches_golden(name):
    code, text = G.run(name)
    assert code == 0
    expected = json.loads((G.GOLDEN / f"{name}.json").read_text())
    assert G.moved(expected, json.loads(text)) == []
