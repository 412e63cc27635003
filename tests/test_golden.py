"""Each golden run's report against its committed file (see ``golden_reports.py``)."""

import json
import math

import pytest

import golden_reports as G


@pytest.fixture(scope="module")
def reports():
    return G.render(sorted(G.RUNS))


def _golden_moves(name, code, text):
    assert code == 0
    expected = json.loads((G.GOLDEN / f"{name}.json").read_text())
    return G.moved(expected, json.loads(text))


@pytest.mark.parametrize("name", sorted(G.RUNS))
def test_report_matches_golden(name, reports):
    assert _golden_moves(name, *reports[name]) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_reports_ignore_the_callers_thread_count(threads, monkeypatch):
    """The caller's BLAS thread count does not reach the rendered reports;
    unpinned, ``heat-blob`` moves past ``RTOL`` between 1 and 2 threads."""
    for key in G.THREADS:
        monkeypatch.setenv(key, threads)
    for name, (code, text) in G.render(sorted(G.RUNS)).items():
        assert _golden_moves(name, code, text) == [], name


def test_moved_lists_bitwise_moves_only_at_zero_tolerance():
    old = {"a": [1.0, 2], "b": "x"}
    new = {"a": [math.nextafter(1.0, 2.0), 2], "b": "x"}
    assert G.moved(old, new, rtol=0.0) == [(".a[0]", 1.0, new["a"][0])]
    assert G.moved(old, new) == []
    assert G.moved(old, {"a": [1.0 + 1e-12, 2], "b": "x"}) == [(".a[0]", 1.0, 1.0 + 1e-12)]


def test_out_writes_reports_elsewhere(tmp_path, monkeypatch, capsys):
    """``--out DIR`` writes each report to ``DIR`` and leaves the committed file alone."""
    monkeypatch.setattr(G, "RUNS", {"constants": G.RUNS["constants"]})
    committed = (G.GOLDEN / "constants.json").stat()
    assert G.main(["--out", str(tmp_path / "regen")]) == 0
    assert (tmp_path / "regen" / "constants.json").read_text() == G.run("constants")[1]
    assert (G.GOLDEN / "constants.json").stat().st_mtime_ns == committed.st_mtime_ns
    assert capsys.readouterr().out == ""
