"""The benchmark harness keeps every benchmark's rows in one JSON file."""

import json

import pytest

from benchmarks._harness import record


def test_record_keeps_every_benchmark(tmp_path, monkeypatch):
    path = tmp_path / "bench.json"
    monkeypatch.setenv("REPRO_BENCH_JSON", str(path))
    record("first", {"seconds": 1.5})
    record("second", {"qps": 200})
    record("first", {"seconds": 1.25})
    assert json.loads(path.read_text()) == {
        "first": {"seconds": 1.25},
        "second": {"qps": 200},
    }
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]


def test_record_without_a_path_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_JSON", raising=False)
    monkeypatch.chdir(tmp_path)
    record("first", {"seconds": 1.5})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stale", ["not json", "[1, 2]"])
def test_record_replaces_a_file_that_holds_no_object(tmp_path, monkeypatch, stale):
    path = tmp_path / "bench.json"
    path.write_text(stale)
    monkeypatch.setenv("REPRO_BENCH_JSON", str(path))
    record("first", {"seconds": 1.5})
    assert json.loads(path.read_text()) == {"first": {"seconds": 1.5}}
    assert path.stat().st_mode & 0o777 == 0o644


def test_record_leaves_no_temporary_file_when_the_rows_do_not_encode(
    tmp_path, monkeypatch
):
    path = tmp_path / "bench.json"
    monkeypatch.setenv("REPRO_BENCH_JSON", str(path))
    with pytest.raises(TypeError):
        record("first", {"seconds": object()})
    assert list(tmp_path.iterdir()) == []
