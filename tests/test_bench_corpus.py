"""bench/corpus.py on this tree as both trees: one run and one case of each kind."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_corpus_writes_one_record_schema(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    table = corpus.table

    def first_of_each_kind(gen):
        rows = {}
        for kind, arg in table(gen):
            rows.setdefault(kind, (kind, arg))
        return list(rows.values())

    monkeypatch.setattr(corpus, "RUNS", 1)
    monkeypatch.setattr(corpus, "table", first_of_each_kind)
    src = str(ROOT / "src")
    out = tmp_path / "bench.json"
    assert corpus.main(["--parent", src, "--change", src, "--out", str(out)]) == 0

    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["runs_per_tree"] == 1
    records = report["records"]
    assert {r["kind"] for r in records} == {
        "batch", "scalar", "first_call", "harness", "find_spectrum", "small_sets",
        "product_diagonal", "pipeline"}
    assert {r["layer"] for r in records if r["kind"] == "harness"} == {
        "total_s", "kernel_s", "draw_s", "rows_per_s", "disagreements"}
    assert {r["layer"] for r in records if r["kind"] == "find_spectrum"} == {
        "zero_set_s", "graph_s", "kernel_s", "verify_s", "total_s", "nodes"}
    assert {r["layer"] for r in records if r["kind"] == "product_diagonal"} == {
        "tiling_s", "spectral_s", "total_s"}
    assert {r["layer"] for r in records if r["kind"] == "pipeline"} == {
        "lift_s", "verify_s", "total_s"}
    for r in records:
        assert set(r) - {"change_over_parent"} == {
            "kind", "case", "layer", "parent", "change", "change_won"}
        for tree in ("parent", "change"):
            assert set(r[tree]) == {"runs", "median", "iqr"}
            assert len(r[tree]["runs"]) == 1
            assert r[tree]["median"] == r[tree]["runs"][0] and r[tree]["iqr"] == 0
        assert r["change_won"] in (0, 1)
        # The ratio is left out exactly where the parent reads 0.
        assert ("change_over_parent" in r) == (r["parent"]["median"] != 0)
        if "change_over_parent" in r:
            assert set(r["change_over_parent"]) == {"median", "iqr"}
            assert r["change_over_parent"]["iqr"] == 0
        if r["layer"] == "nodes":  # a count: the same tree twice ties
            assert r["parent"] == r["change"] and r["change_won"] == 0
            assert r["change_over_parent"]["median"] == 1
