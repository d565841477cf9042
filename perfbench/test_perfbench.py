"""Tests for the benchmark's own code (generator, verdicts, span arithmetic).

Run with ``python3 -m pytest perfbench``; nothing here runs spectile.
"""

from __future__ import annotations

import itertools
import json
import time

import gen
import pytest
import run
import spans
import verdicts


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_generator_is_deterministic(name, tmp_path):
    a, b = gen.make(name, 7), gen.make(name, 7)
    a.write(tmp_path / "a")
    b.write(tmp_path / "b")
    for fname in a.files:
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    other = gen.make(name, 8)
    assert other.files != a.files or [o.argv for o in other.ops] != [o.argv for o in a.ops]


def test_every_group_is_in_exactly_one_workload():
    listed = [g for groups in gen.WORKLOADS.values() for g in groups]
    assert len(listed) == len(set(listed))
    seen = {op.group for name in gen.WORKLOADS for op in gen.make(name, 0).ops}
    assert seen == set(listed)
    assert set(run.DOMINANT) <= seen


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_search_inputs_stay_under_the_search_cap(name):
    # spectile refuses to search groups above MAX_SEARCH_ORDER = 4096
    wl = gen.make(name, 3)
    for op in wl.ops:
        if op.argv[0] in ("find-spectrum", "find-complement"):
            header = wl.files[op.argv[1]].splitlines()[0]
            base, _, exp = header.split()[1].partition("^")
            assert int(base) ** int(exp or 1) <= 4096


def test_cube_sets_are_affine_images_of_distinct_points():
    wl = gen.make("search", 11)
    for fname, text in wl.files.items():
        rows = text.splitlines()[1:]
        assert len(rows) == len(set(rows)) == (20 if fname.startswith("cube") else 8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_overlap_witness_is_the_first_uncovered_element(seed):
    op = next(op for op in gen.make("verify", seed).ops if op.label == "check-tiling-24^3-overlap")
    kind, params = op.expect["witness"]
    sums = {
        tuple((x + y) % 24 for x, y in zip(a, b)) for a in params["A"] for b in params["B"]
    }
    first_hole = next(g for g in itertools.product(range(24), repeat=3) if g not in sums)
    assert list(first_hole) == op.expect["json"]["witness"]["g"]


def test_witness_checkers():
    assert verdicts.interval_spectrum_ok(16, 4, [[0], [4], [8], [12]])
    assert not verdicts.interval_spectrum_ok(16, 4, [[0], [4], [8], [13]])
    S = [(0, 0), (1, 0)]
    assert verdicts.cube_spectrum_ok(S, [(0, 0), (1, 1)])
    assert not verdicts.cube_spectrum_ok(S, [(0, 0), (0, 1)])
    assert verdicts.complement_ok([(0,), (1,)], [(0,), (2,)], (4,))
    assert not verdicts.complement_ok([(0,), (1,)], [(0,), (1,)], (4,))


def test_verdict_table_flags_a_wrong_expectation():
    out = '{"tiling": true, "exit_code": 0}\n'
    assert verdicts.judge({"exit": 0, "json": {"tiling": True}}, 0, out).failed == 0
    wrong = verdicts.judge({"exit": 1, "json": {"tiling": False}}, 0, out)
    assert wrong.failed == 1 and len(wrong.problems) == 2


def test_verdict_table_flags_a_bad_witness_and_budget_outcome():
    expect = {"exit": 0, "json": {"status": "found"},
              "witness": ("interval_spectrum", {"N": 16, "m": 4})}
    good = '{"status": "found", "witness": [[1], [5], [9], [13]]}'
    bad = '{"status": "found", "witness": [[0], [1], [2], [3]]}'
    assert verdicts.judge(expect, 0, good).failed == 0
    assert verdicts.judge(expect, 0, bad).failed == 1
    assert verdicts.judge(expect, 3, '{"status": "budget"}').failed == 1
    assert verdicts.judge(expect, None, "", error="Traceback ...").failed == 1


def test_harness_disagreements_fail_one_operation_each():
    expect = next(op for op in gen.make("verify", 0).ops if op.group == "harness-sweep").expect
    fields = dict(expect["json"])
    assert verdicts.judge(expect, 0, json.dumps(fields)).failed == 0
    fields["disagreements"] = 3
    v = verdicts.judge(expect, 1, json.dumps(fields))
    assert v.attempted == expect["units_expected"]
    assert v.failed == v.attempted  # exit 1 is itself wrong: the whole call fails
    v = verdicts.judge(dict(expect, exit=[0, 1]), 1, json.dumps(fields))
    assert v.failed == 3


def test_calls_check_canonical_against_default_status():
    ops = [gen.Op("a", (), {"exit": [0, 1]}),
           gen.Op("b", (), {"exit": [0, 1], "same_status_as": "a"})]
    same = [{"code": 1, "stdout": '{"status": "exhausted"}', "error": ""}] * 2
    assert verdicts.judge_calls(ops, same).failed == 0
    differ = [same[0], {"code": 0, "stdout": '{"status": "found"}', "error": ""}]
    assert verdicts.judge_calls(ops, differ).failed == 1


def test_self_time_on_a_synthetic_span_tree():
    # main [0,10] -> parse [1,2]; verify [3,9] -> sum [4,5], sum [6,8] -> poly [6.5,7]
    names = ["cli.main", "setfiles.parse", "spectral.verify", "spectral.sum", "cyclotomic.poly"]
    rows = [  # (name, start, end, parent)
        (0, 0.0, 10.0, -1),
        (1, 1.0, 2.0, 0),
        (2, 3.0, 9.0, 0),
        (3, 4.0, 5.0, 2),
        (3, 6.0, 8.0, 2),
        (4, 6.5, 7.0, 4),
    ]
    t = spans.SpanTable(names, *zip(*rows))
    assert t.self_of("cli.main") == pytest.approx(10 - 1 - 6)
    assert t.self_of("spectral.verify") == pytest.approx(6 - 1 - 2)
    assert t.self_of("spectral.sum") == pytest.approx(1 + 1.5)
    assert t.layer_self("spectral") == pytest.approx(3 + 2.5)
    assert t.inclusive("spectral.verify", "spectral.sum") == pytest.approx(6)
    assert t.inclusive("spectral.sum") == pytest.approx(3)
    assert t.count("spectral.sum") == 2
    total_self = sum(t.layer_self(layer) for layer in ("cli", "setfiles", "spectral", "cyclotomic"))
    assert total_self == pytest.approx(10)


def test_recursive_spans_count_once_in_inclusive_time():
    tracer = spans.Tracer()

    def fib(n):
        return n if n < 2 else wrapped(n - 1) + wrapped(n - 2)

    wrapped = tracer.wrap("cyclotomic.fib", fib)
    assert wrapped(6) == 8
    t = spans.SpanTable(tracer.names, tracer.name_col, tracer.start, tracer.end, tracer.parent)
    assert t.count("cyclotomic.fib") == 25
    root = t.dur[0]
    assert t.inclusive("cyclotomic.fib") == pytest.approx(root)
    assert t.self_of("cyclotomic.fib") == pytest.approx(root)


def test_counter_hooks_are_not_charged_to_any_span():
    tracer = spans.Tracer()

    def slow_hook(tracer, idx, args, result):
        time.sleep(0.05)

    inner = tracer.wrap("spectral.inner", lambda: None, slow_hook)
    outer = tracer.wrap("cli.outer", lambda: inner())
    outer()
    t = spans.SpanTable(tracer.names, tracer.name_col, tracer.start, tracer.end, tracer.parent)
    assert t.inclusive("cli.outer") < 0.01
    assert tracer.paused[0] >= 0.05


def test_benchmark_json_lists_every_per_layer_metric():
    from pathlib import Path

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {k: u for k, (_v, u) in spans.per_layer_metrics([], 0.0, 0.0).items()}
    assert listed == emitted
