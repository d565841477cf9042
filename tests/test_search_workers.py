"""The clique kernel split across processes walks the same tree as one process.

With ``_SERIAL_NODES`` patched to 0 the root's branches go to the workers'
queue right after the root, so small random graphs and sets reach every path
of the split: budgets that end at the root, inside a task walked here, inside
a task a forked child walked and exactly at the total; a clique found in a
child's task; and targets of 1 and 2. Which worker claims a task depends on
timing, so the tests that need a task in a given worker record each worker's
tasks by its process id, slow the claims down and try again. Outcome, clique
and node count must equal those of ``workers=1`` and of ``reference_search``,
and no child or descriptor may be left behind.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search as ref
from conftest import run_cli
from spectile import spectral
from spectile.groups import PointSet
from test_search_kernels import clique_number_at_zero, random_graph, relabel, search_groups

ROOT = Path(__file__).resolve().parent.parent
INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
SETTINGS = settings(max_examples=60, deadline=None)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Split(NamedTuple):
    tasks: range
    results: list[tuple]
    here: list[int]  # the tasks this process walked


def pace(task):
    """Wait 2 ms after each claim, so that every worker claims tasks in a small tree."""
    time.sleep(0.002)


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block after ``seconds``, where SIGALRM exists."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@contextmanager
def split_at_root(on_claim=None):
    """Split after the root, on up to 3 workers, recording each split, within 30 s.

    ``on_claim(i)`` runs in the worker that claims task i, before it walks it.
    """
    splits = []
    forked = spectral._walk_forked
    parent = os.getpid()

    def spy(walk, tasks, workers):
        here = []

        def claimed(share):
            for i in share:
                if on_claim:
                    on_claim(i)
                yield i

        def spy_walk(share):
            out = walk(claimed(share))
            if os.getpid() == parent:
                here.extend(i for i, _, _ in out)
            return out

        results = forked(spy_walk, tasks, workers)
        splits.append(Split(tasks, results, here))
        return results

    with mock.patch.object(spectral, "_SERIAL_NODES", 0), \
            mock.patch.object(spectral, "_walk_forked", spy), \
            mock.patch.object(spectral, "_available_cpus", lambda: 3), deadline(30):
        yield splits


@contextmanager
def walk_fails_in(where: str):
    """The split's walk raises ValueError at its start in this process or in its child."""
    parent = os.getpid()
    forked = spectral._walk_forked

    def failing(walk, tasks, workers):
        def walk_or_fail(share):
            if (os.getpid() == parent) == (where == "parent"):
                raise ValueError("the walk failed")
            return walk(share)
        return forked(walk_or_fail, tasks, workers)

    with mock.patch.object(spectral, "_walk_forked", failing):
        yield


def kernel(adj: list[int], start: int, target: int, budget: int, canonical: bool, workers: int):
    """``_clique_kernel`` on rows in index order, as ``_clique_search`` calls it."""
    V = len(adj)
    rows = [int(format(a, f"0{V}b")[::-1], 2) for a in adj]
    result = spectral._clique_kernel(rows, start, target, budget, canonical, workers)
    assert_no_child_left()
    return result


def graph_case(n, density, hub, seed, canonical):
    """The graph, its rows in the static order, and vertex 0's place in that order."""
    adj = random_graph(n, density, hub, seed)
    order = list(range(n)) if canonical else sorted(
        range(n), key=lambda v: (-adj[v].bit_count(), v))
    return adj, relabel(adj, order), order


def reference(adj, order, target, budget, canonical):
    """``reference_search``'s outcome, its clique renamed into the static order."""
    status, clique, nodes = ref.clique_search(adj, len(adj), target, budget, canonical)
    return status, None if clique is None else [order.index(v) for v in clique], nodes


@SETTINGS
@given(
    n=st.integers(1, 40),
    density=st.sampled_from([0.4, 0.55, 0.7]),
    hub=st.booleans(),
    seed=st.integers(0, 2**32),
    excess=st.integers(-3, 2),
    canonical=st.booleans(),
    workers=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_split_kernel_matches_one_walk_and_the_reference(
    n, density, hub, seed, excess, canonical, workers, data
):
    adj, rows, order = graph_case(n, density, hub, seed, canonical)
    start = order.index(0)
    target = max(1, clique_number_at_zero(adj) + excess)
    total = kernel(rows, start, target, 10**6, canonical, 1)[2]
    # 0 ends at the root; total - 1 and total end just before the last node and at it.
    budget = data.draw(st.one_of(st.sampled_from([0, 1, 2, total - 1, total, 10**6]),
                                 st.integers(0, total + 1)))
    serial = kernel(rows, start, target, budget, canonical, 1)
    assert serial == reference(adj, order, target, budget, canonical)
    with split_at_root():
        assert kernel(rows, start, target, budget, canonical, workers) == serial


@SETTINGS
@given(data=st.data(), workers=st.sampled_from([2, 3]))
def test_split_find_spectrum_matches_the_reference(data, workers):
    spec = data.draw(search_groups)
    ranks = data.draw(st.sets(st.integers(0, spec.order - 1), min_size=1,
                              max_size=min(10, spec.order)))
    S = PointSet.from_ranks(spec, ranks)
    budget = data.draw(st.one_of(st.integers(0, 80), st.just(10**6)))
    canonical = data.draw(st.booleans())
    with split_at_root():
        res = spectral.find_spectrum(S, budget=budget, canonical=canonical, workers=workers)
    assert_no_child_left()
    witness = None if res.certificate is None else res.certificate.spectrum.ranks()
    assert (res.status, witness, res.nodes) == ref.spectrum_search(S, budget, canonical)


def task_nodes(rows, start, target, canonical):
    """Nodes of each root task of an exhausted walk split between two workers."""
    with split_at_root() as splits:
        assert kernel(rows, start, target, 10**6, canonical, 2)[0] == "exhausted"
    split, = splits
    assert split.tasks.start == 0
    return [nodes for _, nodes, _ in sorted(split.results)]


@pytest.mark.parametrize("canonical", [False, True])
def test_budgets_at_each_part_of_the_split(canonical):
    adj, rows, order = graph_case(40, 0.7, True, 7, canonical)
    start = order.index(0)
    target = clique_number_at_zero(adj) + 1
    counts = task_nodes(rows, start, target, canonical)
    total = 1 + sum(counts)

    def split(budget, on_claim=None):
        expected = reference(adj, order, target, budget, canonical)
        with split_at_root(on_claim) as splits:
            assert kernel(rows, start, target, budget, canonical, 2) == expected
        assert expected[0] == ("exhausted" if budget == total else "budget")
        return splits

    for budget in (0, 1, 2, total - 1, total):
        split(budget)
    # Budgets ending inside a task of more than one node, tried in turn until
    # one such task was walked here and one in the child.
    walked_here = set()
    for i in itertools.islice(itertools.cycle(i for i, n in enumerate(counts) if n > 1), 40):
        walked_here.add(i in split(1 + sum(counts[:i]) + (counts[i] + 1) // 2, pace)[0].here)
        if len(walked_here) == 2:
            break
    assert walked_here == {False, True}


def test_a_clique_found_in_a_child_task():
    for seed in range(200):
        adj, rows, order = graph_case(30, 0.5, True, seed, False)
        target = clique_number_at_zero(adj)
        with split_at_root(pace) as splits:
            res = kernel(rows, order.index(0), target, 10**6, False, 2)
        found = [i for i, _, clique in splits[0].results if clique] if splits else []
        if res[0] == "found" and found and min(found) not in splits[0].here:  # the child's
            assert res == kernel(rows, order.index(0), target, 10**6, False, 1)
            assert res == reference(adj, order, target, 10**6, False)
            return
    pytest.fail("no graph found its clique in a child's task")


def test_a_slow_child_leaves_the_queue_to_this_process():
    adj, rows, order = graph_case(40, 0.7, True, 7, True)
    target = clique_number_at_zero(adj) + 1
    parent = os.getpid()

    def slow_child(task):
        if os.getpid() != parent:
            time.sleep(0.05)

    with split_at_root(slow_child) as splits:
        result = kernel(rows, order.index(0), target, 10**6, True, 2)
    assert result == reference(adj, order, target, 10**6, True)
    (tasks, results, here), = splits
    assert sorted(i for i, _, _ in results) == list(tasks)  # each task walked once
    assert len(here) > 2 * (len(tasks) - len(here))


def test_a_failed_fork_leaves_the_queue_to_this_process(forks):
    adj, rows, order = graph_case(40, 0.7, True, 7, True)
    target = clique_number_at_zero(adj) + 1
    with split_at_root() as splits:
        result = kernel(rows, order.index(0), target, 10**6, True, 3)
    assert len(forks) == 2
    assert result == reference(adj, order, target, 10**6, True)
    (tasks, results, here), = splits
    assert here == list(tasks)


def test_a_worker_leaves_a_task_after_an_earlier_one_finds():
    # Task 0 (vertex 1) finds the clique {0, 1} + C at once; task 1 (vertex
    # 2, joined to all of G) is an exhaustion of G, with no clique of 14.
    def graph(link):
        rng = random.Random(0)
        G, C = range(3, 173), range(173, 187)
        edges = [(0, v) for v in range(1, 187)] + [(2, v) for v in G]
        edges += [(a, b) for a, b in itertools.combinations(G, 2) if rng.random() < 0.6]
        edges += [*itertools.combinations(C, 2), *((1, c) for c in C if link)]
        adj = [0] * 187
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    # Without the edges of vertex 1, task 1 walks more than 10^5 nodes.
    assert kernel(graph(False), 0, 16, 2 + 10**5, True, 1)[0] == "budget"
    adj = graph(True)
    r, w = os.pipe()
    try:
        def task_0_waits_for_task_1(task):
            if task == 1:
                os.write(w, b"1")
            elif task == 0:
                os.read(r, 1)

        with split_at_root(task_0_waits_for_task_1) as splits:
            result = kernel(adj, 0, 16, 10**6, True, 2)
    finally:
        os.close(r)
        os.close(w)
    assert result == ("found", [0, 1, *range(173, 187)], 16)
    (_, results, _), = splits
    assert dict((i, n) for i, n, _ in results)[1] < 10**4


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_walk_raises_and_leaves_no_child(where):
    adj, rows, order = graph_case(40, 0.55, True, 7, False)
    target = clique_number_at_zero(adj) + 2
    with split_at_root(), walk_fails_in(where):
        with pytest.raises(RuntimeError if where == "child" else ValueError):
            kernel(rows, order.index(0), target, 10**6, False, 2)
    assert_no_child_left()


@pytest.mark.parametrize("fault", [None, "fork", "child", "parent"])
def test_a_split_leaves_no_descriptor_open(fault, request):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list the open descriptors")
    if fault == "fork":
        request.getfixturevalue("forks")
    adj, rows, order = graph_case(40, 0.55, True, 7, False)
    target = clique_number_at_zero(adj) + 2
    raises = {"child": RuntimeError, "parent": ValueError}.get(fault)
    before = sorted(os.listdir("/proc/self/fd"))
    with split_at_root() as splits, walk_fails_in(fault) if raises else nullcontext():
        with pytest.raises(raises) if raises else nullcontext():
            kernel(rows, order.index(0), target, 10**6, False, 2)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child_left()
    assert splits or raises  # the search reached the queue


def test_without_fork_the_search_runs_in_this_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    adj, rows, order = graph_case(40, 0.7, True, 7, True)
    target = clique_number_at_zero(adj) + 1
    with split_at_root() as splits:
        result = kernel(rows, order.index(0), target, 10**6, True, 2)
    assert not splits
    assert result == reference(adj, order, target, 10**6, True)


def test_the_split_restores_this_process_cpus():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    before = os.sched_getaffinity(0)
    adj, rows, order = graph_case(40, 0.55, True, 7, False)
    with split_at_root():
        kernel(rows, order.index(0), clique_number_at_zero(adj) + 2, 10**6, False, 2)
    assert os.sched_getaffinity(0) == before


@pytest.fixture
def forks(monkeypatch):
    """A stand-in for ``os.fork`` that starts nothing: it records the call and fails."""
    calls = []

    def fork():
        calls.append(1)
        raise OSError("no process started in tests")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(spectral, "_available_cpus", lambda: 4)
    return calls


def test_threads_are_clamped_to_the_cpus(forks, capsys):
    # 10,530 nodes in canonical mode: the split path, with every fork refused
    argv = ["find-spectrum", str(INPUTS / "z2pow10_none12.set"), "--canonical", "--threads"]
    serial = run_cli(argv + ["1"], capsys)
    assert forks == []
    assert run_cli(argv + ["1000000"], capsys) == serial
    assert len(forks) == 3  # at most the CPUs less this process
    assert serial == (1, "no spectrum (exhaustive)\nnodes=10530\n")


@pytest.mark.parametrize("argv", [
    ["check-spectral", "4x4_square.set", "4x4_grid.set"],
    ["find-complement", "z2pow10_tile8.set"],
    ["diagonal-check", "P4_graph.set"],
    ["harness", "--group", "8", "--budget", "1000"],
])
def test_other_commands_start_no_process(forks, capsys, argv):
    argv = [str(INPUTS / a) if a.endswith(".set") else a for a in argv]
    run_cli(argv + ["--threads", "4"], capsys)
    assert forks == []


def test_verify_find_spectrum_ops_finish_before_the_split(forks, tmp_path, monkeypatch, capsys):
    # The benchmark's verify workload: intervals of 128 in Z_512 and Z_1024
    # (found, 128 nodes) and 129 points of Z_1024 (exhausted at the root).
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    workload = gen.make("verify", 1)
    workload.write(tmp_path)
    monkeypatch.chdir(tmp_path)
    ops = [op for op in workload.ops if op.argv[0] == "find-spectrum"]
    assert len(ops) == 3
    for op in ops:
        code, out = run_cli(list(op.argv), capsys)
        assert code in (0, 1)
        assert 0 < json.loads(out)["nodes"] < spectral._SERIAL_NODES
    assert forks == []
