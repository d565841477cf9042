"""Seeded inputs for the spectile benchmark.

A workload is a set of files plus a list of operations. Each operation is one
argv for ``spectile.cli.main`` and the verdict the mathematics predicts for
it (see ``verdicts.py``). The same workload name and seed always give
byte-identical files. Nothing here imports spectile: the program receives
only these files and argv.

Operations come in four groups, each built around the layer it loads most.
The two workloads merge them by the layer they load: ``verify`` holds every
group whose time goes to character sums, zero tests and pairwise
verification, ``search`` the one whose time goes to the clique search. Each
planned kernel change then has a workload that runs it and one that
bypasses it. Two workloads rather than four give each timed run twice the
time within the same total. On a shared 2-vCPU VM the CPU speed drifts by
about 20% over tens of seconds, and a longer run averages more of it out.
"""

from __future__ import annotations

import dataclasses
import random
from math import comb
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = {
    "verify": ("verify-lifted", "search-cyclic", "harness-sweep"),
    "search": ("search-cube",),
}

# Fixed pool for search-cube. Each seed maps every pool set through its own
# random affine automorphism of Z_2^n (invertible GF(2) matrix plus a
# translation). Such a map is an isomorphism of the orthogonality graph, so
# every seed poses the same search problems under a new labelling. Fresh
# random 20-point sets make the node count swing by 3x from seed to seed
# (measured: 364 to 10.7k nodes), which would swamp any change in the code.
_CUBE_POOL_SEED = "spectile-bench-cube-pool"
CUBE_SPECTRUM_SETS = 3  # 20-point subsets of Z_2^12, default find-spectrum
CUBE_COMPLEMENT_SETS = 4  # 8-point subsets of Z_2^10, default find-complement


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` names files inside the work directory."""

    label: str
    argv: tuple[str, ...]
    expect: dict = field(hash=False)
    group: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict = field(hash=False)  # file name -> text
    ops: tuple[Op, ...] = ()

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")


def set_file(header: str, points, rng: random.Random) -> str:
    """A set file with the points in seeded order (the parser sorts them)."""
    lines = [",".join(map(str, p)) for p in points]
    rng.shuffle(lines)
    return "\n".join([header, *lines]) + "\n"


def translate(points, t, orders):
    return [tuple((x + y) % n for x, y, n in zip(p, t, orders)) for p in points]


def bits(value: int, n: int) -> tuple[int, ...]:
    """Coordinates of ``value`` in Z_2^n, most significant bit first."""
    return tuple((value >> (n - 1 - i)) & 1 for i in range(n))


def _gf2_rank(rows: list[int], n: int) -> int:
    rows = list(rows)
    rank = 0
    for bit in range(n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i] >> bit & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def affine_image(values: list[int], n: int, rng: random.Random) -> list[int]:
    """``M x + t`` for a seeded invertible GF(2) matrix M and translation t."""
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if _gf2_rank(rows, n) == n:
            break
    t = rng.getrandbits(n)
    out = []
    for x in values:
        y = 0
        for i, row in enumerate(rows):
            y |= (bin(row & x).count("1") & 1) << i
        out.append(y ^ t)
    return out


def _verify_lifted(rng: random.Random) -> Workload:
    g = (24, 24, 24)
    cube = [(x, y, z) for x in range(12) for y in range(12) for z in range(12)]
    corners = [(x, y, z) for x in (0, 12) for y in (0, 12) for z in (0, 12)]
    # {0,11} x {0,12}^2: x-sums double up at 11 and never reach 23.
    bad = [(x, y, z) for x in (0, 11) for y in (0, 12) for z in (0, 12)]
    t = tuple(rng.randrange(24) for _ in g)
    u = tuple(rng.randrange(24) for _ in g)
    A = translate(cube, t, g)
    B = translate(corners, u, g)
    Bbad = translate(bad, u, g)
    hole = [(23 + t[0] + u[0]) % 24, 0, 0]  # first uncovered element, lex order
    files = {
        "A.box": set_file("box 4x4", [(x, y) for x in range(2) for y in range(2)], rng),
        "B.box": set_file("box 4x4", [(x, y) for x in (0, 2) for y in (0, 2)], rng),
        "A24.set": set_file("group 24x24x24", A, rng),
        "B24.set": set_file("group 24x24x24", B, rng),
        "Bbad24.set": set_file("group 24x24x24", Bbad, rng),
    }
    ops = (
        Op("pipeline-4x4-k2", ("pipeline", "A.box", "B.box", "--k", "2", "--json"),
           {"exit": 0, "json": {"all_pass": True, "k": 2, "quotient_moduli": [8, 8, 8, 8]}}),
        Op("product-diagonal-24^3", ("product-diagonal", "A24.set", "B24.set", "--json"),
           {"exit": 0, "json": {"tiling": True, "product_spectral": True, "agree": True}}),
        Op("check-tiling-24^3", ("check-tiling", "A24.set", "B24.set", "--json"),
           {"exit": 0, "json": {"tiling": True}}),
        Op("check-tiling-24^3-overlap", ("check-tiling", "A24.set", "Bbad24.set", "--json"),
           {"exit": 1, "json": {"tiling": False, "witness": {"g": hole, "count": 0}},
            "witness": ("coverage_count", {"A": A, "B": Bbad, "orders": g})}),
    )
    return Workload("verify-lifted", files, ops)


def _search_cyclic(rng: random.Random) -> Workload:
    files, ops = {}, []
    for N in (512, 1024):
        t = rng.randrange(N)
        name = f"interval{N}.set"
        files[name] = set_file(f"group {N}", [((t + i) % N,) for i in range(128)], rng)
        ops.append(Op(f"find-spectrum-interval-Z{N}", ("find-spectrum", name, "--json"),
                      {"exit": 0, "json": {"status": "found"},
                       "witness": ("interval_spectrum", {"N": N, "m": 128})}))
    odd = rng.sample(range(1024), 129)
    files["odd1024.set"] = set_file("group 1024", [(x,) for x in odd], rng)
    ops.append(Op("find-spectrum-odd-Z1024", ("find-spectrum", "odd1024.set", "--json"),
                  {"exit": 1, "json": {"status": "exhausted"}}))
    for N in (2520, 5040):
        a, b = rng.randrange(N), rng.randrange(N)
        files[f"two{N}.set"] = set_file(f"group {N}", [(a,), ((a + 1) % N,)], rng)
        files[f"half{N}.set"] = set_file(f"group {N}", [(b,), ((b + N // 2) % N,)], rng)
        ops.append(Op(f"check-spectral-two-point-Z{N}",
                      ("check-spectral", f"two{N}.set", f"half{N}.set", "--json"),
                      {"exit": 0, "json": {"spectral": True}}))
    return Workload("search-cyclic", files, tuple(ops))


def _search_cube(rng: random.Random) -> Workload:
    pool = random.Random(_CUBE_POOL_SEED)
    spectrum_pool = [pool.sample(range(1 << 12), 20) for _ in range(CUBE_SPECTRUM_SETS)]
    complement_pool = [pool.sample(range(1 << 10), 8) for _ in range(CUBE_COMPLEMENT_SETS)]
    files, ops, cube_sets = {}, [], []
    for i, base in enumerate(spectrum_pool):
        pts = [bits(v, 12) for v in affine_image(base, 12, rng)]
        cube_sets.append(pts)
        name = f"cube{i}.set"
        files[name] = set_file("group 2^12", pts, rng)
        ops.append(Op(f"find-spectrum-cube{i}", ("find-spectrum", name, "--json"),
                      {"exit": [0, 1], "witness": ("cube_spectrum", {"S": pts})}))
    ops.append(Op("find-spectrum-cube0-canonical",
                  ("find-spectrum", "cube0.set", "--canonical", "--json"),
                  {"exit": [0, 1], "same_status_as": "find-spectrum-cube0",
                   "witness": ("cube_spectrum", {"S": cube_sets[0]})}))
    for j, base in enumerate(complement_pool):
        pts = [bits(v, 10) for v in affine_image(base, 10, rng)]
        name = f"tile{j}.set"
        files[name] = set_file("group 2^10", pts, rng)
        ops.append(Op(f"find-complement-tile{j}", ("find-complement", name, "--json"),
                      {"exit": [0, 1],
                       "witness": ("complement", {"A": pts, "orders": (2,) * 10})}))
    return Workload("search-cube", files, tuple(ops))


def harness_splits(n: int) -> int:
    """Number of (A, B) subset pairs of Z_n with |A| |B| = n."""
    return sum(comb(n, a) * comb(n, n // a) for a in range(1, n + 1) if n % a == 0)


def _harness_sweep(rng: random.Random) -> Workload:
    ops = []
    # (group, candidate samples): C(36,6) and C(64,8) exceed the budgets, so
    # candidates are sampled; the split spaces (612, 3936) are exhaustive.
    for n, budget in ((6, 100_000), (8, 30_000)):
        argv = ("harness", "--group", str(n), "--budget", str(budget), "--threads", "1",
                "--seed", str(rng.randrange(1 << 31)), "--json")
        ops.append(Op(f"harness-Z{n}", argv,
                      {"exit": 0, "units": ("checked", "splits"),
                       "units_expected": budget + harness_splits(n),
                       "json": {"disagreements": 0, "checked": budget, "mode": "sampled",
                                "splits": harness_splits(n), "split_mode": "exhaustive"}}))
    return Workload("harness-sweep", {}, tuple(ops))


_GROUP_MAKERS = {
    "verify-lifted": _verify_lifted,
    "search-cyclic": _search_cyclic,
    "search-cube": _search_cube,
    "harness-sweep": _harness_sweep,
}


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``.

    Each group draws from its own stream, so a group's inputs do not depend
    on which workload holds it. Every op is tagged with its group.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    files, ops = {}, []
    for group in WORKLOADS[name]:
        part = _GROUP_MAKERS[group](random.Random(f"{group}:{seed}"))
        assert not files.keys() & part.files.keys(), "groups must not share file names"
        files.update(part.files)
        ops.extend(dataclasses.replace(op, group=group) for op in part.ops)
    return Workload(name, files, tuple(ops))
