"""Judge each CLI result against the verdict the mathematics predicts.

The expected verdicts live next to the inputs in ``gen.py``; they come from
these facts, not from running spectile:

* ``[0,12)^3`` tiles ``Z_24^3`` with ``{0,12}^3`` (one coordinate at a time,
  ``[0,12) + {0,12} = Z_24`` exactly once), so the pair is a tiling and, by
  the diagonal criterion, ``A x B`` is spectral; ``{0,11} x {0,12}^2`` covers
  ``x = 11`` twice and never reaches ``x = 23``. Translations change neither.
* ``[0,2)^2`` tiles the 4x4 box with ``{0,2}^2``, so every pipeline step holds.
* An interval ``[t, t+m)`` in ``Z_N`` with ``m | N`` is spectral: the
  geometric sum ``sum_{s<m} w^s`` vanishes iff ``w^m = 1`` and ``w != 1``.
* A subset of ``Z_{2^k}`` of odd size is never spectral: a vanishing sum of
  ``2^k``-th roots of unity with nonnegative coefficients pairs ``zeta^j``
  with ``zeta^(j + 2^(k-1))``, so its weight is even.
* ``{a, a+1}`` and ``{b, b+N/2}`` form a spectral pair in ``Z_N``, N even.
* The diagonal criterion holds for every candidate, so the harness reports
  no disagreement.

Witnesses are checked here with plain integer arithmetic; nothing in this
module imports spectile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations


def coverage_count(A, B, orders, g) -> int:
    """#{(a, b) in A x B : a + b = g}."""
    g = tuple(g)
    return sum(
        1
        for a in A
        for b in B
        if tuple((x + y) % n for x, y, n in zip(a, b, orders)) == g
    )


def interval_spectrum_ok(N: int, m: int, spectrum) -> bool:
    """Is ``spectrum`` a spectrum of a length-``m`` interval in ``Z_N``?"""
    lam = [h[0] % N for h in spectrum]
    if len(lam) != m or len(set(lam)) != m:
        return False
    return all((m * (a - b)) % N == 0 for a, b in combinations(lam, 2))


def cube_spectrum_ok(S, spectrum) -> bool:
    """In Z_2^n, h1 and h2 are orthogonal on S iff h1 - h2 splits S in half."""
    lam = [tuple(h) for h in spectrum]
    if len(lam) != len(S) or len(set(lam)) != len(lam):
        return False
    for h1, h2 in combinations(lam, 2):
        d = [x ^ y for x, y in zip(h1, h2)]
        odd = sum(sum(a & b for a, b in zip(d, s)) & 1 for s in S)
        if 2 * odd != len(S):
            return False
    return True


def complement_ok(A, B, orders) -> bool:
    """Does every element of the group arise exactly once as a + b?"""
    size = 1
    for n in orders:
        size *= n
    if len(A) * len(B) != size:
        return False
    sums = {tuple((x + y) % n for x, y, n in zip(a, b, orders)) for a in A for b in B}
    return len(sums) == size


def _check_witness(kind: str, params: dict, payload: dict) -> str | None:
    """A problem description, or None when the witness holds."""
    witness = payload.get("witness")
    if witness is None:  # an exhausted search has none; a found one must
        return "found without a witness" if payload.get("status") == "found" else None
    try:
        if kind == "coverage_count":
            ok = coverage_count(params["A"], params["B"], params["orders"], witness["g"]) \
                == witness["count"]
        elif kind == "interval_spectrum":
            ok = interval_spectrum_ok(params["N"], params["m"], witness)
        elif kind == "cube_spectrum":
            ok = cube_spectrum_ok(params["S"], witness)
        elif kind == "complement":
            ok = complement_ok(params["A"], witness, params["orders"])
        else:
            raise ValueError(f"unknown witness check {kind!r}")
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed witness {witness!r:.200}: {exc!r}"
    return None if ok else f"{kind} witness {witness!r:.200} fails the independent check"


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    status: str | None = None  # search status, for cross-op checks


def judge(expect: dict, code: int | None, stdout: str, error: str = "") -> Verdict:
    """Compare one CLI result (exit code and ``--json`` stdout) with ``expect``.

    ``expect`` keys: ``exit`` (an int or a list of allowed ints); ``json``
    (fields that must be equal); ``witness`` (a check name and its
    parameters); ``units`` (payload fields whose sum is the number of
    operations, for the harness) with ``units_expected`` used when the output
    is unreadable. A call with any problem fails all its operations, except
    that harness disagreements fail one operation each.
    """
    problems = [error] if error else []
    payload = None
    if not problems:
        try:
            payload = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problems.append(f"no JSON report on stdout (exit {code})")
    allowed = expect["exit"] if isinstance(expect["exit"], list) else [expect["exit"]]
    if code not in allowed:
        problems.append(f"exit code {code}, expected {' or '.join(map(str, allowed))}")
    units = expect.get("units")
    attempted = 1
    if units:
        attempted = expect["units_expected"]
        if payload is not None and all(isinstance(payload.get(k), int) for k in units):
            attempted = max(1, sum(payload[k] for k in units))
    disagreements = 0
    if payload is not None:
        for key, want in expect.get("json", {}).items():
            if payload.get(key) != want:
                if key == "disagreements" and isinstance(payload.get(key), int):
                    disagreements = payload[key]
                    continue
                problems.append(f"{key}={payload.get(key)!r}, expected {want!r}")
        if "witness" in expect and code in allowed:
            problem = _check_witness(*expect["witness"], payload)
            if problem:
                problems.append(problem)
    failed = attempted if problems else min(attempted, disagreements)
    if disagreements:
        problems.append(f"{disagreements} harness disagreements")
    status = payload.get("status") if payload is not None else None
    return Verdict(attempted, failed, problems, status)


def judge_calls(ops, results) -> Verdict:
    """Judge a run's calls, in the order made, plus the cross-op checks.

    ``results`` holds, per call, a dict with ``code``, ``stdout`` and
    ``error``. An op with ``same_status_as`` must reach the same search
    outcome (found or exhausted) as the latest call of the named op, which
    runs earlier on the same input.
    """
    total = Verdict(0, 0)
    by_label = {}
    for op, res in zip(ops, results):
        v = judge(op.expect, res["code"], res["stdout"], res["error"])
        other = op.expect.get("same_status_as")
        if other is not None and by_label[other].status != v.status:
            v.problems.append(
                f"status {v.status!r} differs from {other}: {by_label[other].status!r}"
            )
            v.failed = v.attempted
        by_label[op.label] = v
        total.attempted += v.attempted
        total.failed += v.failed
        total.problems.extend(f"{op.label}: {p}" for p in v.problems)
    return total
