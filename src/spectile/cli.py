"""Command-line surface.

Exit codes: 0 verified-true / witness found; 1 verified-false / exhausted
with proof; 2 usage, parse, or precondition error; 3 work budget exceeded;
4 two verification routes disagree (``diagonal-check``, ``product-diagonal``,
``harness``), which is a bug signal, reported on stderr as well.
Output is byte-deterministic for fixed inputs and flags; ``--canonical``
additionally pins search witnesses to the lexicographically least one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import diagonal as diag
from . import lifting, setfiles, spectral, tiling
from .groups import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    GroupSpec,
    PointSet,
    format_element,
    format_point_set,
    parse_group_spec,
)

_EXIT_TRUE = 0
_EXIT_FALSE = 1
_EXIT_USAGE = 2
_EXIT_BUDGET = 3
_EXIT_DISAGREE = 4


def _points_json(ps: PointSet) -> list[list[int]]:
    return [list(p.coords) for p in ps.points]


def _load_points(path: str, group: GroupSpec | None) -> PointSet:
    ps = setfiles.point_set_from_file(Path(path).read_text(encoding="utf-8"))
    if group is not None and ps.group != group:
        raise ValueError(
            f"{path}: file group {ps.group.spec_string()} does not match "
            f"--group {group.spec_string()}"
        )
    return ps


def _load_box(path: str, dims: GroupSpec | None) -> lifting.BoxedSet:
    bs = setfiles.boxed_set_from_file(Path(path).read_text(encoding="utf-8"))
    if dims is not None and bs.dims != dims.orders:
        raise ValueError(
            f"{path}: file box {'x'.join(map(str, bs.dims))} does not match "
            f"--box {dims.spec_string()}"
        )
    return bs


def _same_group(*sets: PointSet) -> GroupSpec:
    spec = sets[0].group
    for ps in sets[1:]:
        if ps.group != spec:
            raise ValueError(
                f"input files disagree on the group: "
                f"{spec.spec_string()} vs {ps.group.spec_string()}"
            )
    return spec


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, text_lines, json_payload)


def _cmd_check_tiling(args) -> tuple[int, list[str], dict]:
    A = _load_points(args.fileA, args.group)
    B = _load_points(args.fileB, args.group)
    spec = _same_group(A, B)
    budget = args.budget if args.budget is not None else DEFAULT_ENUM_BUDGET
    res = tiling.verify_tiling(A, B, budget=budget)
    payload = {
        "command": "check-tiling",
        "group": spec.spec_string(),
        "tiling": res.ok,
    }
    if res.ok:
        lines = [f"ok: tiling group={spec.spec_string()} |A|={len(A)} |B|={len(B)}"]
        return _EXIT_TRUE, lines, payload
    if res.kind == "coverage":
        lines = [f"fail: coverage g={format_element(res.element)} count={res.count}"]
        payload["witness"] = {"g": list(res.element.coords), "count": res.count}
    else:
        lines = [f"fail: cardinality |A|*|B|={len(A)}*{len(B)} |G|={spec.order}"]
        payload["witness"] = {"cardinality": [len(A), len(B), spec.order]}
    return _EXIT_FALSE, lines, payload


def _cmd_check_spectral(args) -> tuple[int, list[str], dict]:
    S = _load_points(args.fileS, args.group)
    lam = _load_points(args.fileL, args.group)
    spec = _same_group(S, lam)
    res = spectral.verify_spectral_pair(S, lam)
    payload = {
        "command": "check-spectral",
        "group": spec.spec_string(),
        "spectral": res.ok,
    }
    if res.ok:
        lines = [
            f"ok: spectral pair group={spec.spec_string()} |S|={len(S)} "
            f"pairs={res.checked_pairs}"
        ]
        return _EXIT_TRUE, lines, payload
    payload["failure"] = res.detail
    if res.kind == "cardinality":
        lines = [f"fail: cardinality |S|={len(S)} |spectrum|={len(lam)}"]
    else:
        h1, h2 = res.pair
        lines = [
            f"fail: pair h1={format_element(h1)} h2={format_element(h2)} "
            "not orthogonal"
        ]
    return _EXIT_FALSE, lines, payload


def _search_outcome(
    command: str,
    spec: GroupSpec,
    res,
    witness_of,
    found_word: str,
    none_text: str,
) -> tuple[int, list[str], dict]:
    payload = {"command": command, "group": spec.spec_string(), "status": res.status,
               "nodes": res.nodes}
    if res.status == "found":
        ws = witness_of(res.certificate)
        payload["witness"] = _points_json(ws)
        return _EXIT_TRUE, [f"{found_word} {format_point_set(ws)}", f"nodes={res.nodes}"], payload
    if res.status == "exhausted":
        return _EXIT_FALSE, [none_text, f"nodes={res.nodes}"], payload
    payload["detail"] = res.detail
    lines = ["budget exceeded (search incomplete)"]
    if res.detail:
        lines.append(res.detail)
    lines.append(f"nodes={res.nodes}")
    return _EXIT_BUDGET, lines, payload


def _cmd_find_spectrum(args) -> tuple[int, list[str], dict]:
    S = _load_points(args.fileS, args.group)
    budget = args.budget if args.budget is not None else spectral.DEFAULT_SEARCH_NODES
    res = spectral.find_spectrum(S, budget=budget, canonical=args.canonical)
    return _search_outcome(
        "find-spectrum",
        S.group,
        res,
        lambda cert: cert.spectrum,
        "spectrum",
        "no spectrum (exhaustive)",
    )


def _cmd_find_complement(args) -> tuple[int, list[str], dict]:
    A = _load_points(args.fileA, args.group)
    budget = args.budget if args.budget is not None else spectral.DEFAULT_SEARCH_NODES
    res = tiling.find_complement(A, budget=budget, canonical=args.canonical)
    return _search_outcome(
        "find-complement",
        A.group,
        res,
        lambda cert: cert.complement,
        "complement",
        "no complement (exhaustive)",
    )


def _cmd_diagonal_check(args) -> tuple[int, list[str], dict]:
    P = setfiles.point_set_from_file(Path(args.fileP).read_text(encoding="utf-8"))
    if args.group is not None:
        if P.group.orders != args.group.orders + args.group.orders:
            raise ValueError(
                f"{args.fileP}: file group {P.group.spec_string()} is not "
                f"--group {args.group.spec_string()} squared"
            )
    pair_budget = args.budget if args.budget is not None else diag.DEFAULT_PAIR_OPS
    res = diag.check_diagonal_spectral(P, pair_budget=pair_budget)
    payload = {
        "command": "diagonal-check",
        "group": P.group.spec_string(),
        "spectral": res.spectral,
        "multiset": res.multiset,
        "agree": res.agree,
        "shortcut": res.shortcut,
    }
    if res.shortcut:
        lines = [
            f"spectral=skipped multiset={_yesno(res.multiset)} agree=unknown "
            "(theorem-shortcut)",
            f"note: {res.spectral_detail}",
        ]
        code = _EXIT_TRUE if res.multiset else _EXIT_FALSE
        return code, lines, payload
    lines = [
        f"spectral={_yesno(res.spectral)} multiset={_yesno(res.multiset)} "
        f"agree={_yesno(res.agree)}"
    ]
    if not res.agree:
        return _EXIT_DISAGREE, lines, payload
    return (_EXIT_TRUE if res.multiset else _EXIT_FALSE), lines, payload


def _cmd_product_diagonal(args) -> tuple[int, list[str], dict]:
    A = _load_points(args.fileA, args.group)
    B = _load_points(args.fileB, args.group)
    spec = _same_group(A, B)
    res = diag.product_with_diagonal(A, B)
    lines = [
        f"tiling={_yesno(res.tiling_ok)} product-spectral={_yesno(res.spectral_ok)} "
        f"agree={_yesno(res.agree)}"
    ]
    payload = {
        "command": "product-diagonal",
        "group": spec.spec_string(),
        "tiling": res.tiling_ok,
        "product_spectral": res.spectral_ok,
        "agree": res.agree,
    }
    if not res.agree:
        return _EXIT_DISAGREE, lines, payload
    return (_EXIT_TRUE if res.tiling_ok else _EXIT_FALSE), lines, payload


def _cmd_harness(args) -> tuple[int, list[str], dict]:
    if args.group is None:
        raise ValueError("harness requires --group")
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads}")
    budget = args.budget if args.budget is not None else diag.DEFAULT_HARNESS_BUDGET
    report = diag.run_agreement_harness(args.group, budget=budget, seed=args.seed)
    payload = {
        "command": "harness",
        "group": report.spec.spec_string(),
        "mode": report.mode,
        "checked": report.checked,
        "splits": report.splits,
        "split_mode": report.split_mode,
        "disagreements": report.disagreements,
        "lines": list(report.lines),
        "seed": report.seed,
    }
    code = _EXIT_TRUE if report.disagreements == 0 else _EXIT_DISAGREE
    return code, report.render().splitlines(), payload


def _cmd_pipeline(args) -> tuple[int, list[str], dict]:
    A = _load_box(args.fileA, args.box)
    B = _load_box(args.fileB, args.box)
    budget = args.budget if args.budget is not None else DEFAULT_ENUM_BUDGET
    report = lifting.tiling_product_pipeline(
        A, B, args.k, max_k=args.max_k, enum_budget=budget
    )
    payload = {
        "command": "pipeline",
        "box": "x".join(str(n) for n in report.dims),
        "k": report.k,
        "quotient_moduli": list(report.moduli),
        "steps": [
            {"name": s.name, "status": s.status, "detail": s.detail}
            for s in report.steps
        ],
        "all_pass": report.all_pass,
    }
    code = _EXIT_TRUE if report.all_pass else _EXIT_FALSE
    return code, report.render().splitlines(), payload


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectile",
        description=(
            "Exact verification and search for spectral sets and translational "
            "tiles in finite abelian groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, box: bool = False) -> None:
        if box:
            p.add_argument("--box", type=parse_group_spec, default=None,
                           help="base box dims, e.g. 24^3 (must match file headers)")
        else:
            p.add_argument("--group", type=parse_group_spec, default=None,
                           help="group spec, e.g. 24^3 (must match file headers)")
        p.add_argument("--budget", type=setfiles.ascii_int, default=None,
                       help="work budget (meaning depends on the command)")
        p.add_argument("--seed", type=setfiles.ascii_int, default=0,
                       help="seed for any randomized sampling (default 0)")
        p.add_argument("--threads", type=setfiles.ascii_int, default=1,
                       help="selects nothing; harness requires at least 1 (default 1)")
        p.add_argument("--canonical", action="store_true",
                       help="force the lexicographically least search witness")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")

    p = sub.add_parser("check-tiling", help="verify that A tiles the group with B")
    p.add_argument("fileA")
    p.add_argument("fileB")
    common(p)
    p.set_defaults(handler=_cmd_check_tiling)

    p = sub.add_parser("check-spectral", help="verify a (set, spectrum) pair")
    p.add_argument("fileS")
    p.add_argument("fileL")
    common(p)
    p.set_defaults(handler=_cmd_check_spectral)

    p = sub.add_parser("find-spectrum", help="search for a spectrum of S")
    p.add_argument("fileS")
    common(p)
    p.set_defaults(handler=_cmd_find_spectrum)

    p = sub.add_parser("find-complement", help="search for a tiling complement of A")
    p.add_argument("fileA")
    common(p)
    p.set_defaults(handler=_cmd_find_complement)

    p = sub.add_parser(
        "diagonal-check",
        help="check P in GxG against the diagonal spectrum, both routes",
    )
    p.add_argument("fileP")
    common(p)
    p.set_defaults(handler=_cmd_diagonal_check)

    p = sub.add_parser(
        "product-diagonal",
        help="compare tiling of (A,B) with diagonal spectrality of AxB",
    )
    p.add_argument("fileA")
    p.add_argument("fileB")
    common(p)
    p.set_defaults(handler=_cmd_product_diagonal)

    p = sub.add_parser("harness", help="agreement sweep over candidates and splits")
    common(p)
    p.set_defaults(handler=_cmd_harness)

    p = sub.add_parser("pipeline", help="tiling -> lifted spectrum chain on box sets")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--k", type=setfiles.ascii_int, required=True, help="lift factor")
    p.add_argument("--max-k", type=setfiles.ascii_int, default=lifting.DEFAULT_MAX_LIFT,
                   help="cap on the lift factor (default 4)")
    common(p, box=True)
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 0:
        print(f"error: --budget must be nonnegative, got {args.budget}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        code, lines, payload = args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    if args.json:
        payload["exit_code"] = code
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    if code == _EXIT_DISAGREE:
        print("disagreement: the verification routes differ; see the report", file=sys.stderr)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
