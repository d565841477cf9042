from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from conftest import run_cli


@pytest.fixture
def files(tmp_path):
    def write(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return {
        "S01": write("S01.set", "group 4\n0\n1\n"),
        "L02": write("L02.set", "group 4\n0\n2\n"),
        "S012": write("S012.set", "group 4\n0\n1\n2\n"),
        "A02": write("A02.set", "group 4\n0\n2\n"),
        "P_graph": write("P_graph.set", "group 4x4\n0,0\n1,0\n2,0\n3,0\n"),
        "P_diag": write("P_diag.set", "group 4x4\n0,0\n1,1\n2,2\n3,3\n"),
        "boxA": write("boxA.set", "box 4\n0\n1\n"),
        "boxB": write("boxB.set", "box 4\n0\n2\n"),
        "boxBad": write("boxBad.set", "box 4\n0\n2\n3\n"),
        "dup": write("dup.set", "group 4\n1\n5\n"),
    }


def test_check_tiling_ok(files, capsys):
    code, out = run_cli(["check-tiling", files["S01"], files["L02"]], capsys)
    assert code == 0
    assert out == "ok: tiling group=4 |A|=2 |B|=2\n"


def test_check_tiling_failure_names_witness(files, capsys):
    code, out = run_cli(["check-tiling", files["A02"], files["A02"]], capsys)
    assert code == 1
    assert "g=1 count=0" in out


def test_check_tiling_cardinality(files, capsys):
    code, out = run_cli(["check-tiling", files["S012"], files["L02"]], capsys)
    assert code == 1
    assert "cardinality" in out


def test_check_tiling_group_flag_mismatch(files, capsys):
    code, _ = run_cli(
        ["check-tiling", files["S01"], files["L02"], "--group", "8"], capsys
    )
    assert code == 2


def test_check_tiling_missing_file(files, capsys):
    code, _ = run_cli(["check-tiling", files["S01"], "/nonexistent.set"], capsys)
    assert code == 2


def test_check_tiling_duplicate_points_rejected(files, capsys):
    code, _ = run_cli(["check-tiling", files["dup"], files["L02"]], capsys)
    assert code == 2


def test_check_spectral_ok(files, capsys):
    code, out = run_cli(["check-spectral", files["S01"], files["L02"]], capsys)
    assert code == 0
    assert "ok: spectral pair" in out


def test_check_spectral_cardinality_mismatch_is_exit_1(files, capsys):
    code, out = run_cli(["check-spectral", files["S012"], files["L02"]], capsys)
    assert code == 1
    assert "cardinality" in out


def test_check_spectral_bad_pair(files, capsys):
    code, out = run_cli(["check-spectral", files["S01"], files["S01"]], capsys)
    assert code == 1
    assert "not orthogonal" in out


def test_find_spectrum_found(files, capsys):
    code, out = run_cli(["find-spectrum", files["S01"]], capsys)
    assert code == 0
    assert out.splitlines()[0] == "spectrum {0,2}"


def test_find_spectrum_exhaustive_none(files, capsys):
    code, out = run_cli(["find-spectrum", files["S012"]], capsys)
    assert code == 1
    assert out.splitlines()[0] == "no spectrum (exhaustive)"


def test_find_spectrum_budget_exit_3(files, capsys):
    # S012 exhausts trivially even at budget 1 (empty orthogonality graph), so
    # a branching instance is needed to hit the node budget
    code, out = run_cli(["find-spectrum", files["S01"], "--budget", "1"], capsys)
    assert code == 3
    assert "budget exceeded" in out
    code, out = run_cli(["find-spectrum", files["S012"], "--budget", "1"], capsys)
    assert code == 1
    assert "no spectrum (exhaustive)" in out


def test_find_complement_found(files, capsys):
    code, out = run_cli(["find-complement", files["S01"]], capsys)
    assert code == 0
    assert out.splitlines()[0] == "complement {0,2}"


def test_find_complement_divisibility_is_usage_error(files, capsys):
    code, _ = run_cli(["find-complement", files["S012"]], capsys)
    assert code == 2


def test_diagonal_check_graph(files, capsys):
    code, out = run_cli(["diagonal-check", files["P_graph"]], capsys)
    assert code == 0
    assert out.splitlines()[0] == "spectral=yes multiset=yes agree=yes"


def test_diagonal_check_diagonal_is_not_spectral(files, capsys):
    code, out = run_cli(["diagonal-check", files["P_diag"]], capsys)
    assert code == 1
    assert out.splitlines()[0] == "spectral=no multiset=no agree=yes"


def test_diagonal_check_group_flag(files, capsys):
    code, _ = run_cli(["diagonal-check", files["P_graph"], "--group", "4"], capsys)
    assert code == 0
    code, _ = run_cli(["diagonal-check", files["P_graph"], "--group", "8"], capsys)
    assert code == 2


def test_diagonal_check_shortcut(files, capsys):
    code, out = run_cli(["diagonal-check", files["P_graph"], "--budget", "1"], capsys)
    assert code == 0
    assert "theorem-shortcut" in out


def test_product_diagonal_yes(files, capsys):
    code, out = run_cli(["product-diagonal", files["S01"], files["L02"]], capsys)
    assert code == 0
    assert out == "tiling=yes product-spectral=yes agree=yes\n"


def test_product_diagonal_no(files, capsys):
    code, out = run_cli(["product-diagonal", files["A02"], files["A02"]], capsys)
    assert code == 1
    assert out == "tiling=no product-spectral=no agree=yes\n"


def test_harness_summary(files, capsys):
    code, out = run_cli(["harness", "--group", "4"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "checked=1820 disagreements=0"


def test_harness_requires_group(files, capsys):
    code, _ = run_cli(["harness"], capsys)
    assert code == 2


def test_pipeline_pass(files, capsys):
    code, out = run_cli(["pipeline", files["boxA"], files["boxB"], "--k", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("pipeline box=4 k=2 quotient-moduli=8x8")
    assert sum(1 for l in lines if "status=pass" in l) == 4


def test_pipeline_fail_stops(files, capsys):
    code, out = run_cli(["pipeline", files["boxB"], files["boxB"], "--k", "2"], capsys)
    assert code == 1
    assert "step=tiling status=fail" in out
    assert "status=skipped" in out


def test_pipeline_volume_mismatch(files, capsys):
    code, _ = run_cli(["pipeline", files["boxA"], files["boxBad"], "--k", "2"], capsys)
    assert code == 2


def test_pipeline_box_flag_mismatch(files, capsys):
    code, _ = run_cli(
        ["pipeline", files["boxA"], files["boxB"], "--k", "2", "--box", "5"], capsys
    )
    assert code == 2


def test_harness_threads_flag_matches_serial(files, capsys):
    parallel = run_cli(
        ["harness", "--group", "3", "--budget", "100", "--threads", "2"], capsys
    )
    serial = run_cli(["harness", "--group", "3", "--budget", "100"], capsys)
    assert parallel == serial


def test_harness_starts_no_process(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the harness started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    # More CPUs than threads, so that a pool sized by the CPU count would start.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["harness", "--group", "8", "--budget", "1000", "--seed", "2", "--threads"]
    two = run_cli(argv + ["2"], capsys)
    assert two[0] == 0
    assert two == run_cli(argv + ["1"], capsys)


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_harness_threads_below_one_is_usage_error(files, capsys, threads):
    code, out = run_cli(["harness", "--group", "2", "--threads", threads], capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["check-tiling", "S01", "L02"],
    ["check-spectral", "S01", "L02"],
    ["find-spectrum", "S01"],
    ["find-complement", "S01"],
    ["diagonal-check", "P_graph"],
    ["product-diagonal", "S01", "L02"],
    ["harness", "--group", "6"],
    ["pipeline", "boxA", "boxB", "--k", "2"],
], ids=lambda argv: argv[0])
def test_negative_budget_is_usage_error(files, capsys, argv):
    # Before, harness checked nothing and passed, and check-tiling reported
    # a budget outcome (exit 3).
    from spectile.cli import main

    code = main([files.get(a, a) for a in argv] + ["--budget", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --budget must be nonnegative, got -1\n"
    assert main([files.get(a, a) for a in argv] + ["--budget", "0"]) != 2


@pytest.mark.parametrize("argv", [
    ["check-tiling", "S01", "L02"],
    ["check-spectral", "S01", "L02"],
    ["find-spectrum", "S01"],
    ["find-complement", "S01"],
    ["diagonal-check", "P_graph"],
    ["product-diagonal", "S01", "L02"],
    ["harness", "--group", "6"],
    ["pipeline", "boxA", "boxB", "--k", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_is_usage_error(files, capsys, argv, threads):
    # Before, only harness checked it: check-tiling with --threads -5
    # printed its verdict and exited 0.
    from spectile.cli import main

    code = main([files.get(a, a) for a in argv] + ["--threads", threads])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --threads must be at least 1, got {threads}\n"
    assert main([files.get(a, a) for a in argv] + ["--threads", "1"]) != 2


def test_zero_harness_budget_is_budget_outcome(capsys):
    # Before, a budget of 0 sampled nothing and passed with checked=0.
    from spectile.cli import main

    code = main(["harness", "--group", "6", "--budget", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "budget exceeded: harness budget 0 checks no candidate and no split\n"


def test_pipeline_4x4_k3(tmp_path, capsys):
    a = tmp_path / "A.set"
    b = tmp_path / "B.set"
    a.write_text("box 4x4\n0,0\n0,1\n1,0\n1,1\n", encoding="utf-8")
    b.write_text("box 4x4\n0,0\n0,2\n2,0\n2,2\n", encoding="utf-8")
    code, out = run_cli(["pipeline", str(a), str(b), "--k", "3"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == (
        "step=lifted-spectrum status=pass detail=|set|=1296 pairs-checked=839160"
    )


def test_pipeline_4x4_k4(tmp_path, capsys):
    # 4096 points: 8,386,560 pairs over 25,599 distinct differences
    a = tmp_path / "A.set"
    b = tmp_path / "B.set"
    a.write_text("box 4x4\n0,0\n0,1\n1,0\n1,1\n", encoding="utf-8")
    b.write_text("box 4x4\n0,0\n0,2\n2,0\n2,2\n", encoding="utf-8")
    code, out = run_cli(["pipeline", str(a), str(b), "--k", "4"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == (
        "step=lifted-spectrum status=pass detail=|set|=4096 pairs-checked=8386560"
    )


def test_json_mirrors_text_verdicts(files, capsys):
    code, out = run_cli(["find-spectrum", files["S01"], "--json"], capsys)
    payload = json.loads(out)
    assert payload["exit_code"] == code == 0
    assert payload["status"] == "found"
    assert payload["witness"] == [[0], [2]]

    code, out = run_cli(["check-tiling", files["A02"], files["A02"], "--json"], capsys)
    payload = json.loads(out)
    assert payload["exit_code"] == code == 1
    assert payload["witness"] == {"g": [1], "count": 0}

    code, out = run_cli(["harness", "--group", "2", "--json"], capsys)
    payload = json.loads(out)
    assert payload["checked"] == 6 and payload["disagreements"] == 0

    code, out = run_cli(
        ["pipeline", files["boxA"], files["boxB"], "--k", "2", "--json"], capsys
    )
    payload = json.loads(out)
    assert payload["all_pass"] is True


def test_output_is_deterministic(files, capsys):
    first = run_cli(["harness", "--group", "2x2", "--budget", "300", "--seed", "5"], capsys)
    second = run_cli(["harness", "--group", "2x2", "--budget", "300", "--seed", "5"], capsys)
    assert first == second


def test_canonical_spectrum_witness(files, capsys, tmp_path):
    p = tmp_path / "S0145.set"
    p.write_text("group 8\n0\n1\n4\n5\n", encoding="utf-8")
    code, out = run_cli(["find-spectrum", str(p), "--canonical"], capsys)
    assert code == 0
    # lex-least spectrum, confirmed by the brute-force sweep in test_spectral
    assert out.splitlines()[0] == "spectrum {0,1,4,5}"


def test_unknown_command_exits_2(files, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"], capsys)
    assert exc.value.code == 2


_COMMAND_NAMES = [
    "check-tiling", "check-spectral", "find-spectrum", "find-complement",
    "diagonal-check", "product-diagonal", "harness", "pipeline",
]


def _exit_and_output(parse, capsys) -> tuple[object, str, str]:
    with pytest.raises(SystemExit) as exc:
        parse()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", _COMMAND_NAMES)
@pytest.mark.parametrize(
    "rest",
    [["--help"], ["--budget"], ["-h", "x"], ["a", "b", "c", "--no-such"]],
    ids=["help", "missing-value", "help-first", "unrecognized"],
)
def test_a_named_command_parses_as_its_subparser_does(capsys, monkeypatch, name, rest):
    # main builds only the named command's parser; help, usage and error text
    # must be those of the full parser's subparser, also through sys.argv.
    from spectile.cli import build_parser, main

    argv = [name, *rest]
    full = _exit_and_output(lambda: build_parser().parse_args(argv), capsys)
    assert full[0] == (0 if "-h" in rest or "--help" in rest else 2)
    assert full[1] or full[2]
    assert _exit_and_output(lambda: main(argv), capsys) == full
    monkeypatch.setattr("sys.argv", ["spectile", *argv])
    assert _exit_and_output(lambda: main(None), capsys) == full


@pytest.mark.parametrize("name", [n for n in _COMMAND_NAMES if n != "harness"])
def test_a_named_command_reports_missing_arguments_as_its_subparser_does(capsys, name):
    from spectile.cli import build_parser, main

    full = _exit_and_output(lambda: build_parser().parse_args([name]), capsys)
    assert full[0] == 2 and "the following arguments are required" in full[2]
    assert _exit_and_output(lambda: main([name]), capsys) == full


@pytest.mark.parametrize("argv", [[], ["--help"], ["frobnicate"], ["--json", "harness"]])
def test_without_a_command_main_uses_the_full_parser(capsys, monkeypatch, argv):
    from spectile.cli import build_parser, main

    full = _exit_and_output(lambda: build_parser().parse_args(argv), capsys)
    assert _exit_and_output(lambda: main(argv), capsys) == full
    monkeypatch.setattr("sys.argv", ["spectile", *argv])
    assert _exit_and_output(lambda: main(None), capsys) == full


_INT_FLAGS = [
    ["harness", "--group", "2", "--budget"],
    ["harness", "--group", "2", "--seed"],
    ["harness", "--group", "2", "--threads"],
    ["pipeline", "A.box", "B.box", "--k"],
    ["pipeline", "A.box", "B.box", "--k", "2", "--max-k"],
]


@pytest.mark.parametrize("prefix", _INT_FLAGS, ids=lambda argv: argv[-1])
@pytest.mark.parametrize("bad", ["1_0", "١٢", "１２", "1 "])
def test_integer_flags_take_only_ascii_digits(capsys, prefix, bad):
    # int() would take each of these: "1_0", Arabic-Indic and fullwidth
    # digits, and a trailing space.
    with pytest.raises(SystemExit) as exc:
        run_cli([*prefix, bad], capsys)
    assert exc.value.code == 2
    assert "invalid ascii_int value" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--budget", "+300"), ("--seed", "007")])
def test_integer_flags_take_a_sign_and_leading_zeros(capsys, flag, value):
    code, out = run_cli(["harness", "--group", "2", flag, value], capsys)
    plain = run_cli(["harness", "--group", "2", flag, str(int(value))], capsys)
    assert (code, out) == plain


def test_ascii_int_rejects_what_int_accepts():
    from spectile.setfiles import ascii_int

    assert ascii_int("-12") == -12
    for text in ("1_000", "١", " 3", "3\n"):
        int(text)  # accepted by int()
        with pytest.raises(ValueError, match="ASCII digits"):
            ascii_int(text)


@pytest.fixture
def flipped_route(monkeypatch):
    """Make one route of each command report the opposite verdict.

    The multiset route of diagonal-check and of the harness's batches, and
    the factorised Fourier route that product-diagonal compares with tiling.
    """
    import dataclasses

    from spectile import diagonal

    real = diagonal.sum_multiset_check
    real_batch = diagonal._multiset_verdicts
    real_product = diagonal._product_spectral

    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, ok=not report.ok)

    monkeypatch.setattr(diagonal, "sum_multiset_check", flipped)
    monkeypatch.setattr(diagonal, "_multiset_verdicts",
                        lambda *args: [~v for v in real_batch(*args)])
    monkeypatch.setattr(diagonal, "_product_spectral", lambda A, B: not real_product(A, B))


def run_cli_code(argv: list[str]) -> int:
    from spectile.cli import main

    return main(argv)


@pytest.mark.parametrize(
    "argv, report",
    [
        (["diagonal-check", "P_graph"], "agree=no"),
        (["product-diagonal", "S01", "L02"], "agree=no"),
        (["harness", "--group", "2"], "disagree kind="),
    ],
    ids=["diagonal-check", "product-diagonal", "harness"],
)
def test_route_disagreement_exits_4(files, capsys, flipped_route, argv, report):
    code = run_cli_code([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 4
    assert report in captured.out
    assert captured.err.startswith("disagreement: ")


def test_product_diagonal_routes_read_separate_tables(files, capsys, monkeypatch):
    # A count table that loses one count fails the tiling of {0,1} and {0,2}
    # in Z_4. The product-spectral verdict comes from the zero sets, not from
    # that table, so the two routes disagree.
    import numpy as np

    from spectile import diagonal, tiling

    real = tiling._row_counts

    def dropped(cells, n):
        table = real(cells, n)
        table.flat[np.flatnonzero(table)[-1]] -= 1
        return table

    monkeypatch.setattr(tiling, "_row_counts", dropped)
    monkeypatch.setattr(diagonal, "_row_counts", dropped)
    code = run_cli_code(["product-diagonal", files["S01"], files["L02"]])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "tiling=no product-spectral=yes agree=no\n"
    assert captured.err.startswith("disagreement: ")


def _two_point_case(tmp_path, L: int) -> list[str]:
    S = tmp_path / "S.set"
    S.write_text(f"group {L}\n0\n{L // 2}\n", encoding="utf-8")
    spectrum = tmp_path / "L.set"
    spectrum.write_text(f"group {L}\n0\n1\n", encoding="utf-8")
    return ["check-spectral", str(S), str(spectrum)]


def test_zero_test_cost_bound_accepts_z30030_and_refuses_z20000003(tmp_path, capsys):
    from spectile.cyclotomic import MAX_KERNEL_COST

    code, out = run_cli(_two_point_case(tmp_path, 30030), capsys)
    assert code == 0
    assert out == "ok: spectral pair group=30030 |S|=2 pairs=1\n"
    # beyond the bound on L alone: refused before any length-L histogram
    code = run_cli_code(_two_point_case(tmp_path, 20000003))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert str(MAX_KERNEL_COST) in captured.err


def test_product_diagonal_tiling_pair_in_z30030(tmp_path, capsys):
    A = tmp_path / "A.set"
    A.write_text("group 30030\n0\n15015\n", encoding="utf-8")
    B = tmp_path / "B.set"
    B.write_text("group 30030\n" + "".join(f"{x}\n" for x in range(15015)), encoding="utf-8")
    code, out = run_cli(["product-diagonal", str(A), str(B)], capsys)
    assert code == 0
    assert out == "tiling=yes product-spectral=yes agree=yes\n"


def test_zero_test_cost_bound_accepts_z13860(tmp_path, capsys):
    code, out = run_cli(_two_point_case(tmp_path, 13860), capsys)
    assert code == 0
    assert out == "ok: spectral pair group=13860 |S|=2 pairs=1\n"
