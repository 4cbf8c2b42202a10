"""Command-line behavior: output formats, exit codes, error stream discipline."""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orderword import Anomaly, cli, verify
from orderword.verify import enumerate_cyclically_reduced
from orderword.words import is_periodic, parse_word, uniquely_positioned
from orderword.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- series

def test_series_golden(capsys):
    code, out, err = run(capsys, "series", "aB", "--degree", "1")
    assert code == 0
    assert out == "1 + X1 - X2 + O(2)\n"
    assert err == ""


def test_series_default_degree_two(capsys):
    code, out, _ = run(capsys, "series", "abAB")
    assert code == 0
    assert out == "1 + X1X2 - X2X1 + O(3)\n"


def test_series_rejects_negative_degree(capsys):
    code, out, err = run(capsys, "series", "ab", "--degree", "-1")
    assert code == 2
    assert out == ""
    assert "degree" in err


def test_series_degree_bounded_by_monomial_count(capsys):
    # Validation runs before any expansion: degree 30 would mean ~10^9 terms.
    code, out, err = run(capsys, "series", "ABABABABAB", "--degree", "30")
    assert code == 2
    assert out == ""
    assert "monomials" in err
    for rank, largest in ((1, cli.MAX_SERIES_DEGREE), (2, 18), (3, 12)):
        cli._check_series_size(rank, largest)
        with pytest.raises(ValueError):
            cli._check_series_size(rank, largest + 1)


def test_series_degree_ceiling_refuses_rank_one_before_expanding(capsys):
    # At rank 1 the monomial count alone would allow degree 999,999, and the
    # reference product takes time cubic in the degree.
    code, out, err = run(capsys, "series", "AA", "--rank", "1", "--degree", "999999")
    assert (code, out) == (2, "")
    assert "ceiling" in err
    # From rank 2 on the monomial count stops first, so the ceiling never binds.
    assert cli.MAX_SERIES_DEGREE > 18


# ---------------------------------------------------------------- compare

def test_compare_golden(capsys):
    code, out, err = run(capsys, "compare", "a", "b")
    assert code == 0
    assert out == "a > b\n"
    assert err == ""


def test_compare_swapped_order(capsys):
    code, out, _ = run(capsys, "compare", "a", "b", "--swap-order")
    assert code == 0
    assert out == "a < b\n"


def test_compare_equal_words(capsys):
    code, out, _ = run(capsys, "compare", "ab", "ab")
    assert code == 0
    assert out == "ab = ab\n"


def test_compare_reports_cap_exhaustion_as_anomaly_exit(capsys):
    # The commutator vs the empty word cannot be separated at degree 1.
    code, out, err = run(capsys, "compare", "abAB", "aA", "--cap", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("anomaly:")


@pytest.mark.parametrize("words", [("a", "aabAB"), ("aabAB", "a")], ids=["lone-right", "lone-left"])
def test_compare_names_a_lone_side_first_at_the_cap(capsys, words):
    # Stripping a leaves abAB against the empty word, in either argument order.
    code, out, err = run(capsys, "compare", *words, "--cap", "1")
    assert (code, out) == (3, "")
    assert err == (
        "anomaly: distinct words compared equal up to the cap of degree 1 "
        "(lengths 4 and 0 without common ends); raise the cap\n"
    )


def test_compare_two_nonempty_sides(capsys):
    code, out, err = run(capsys, "compare", "ab", "ba")
    assert (code, out, err) == (0, "ab > ba\n", "")


def test_compare_two_nonempty_sides_at_cap_one(capsys):
    # ab and ba tie at degree 1 and share no end, so both sides reach the kernel.
    code, out, err = run(capsys, "compare", "ab", "ba", "--cap", "1")
    assert code == 3
    assert out == ""
    assert err == (
        "anomaly: distinct words compared equal up to the cap of degree 1 "
        "(lengths 2 and 2 without common ends); raise the cap\n"
    )


# ---------------------------------------------------------------- decompose

def test_decompose_golden(capsys):
    code, out, err = run(capsys, "decompose", "abAB")
    assert code == 0
    assert out == (
        "W' = abAB (fromW), A = ab, D = AB, A unique: yes, D unique: yes\n"
    )
    assert err == ""


def test_decompose_inverse_side(capsys):
    code, out, _ = run(capsys, "decompose", "bA")
    assert code == 0
    assert out == "W' = aB (fromInverse), A = a, D = B, A unique: yes, D unique: yes\n"


def test_decompose_monotonic_word(capsys):
    code, out, _ = run(capsys, "decompose", "baaba")
    assert code == 0
    assert out == (
        "W' = aabab (fromW), A = aabab, D = 1, A unique: yes, D unique: n/a\n"
    )


@pytest.mark.parametrize("swap", [(), ("--swap-order",)], ids=["canonical", "swapped"])
def test_decompose_ascent_unique_matches_rotation_oracle(capsys, swap):
    # The field is Decomposition.ascent_unique, read from the sign table's
    # rows that start with A; uniquely_positioned counts freshly built rows.
    for length in range(2, 9):
        for w in enumerate_cyclically_reduced(2, length, dedup="rotation_class"):
            if is_periodic(w):
                continue
            code, out, err = run(capsys, "decompose", str(w), *swap)
            assert (code, err) == (0, ""), str(w)
            field = out.split("A unique: ")[1].split(",")[0]
            ascent = parse_word(out.split("A = ")[1].split(",")[0], 2)
            assert field == ("yes" if uniquely_positioned(ascent, w) else "no"), str(w)


def test_decompose_periodic_word_exits_two(capsys):
    code, out, err = run(capsys, "decompose", "abab")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------- verify

VERIFY_ABAB = [
    "word: abAB",
    "W' = abAB (fromW), A = ab, D = AB",
    "A uniquely positioned: yes",
    "D status: unique",
    "monotonic: no",
    "weinbaum count: 4",
    "anomalies: none",
]


def test_verify_golden(capsys):
    code, out, err = run(capsys, "verify", "abAB")
    assert code == 0
    assert err == ""
    assert out.splitlines() == VERIFY_ABAB


def test_verify_monotonic_word(capsys):
    code, out, _ = run(capsys, "verify", "baaba")
    assert code == 0
    lines = out.splitlines()
    assert "D status: empty" in lines
    assert "monotonic: yes" in lines


def test_verify_prints_each_anomaly_and_exits_three(capsys, monkeypatch):
    # cli binds check_word under its own name, so that is the name to patch.
    real = cli.check_word

    def flagged(w, cmp):
        report = real(w, cmp)
        report.anomalies = [Anomaly("first", "one"), Anomaly("second", "two")]
        return report

    monkeypatch.setattr(cli, "check_word", flagged)
    code, out, err = run(capsys, "verify", "abAB")
    assert (code, err) == (3, "")
    assert out.splitlines() == VERIFY_ABAB[:-1] + ["anomaly: first: one", "anomaly: second: two"]


# ---------------------------------------------------------------- weinbaum

def test_weinbaum_lists_pairs(capsys):
    code, out, err = run(capsys, "weinbaum", "ab")
    assert code == 0
    assert out.splitlines() == ["a | b", "b | a", "count=2"]
    assert err == ""


def test_weinbaum_baaba(capsys):
    code, out, _ = run(capsys, "weinbaum", "baaba")
    assert code == 0
    assert out.splitlines() == ["aa | bab", "bab | aa", "count=2"]


def test_weinbaum_prints_every_factorization(capsys):
    # The command writes each split from its cut offsets into the word's text:
    # the same lines as the listed factorizations, at ranks 2 and 3.
    for rank, top in ((2, 6), (3, 4)):
        for n in range(2, top + 1):
            for w in enumerate_cyclically_reduced(rank, n):
                if is_periodic(w):
                    continue
                pairs = verify.weinbaum_factorizations(w)
                code, out, err = run(capsys, "weinbaum", str(w), "--rank", str(rank))
                assert out == "".join(f"{u} | {v}\n" for u, v in pairs) + f"count={len(pairs)}\n"
                assert (code, err) == (0 if pairs else 3, ""), str(w)


def test_weinbaum_reads_neither_swap_order_nor_cap(capsys):
    plain = run(capsys, "weinbaum", "abAB")
    assert run(capsys, "weinbaum", "abAB", "--swap-order", "--cap", "1") == plain


def test_series_ignores_cap(capsys):
    plain = run(capsys, "series", "abAB", "--degree", "4")
    assert run(capsys, "series", "abAB", "--degree", "4", "--cap", "1") == plain


def test_weinbaum_periodic_exits_two(capsys):
    code, out, err = run(capsys, "weinbaum", "aa")
    assert code == 2
    assert out == ""
    assert "power" in err


# ---------------------------------------------------------------- campaign

def test_campaign_summary_line(capsys):
    code, out, err = run(capsys, "campaign", "--min-len", "2", "--max-len", "3")
    assert code == 0
    assert err == ""
    assert out.startswith("checked=6 anomalies=0 seconds=")


def test_campaign_rank_one(capsys):
    code, out, _ = run(capsys, "campaign", "--rank", "1", "--min-len", "2", "--max-len", "4")
    assert code == 0
    assert out.startswith("checked=0 anomalies=0")


def test_campaign_writes_report(capsys, tmp_path):
    out_file = tmp_path / "campaign.json"
    code, out, _ = run(
        capsys, "campaign", "--min-len", "2", "--max-len", "2", "--out", str(out_file)
    )
    assert code == 0
    loaded = json.loads(out_file.read_text(encoding="utf-8"))
    assert loaded["schema_version"] == "orderword-report-1"
    assert loaded["words_checked"] == 2
    assert loaded["anomaly_count"] == 0


def test_campaign_pool_writes_the_serial_report(capsys, tmp_path):
    reports = []
    for workers, name in (("1", "serial.json"), ("2", "pool.json")):
        out_file = tmp_path / name
        code, _, err = run(
            capsys, "campaign", "--min-len", "2", "--max-len", "5",
            "--workers", workers, "--out", str(out_file),
        )
        assert (code, err) == (0, "")
        report = json.loads(out_file.read_text(encoding="utf-8"))
        del report["duration_seconds"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["words_checked"] == 39


def test_campaign_unwritable_output_exits_two(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "campaign",
        "--min-len", "2",
        "--max-len", "2",
        "--out", str(tmp_path / "missing" / "report.json"),
    )
    assert code == 2
    assert err.startswith("error:")


def test_campaign_unwritable_output_exits_two_before_checking(capsys, monkeypatch, tmp_path):
    def unreachable(w, cmp):
        raise AssertionError(f"checked {w} before refusing --out")

    monkeypatch.setattr(verify, "check_word", unreachable)
    missing = str(tmp_path / "missing" / "report.json")
    for out_file, named in [(missing, "report.json"), ("", "empty")]:
        code, out, err = run(
            capsys, "campaign", "--min-len", "2", "--max-len", "4", "--out", out_file
        )
        assert (code, out) == (2, ""), repr(out_file)
        assert err.startswith("error:") and named in err, repr(out_file)


def test_campaign_swap_order_flag(capsys):
    code, out, _ = run(
        capsys, "campaign", "--min-len", "2", "--max-len", "2", "--swap-order"
    )
    assert code == 0
    assert out.startswith("checked=2 anomalies=0")


def test_campaign_capped_below_deciding_degree_reports_and_exits_three(capsys):
    code, out, err = run(capsys, "campaign", "--min-len", "2", "--max-len", "4", "--cap", "1")
    assert code == 3
    assert err == ""
    assert out.startswith("checked=15 anomalies=")


# ---------------------------------------------------------------- shared option handling

def test_invalid_word_text_exits_two(capsys):
    code, out, err = run(capsys, "series", "a?b")
    assert code == 2
    assert out == ""
    assert "'?'" in err


def test_generator_beyond_rank_exits_two(capsys):
    code, out, err = run(capsys, "compare", "a", "c")
    assert code == 2
    assert "rank" in err


def test_rank_three_words_accepted(capsys):
    code, out, _ = run(capsys, "compare", "b", "c", "--rank", "3")
    assert code == 0
    assert out == "b > c\n"


def test_nonpositive_rank_exits_two(capsys):
    code, out, err = run(capsys, "series", "a", "--rank", "0")
    assert code == 2
    assert "rank" in err


@pytest.mark.parametrize("command", ["series", "compare", "decompose", "verify", "weinbaum"])
def test_text_commands_reject_rank_beyond_letters(capsys, monkeypatch, command):
    def unreachable(args):
        raise AssertionError("validation should have stopped the command")

    monkeypatch.setitem(cli._COMMANDS, command, unreachable)
    words = ("a", "b") if command == "compare" else ("a",)
    code, out, err = run(capsys, command, *words, "--rank", "27")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "rank" in err


def test_campaign_accepts_any_rank(capsys, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "campaign", lambda args: seen.append(args.rank) or 0)
    code, _, err = run(capsys, "campaign", "--rank", "27", "--min-len", "2", "--max-len", "2")
    assert (code, err, seen) == (0, "", [27])


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    main(["compare", "a", "b"])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["series", "aB"], ["decompose", "bA"], ["verify", "abAB", "--swap-order"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []


def _call(capsys, argv: list[str]) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SEQUENCE = (
    ["compare", "a", "b", "--swap-order"],
    ["compare", "a", "b"],
    ["verify", "abAB", "--cap", "1"],
    ["verify", "abAB"],
    ["verify", "abAB", "--frobnicate"],
    ["verify", "aA1"],
    ["series", "aB", "--degree", "1"],
    ["decompose", "bA"],
    ["weinbaum", "abAB"],
    ["verify", "--help"],
)


def test_shared_parser_carries_no_state_between_calls(capsys):
    first = [_call(capsys, argv) for argv in SEQUENCE]
    assert [_call(capsys, argv) for argv in SEQUENCE] == first
    swapped, plain, capped, verified, unknown, invalid, series, dec, weinbaum, helped = first
    assert swapped == (0, "a < b\n", "")
    assert plain == (0, "a > b\n", "")
    assert capped[:2] == (3, "") and capped[2].startswith("anomaly:")
    assert verified == (0, "\n".join(VERIFY_ABAB) + "\n", "")
    assert unknown[:2] == (2, "") and "--frobnicate" in unknown[2]
    assert invalid == (2, "", "error: invalid character '1' in word text\n")
    assert series == (0, "1 + X1 - X2 + O(2)\n", "")
    assert dec == (0, "W' = aB (fromInverse), A = a, D = B, A unique: yes, D unique: yes\n", "")
    assert weinbaum[0] == 0 and weinbaum[1].endswith("count=4\n")
    with pytest.raises(SystemExit) as excinfo:
        cli._build_parser.__wrapped__().parse_args(["verify", "--help"])
    assert excinfo.value.code == 0
    assert helped == (0, capsys.readouterr().out, "")
    assert helped[1].startswith("usage: orderword verify")


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_module_entry_point_matches_main(capsys, command):
    code, out, _ = run(capsys, command, "abAB")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "orderword", command, "abAB"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


_IMPORT_PROBE = """
import sys
import orderword
from orderword.cli import main
WATCHED = ("concurrent.futures", "fractions", "json", "multiprocessing")
loaded = []
for argv in (
    ["verify", "abcaBCbacABc", "--rank", "3"],
    ["campaign", "--min-len", "2", "--max-len", "5"],
    ["campaign", "--min-len", "2", "--max-len", "5", "--workers", "2"],
):
    assert main(argv) == 0
    loaded.append([m for m in WATCHED if m in sys.modules])
print(loaded)
"""


def test_runs_import_only_the_modules_they_use():
    # -S keeps the site module's own imports out of sys.modules.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    verified, serial, pooled = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert verified == serial == []
    assert "concurrent.futures" in pooled


def test_importing_orderword_generates_no_classes():
    # The records are written out by hand: dataclasses would load these
    # modules and build each record's methods at import time.
    probe = (
        "import sys; before = set(sys.modules); import orderword, orderword.cli; "
        "print(sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert "orderword.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_unknown_command_is_a_parser_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_program_errors_are_not_anomalies(capsys, monkeypatch):
    def broken(args):
        raise NotImplementedError("bug")

    monkeypatch.setitem(cli._COMMANDS, "series", broken)
    with pytest.raises(NotImplementedError):
        main(["series", "a"])
    assert capsys.readouterr().err == ""


def test_campaign_error_names_the_word_on_stderr(capsys, monkeypatch):
    real = verify.check_word

    def broken(w, cmp):
        if str(w) == "aab":
            raise ValueError("injected")
        return real(w, cmp)

    monkeypatch.setattr(verify, "check_word", broken)
    code, out, err = run(capsys, "campaign", "--min-len", "2", "--max-len", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: injected\n")
    if hasattr(ValueError(), "add_note"):  # Python 3.11+
        assert "aab" in err
