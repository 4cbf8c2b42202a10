"""Command-line behavior: output formats, exit codes, error stream discipline."""

from __future__ import annotations

import json

import pytest

from orderword import cli, verify
from orderword.cli import main


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
    for rank, largest in ((1, 999_999), (2, 18), (3, 12)):
        cli._check_series_size(rank, largest)
        with pytest.raises(ValueError):
            cli._check_series_size(rank, largest + 1)


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


def test_decompose_periodic_word_exits_two(capsys):
    code, out, err = run(capsys, "decompose", "abab")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------- verify

def test_verify_golden(capsys):
    code, out, err = run(capsys, "verify", "abAB")
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "word: abAB",
        "W' = abAB (fromW), A = ab, D = AB",
        "A uniquely positioned: yes",
        "D status: unique",
        "monotonic: no",
        "weinbaum count: 4",
        "anomalies: none",
    ]


def test_verify_monotonic_word(capsys):
    code, out, _ = run(capsys, "verify", "baaba")
    assert code == 0
    lines = out.splitlines()
    assert "D status: empty" in lines
    assert "monotonic: yes" in lines


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

    def broken(w, cmp, check_monotonic=True):
        if str(w) == "aab":
            raise ValueError("injected")
        return real(w, cmp, check_monotonic=check_monotonic)

    monkeypatch.setattr(verify, "check_word", broken)
    code, out, err = run(capsys, "campaign", "--min-len", "2", "--max-len", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: injected\n")
    if hasattr(ValueError(), "add_note"):  # Python 3.11+
        assert "aab" in err
