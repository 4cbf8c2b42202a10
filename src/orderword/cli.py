"""Command-line front end: inspect single words or run verification campaigns."""

from __future__ import annotations

import argparse
import functools
import sys

from .analysis import AscentPlacementError, InvariantViolationError, MagnusOrder, decompose
from .series import UndecidedAtCapError, mu, series_text
from .verify import _weinbaum_cuts, check_word, run_campaign
from .words import _MAX_TEXT_GENERATORS, parse_word

# Largest number of monomials, sum of rank**d over d <= degree, that
# ``series --degree`` may expand: degree 18 at rank 2, 12 at rank 3.
MAX_SERIES_TERMS = 1_000_000
# Largest ``series --degree`` at any rank. At rank 1 the monomial count alone
# would allow degree 999,999, and the kernel's cost grows with letters times
# degree (one component each); from rank 2 on that count stops first.
MAX_SERIES_DEGREE = 64


# Built on the first main call, not at import, and shared by every later call:
# parse_args reads the parser and returns a fresh namespace each time. Only a
# caller that runs main many times in one process gains; a one-word
# ``orderword`` process builds the parser once either way.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--rank", type=int, default=2, help="alphabet size (default 2)")
    shared.add_argument(
        "--swap-order",
        action="store_true",
        help="reverse the variable precedence of the order",
    )
    shared.add_argument(
        "--cap",
        type=int,
        default=None,
        help="limit the deciding degree (default: the proved syllable bound)",
    )

    parser = argparse.ArgumentParser(
        prog="orderword",
        description="Order free-group words by truncated series and decompose them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", parents=[shared], help="print the series image of a word")
    p.add_argument("word")
    p.add_argument("--degree", type=int, default=2, help="truncation degree (default 2)")

    p = sub.add_parser("compare", parents=[shared], help="order two words")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("decompose", parents=[shared], help="maximal ascent * descent split")
    p.add_argument("word")

    p = sub.add_parser("verify", parents=[shared], help="run every check on one word")
    p.add_argument("word")

    p = sub.add_parser("weinbaum", parents=[shared], help="uniquely positioned factorizations")
    p.add_argument("word")

    p = sub.add_parser("campaign", parents=[shared], help="check a whole length range")
    p.add_argument("--min-len", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument(
        "--dedup",
        choices=("none", "rotation_class"),
        default="rotation_class",
        help="enumerate all words or one per rotation class (default)",
    )
    return parser


def _precedence(args: argparse.Namespace) -> tuple[int, ...] | None:
    return tuple(range(args.rank, 0, -1)) if args.swap_order else None


def _order(args: argparse.Namespace) -> MagnusOrder:
    return MagnusOrder(args.rank, precedence=_precedence(args), cap=args.cap)


def _check_series_size(rank: int, degree: int) -> None:
    """Reject a degree above MAX_SERIES_DEGREE or with over MAX_SERIES_TERMS monomials."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > MAX_SERIES_DEGREE:
        raise ValueError(f"degree {degree} exceeds the ceiling of {MAX_SERIES_DEGREE}")
    terms = degree + 1 if rank == 1 else (rank ** (degree + 1) - 1) // (rank - 1)
    if terms > MAX_SERIES_TERMS:
        raise ValueError(
            f"degree {degree} at rank {rank} allows more than {MAX_SERIES_TERMS:,} monomials"
        )


def cmd_series(args: argparse.Namespace) -> int:
    precedence = _precedence(args)
    word = parse_word(args.word, args.rank)
    _check_series_size(args.rank, args.degree)
    print(series_text(mu(word, args.degree), precedence))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    order = _order(args)
    verdict = order.compare(parse_word(args.first, args.rank), parse_word(args.second, args.rank))
    symbol = {"greater": ">", "less": "<", "equal": "="}[verdict.value]
    print(f"{args.first} {symbol} {args.second}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    word = parse_word(args.word, args.rank)
    dec = decompose(word, _order(args))
    print(
        f"W' = {dec.chosen} ({dec.origin}), A = {dec.ascent}, D = {dec.descent}, "
        f"A unique: {_yesno(dec.ascent_unique)}, D unique: {_yesno(dec.descent_unique)}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    word = parse_word(args.word, args.rank)
    report = check_word(word, _order(args))
    dec = report.decomposition
    print(f"word: {word}")
    if dec is not None:
        print(f"W' = {dec.chosen} ({dec.origin}), A = {dec.ascent}, D = {dec.descent}")
    print(f"A uniquely positioned: {_yesno(report.ascent_uniquely_positioned)}")
    print(f"D status: {report.descent_status}")
    print(f"monotonic: {_yesno(report.monotonic)}")
    print(f"weinbaum count: {report.weinbaum_count}")
    if report.anomalies:
        for anomaly in report.anomalies:
            print(f"anomaly: {anomaly.label}: {anomaly.detail}")
        return 3
    print("anomalies: none")
    return 0


def _yesno(value: bool | None) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"


def cmd_weinbaum(args: argparse.Namespace) -> int:
    word = parse_word(args.word, args.rank)
    cuts = _weinbaum_cuts(word)
    # Each split of rotation r at cut, read from the word's text written twice.
    doubled, n = str(word) * 2, len(word)
    for r, cut in cuts:
        print(f"{doubled[r : r + cut]} | {doubled[r + cut : r + n]}")
    print(f"count={len(cuts)}")
    return 0 if cuts else 3


def cmd_campaign(args: argparse.Namespace) -> int:
    report = run_campaign(
        rank=args.rank,
        min_length=args.min_len,
        max_length=args.max_len,
        precedence=_precedence(args),
        workers=args.workers,
        out_path=args.out,
        dedup=args.dedup,
        cap=args.cap,
    )
    print(
        f"checked={report.words_checked} anomalies={report.anomaly_count} "
        f"seconds={report.duration_seconds:.2f}"
    )
    return 0 if report.anomaly_count == 0 else 3


_COMMANDS = {
    "series": cmd_series,
    "compare": cmd_compare,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "weinbaum": cmd_weinbaum,
    "campaign": cmd_campaign,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.rank < 1:
            raise ValueError("rank must be positive")
        # Campaign words of any rank render as <1 -2 ...>; text words cannot.
        if args.command != "campaign" and args.rank > _MAX_TEXT_GENERATORS:
            raise ValueError(
                f"rank {args.rank} exceeds the {_MAX_TEXT_GENERATORS} generators "
                "that text words can name"
            )
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Notes such as a campaign's "while checking <word>" (Python 3.11+).
        for note in getattr(exc, "__notes__", ()):
            print(note, file=sys.stderr)
        return 2
    except (UndecidedAtCapError, AscentPlacementError, InvariantViolationError) as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
