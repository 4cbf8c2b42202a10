"""The per-word audit as it was before it read one table of signs: a test oracle.

``check_word``, ``_unaudited``, ``weinbaum_factorizations``, ``decompose``,
``maximal_ascent`` and ``_locate`` are copied verbatim from the library as it
was before :class:`orderword.analysis.CyclicSigns` (only ``maximal_ascent``
lost its ``"bruteforce"`` branch, which the library keeps unchanged). They
rebuild every rotation's spans, prefix profiles and prefix counts from the
primitives in ``orderword.words`` and ``orderword.analysis``, which this
change did not touch. ``tests/test_check_word_parity.py`` asserts that the
library's ``check_word`` reports exactly what this one does.
"""

from __future__ import annotations

from orderword.analysis import (
    AscentPlacementError,
    Decomposition,
    InvariantViolationError,
    LengthOneError,
    MagnusOrder,
    MaximalAscent,
    PeriodicWordError,
    ascent_descent_spans,
    is_descent,
    prefix_profile,
)
from orderword.verify import Anomaly, WordReport
from orderword.words import (
    Letter,
    NotCyclicallyReducedError,
    Rotation,
    Word,
    _intervals_overlap,
    _prefix_count,
    inverse,
    is_monotonic,
    is_periodic,
    occurrences,
    rotation_set,
    uniquely_positioned,
)


def _locate(ascent_letters: tuple[Letter, ...], elements: tuple[Rotation, ...], rank: int):
    target = Word(ascent_letters, rank)
    for element in elements:
        found = occurrences(target, element.word)
        if found:
            return MaximalAscent(target, element.word, element.origin, found)
    raise AscentPlacementError("maximal ascent vanished from its own rotation set")


def maximal_ascent(w: Word, cmp: MagnusOrder, algorithm: str = "peaklow") -> MaximalAscent:
    """The unique order-largest ascent over all subwords of the rotation set of w.

    ``"peaklow"`` takes, per rotation, the slice from the low prefix to the
    peak prefix; among rotations containing it, the first in rotation-set
    order is reported as host.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no ascent")
    elements = rotation_set(w).elements
    candidates: set[tuple[Letter, ...]] = set()
    if algorithm == "peaklow":
        for element in elements:
            profile = prefix_profile(element.word, cmp)
            if profile.low_index < profile.peak_index:
                candidates.add(element.word.letters[profile.low_index : profile.peak_index])
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not candidates:
        raise AscentPlacementError(f"no ascent found among subwords of {w!r}")
    best = None
    for candidate in candidates:
        if best is None or cmp._compare_letters(candidate, best) > 0:
            best = candidate
    return _locate(best, elements, w.rank)


def decompose(w: Word, cmp: MagnusOrder, algorithm: str = "peaklow") -> Decomposition:
    """Split a rotation of w (or of w^-1) as maximal ascent times descent.

    Requires a cyclically reduced, nonperiodic word of length > 1. The chosen
    rotation is the unique one starting with the maximal ascent; the remainder
    is verified to be empty or a descent before returning.
    """
    if len(w) <= 1:
        raise LengthOneError("decomposition needs a word of length at least 2")
    if not w.is_cyclically_reduced:
        raise NotCyclicallyReducedError(f"{w!r} is not cyclically reduced")
    if is_periodic(w):
        raise PeriodicWordError(f"{w!r} is a proper power")
    found = maximal_ascent(w, cmp, algorithm=algorithm)
    elements = rotation_set(w).elements
    ascent_letters = found.ascent.letters
    chosen = origin = None
    for element in elements:
        if element.word.letters[: len(ascent_letters)] == ascent_letters:
            chosen, origin = element.word, element.origin
            break
    if chosen is None:
        raise AscentPlacementError(f"no rotation of {w!r} starts with the maximal ascent")
    descent = chosen[len(ascent_letters) :]
    if len(descent) and not is_descent(descent, cmp):
        raise InvariantViolationError(
            f"remainder {descent!r} after the maximal ascent is not a descent"
        )
    return Decomposition(
        source=w,
        chosen=chosen,
        origin=origin,
        ascent=found.ascent,
        descent=descent,
        ascent_occurrences=occurrences(found.ascent, chosen),
        descent_unique=uniquely_positioned(descent, w) if len(descent) else None,
    )


def weinbaum_factorizations(w: Word) -> tuple[tuple[Word, Word], ...]:
    """All splits rotation = U * V with both halves uniquely positioned in w.

    Scans every rotation of w itself (not of the inverse) in offset order and
    every split point in order; nonperiodic cyclically reduced input required.
    """
    if len(w) <= 1:
        raise LengthOneError("factorization needs a word of length at least 2")
    if not w.is_cyclically_reduced:
        raise NotCyclicallyReducedError(f"{w!r} is not cyclically reduced")
    if is_periodic(w):
        raise PeriodicWordError(f"{w!r} is a proper power")
    elements = rotation_set(w).elements
    n = len(w)
    unique_memo: dict[tuple[Letter, ...], bool] = {}

    def unique(letters: tuple[Letter, ...]) -> bool:
        hit = unique_memo.get(letters)
        if hit is None:
            hit = unique_memo[letters] = _prefix_count(letters, elements) == 1
        return hit

    out = []
    for element in elements[:n]:
        letters = element.word.letters
        for cut in range(1, n):
            head, tail = letters[:cut], letters[cut:]
            if unique(head) and unique(tail):
                out.append((Word(head, w.rank), Word(tail, w.rank)))
    return tuple(out)


def _unaudited(w: Word, anomaly: Anomaly) -> WordReport:
    """Report on a word whose decomposition could not be audited."""
    return WordReport(
        word=w,
        decomposition_summary=None,
        ascent_uniquely_positioned=None,
        descent_status=None,
        monotonic=is_monotonic(w),
        weinbaum_count=len(weinbaum_factorizations(w)),
        anomalies=[anomaly],
    )


def check_word(w: Word, cmp: MagnusOrder, check_monotonic: bool = True) -> WordReport:
    """Decompose one word and audit every claim; violations become anomalies.

    Precondition violations (empty, length one, periodic, not cyclically
    reduced) raise; everything the decomposition asserts about a valid word is
    verified here and reported, never raised.
    """
    try:
        dec = decompose(w, cmp)
    except (AscentPlacementError, InvariantViolationError) as exc:
        return _unaudited(w, Anomaly("decomposition_failed", str(exc)))

    anomalies: list[Anomaly] = []
    monotonic = is_monotonic(w)
    elements = rotation_set(w).elements
    ascent = dec.ascent
    descent = dec.descent

    # The maximal ascent must be a prefix of exactly one rotation.
    prefix_hits = _prefix_count(ascent.letters, elements)
    ascent_unique = prefix_hits == 1
    if not ascent_unique:
        anomalies.append(
            Anomaly(
                "ascent_not_uniquely_positioned",
                f"{ascent} is a prefix of {prefix_hits} rotations of {w}",
            )
        )

    # Any extra copy of the descent inside the chosen rotation must sit
    # strictly inside the ascent span.
    if not descent:
        descent_status = "empty"
    else:
        descent_status = "unique" if dec.descent_unique else "internal_in_A"
        boundary = len(ascent)
        for occ in occurrences(descent, dec.chosen):
            if occ.start == boundary:
                continue
            if occ.start < 1 or occ.end > boundary - 1:
                anomalies.append(
                    Anomaly(
                        "descent_occurrence_outside_ascent",
                        f"{descent} recurs at offset {occ.start} of {dec.chosen}",
                    )
                )

    # Under the series order, an empty descent must coincide with monotonicity.
    if check_monotonic and dec.descent_empty != monotonic:
        anomalies.append(
            Anomaly(
                "monotonic_descent_mismatch",
                f"monotonic={monotonic} but descent={descent}",
            )
        )

    # Structure of every rotation that contains the maximal ascent.
    for element in elements:
        host = element.word
        found = occurrences(ascent, host)
        if not found:
            continue
        if cmp.sign(host) <= 0:
            anomalies.append(Anomaly("host_not_positive", f"{host} contains {ascent}"))
        if len(found) != 1:
            anomalies.append(
                Anomaly("ascent_repeated_in_host", f"{ascent} occurs {len(found)}x in {host}")
            )
        if occurrences(ascent, inverse(host)):
            anomalies.append(
                Anomaly("ascent_in_inverse_host", f"{ascent} also occurs in {inverse(host)}")
            )
        profile = prefix_profile(host, cmp)
        low, peak = profile.low_index, profile.peak_index
        if not (low < peak and host.letters[low:peak] == ascent.letters):
            anomalies.append(
                Anomaly(
                    "peak_low_slice_mismatch",
                    f"host {host}: low {low}, peak {peak}, ascent {ascent}",
                )
            )
        if host.letters[: len(ascent)] == ascent.letters and len(host) > len(ascent):
            if not is_descent(host[len(ascent) :], cmp):
                anomalies.append(
                    Anomaly("host_remainder_not_descent", f"{host} after {ascent}")
                )

    # Overlap structure of ascents and descents inside every rotation.
    for element in elements:
        ascents, descents = ascent_descent_spans(element.word, cmp)
        asc_sorted = sorted(ascents)
        desc_sorted = sorted(descents)
        for idx, (s1, e1) in enumerate(asc_sorted):
            for s2, e2 in asc_sorted[idx + 1 :]:
                if s2 >= e1:
                    break
                if _intervals_overlap(s1, e1, s2, e2):
                    piece = (max(s1, s2), min(e1, e2))
                    if piece not in ascents:
                        anomalies.append(
                            Anomaly(
                                "ascent_overlap_not_ascent",
                                f"{element.word}: spans {(s1, e1)} and {(s2, e2)}",
                            )
                        )
        for s1, e1 in asc_sorted:
            for s2, e2 in desc_sorted:
                if _intervals_overlap(s1, e1, s2, e2):
                    anomalies.append(
                        Anomaly(
                            "ascent_descent_overlap",
                            f"{element.word}: ascent {(s1, e1)} vs descent {(s2, e2)}",
                        )
                    )

    weinbaum = weinbaum_factorizations(w)
    if not weinbaum:
        anomalies.append(Anomaly("no_weinbaum_factorization", str(w)))

    return WordReport(
        word=w,
        decomposition_summary={
            "source": str(dec.source),
            "chosen": str(dec.chosen),
            "origin": dec.origin,
            "ascent": str(dec.ascent),
            "descent": str(dec.descent) if dec.descent else "1",
            "descent_unique": dec.descent_unique,
        },
        ascent_uniquely_positioned=ascent_unique,
        descent_status=descent_status,
        monotonic=monotonic,
        weinbaum_count=len(weinbaum),
        anomalies=anomalies,
    )
