"""Free-group words, a computable bi-order, and ascent/descent decompositions."""

from .words import (
    FROM_INVERSE,
    FROM_WORD,
    Letter,
    NotCyclicallyReducedError,
    Rotation,
    Word,
    concat,
    identity,
    inverse,
    is_monotonic,
    is_periodic,
    occurrences,
    parse_word,
    primitive_root,
    reduce,
    rotation_set,
    uniquely_positioned,
    word_to_text,
)
from .series import (
    MagnusOrder,
    Monomial,
    MuCache,
    Ordering,
    TruncatedSeries,
    UndecidedAtCapError,
    compare_series,
    magnus_compare_words,
    mu,
    mul,
    series_text,
)
from .analysis import (
    AscentPlacementError,
    Decomposition,
    InvariantViolationError,
    LengthOneError,
    PeriodicWordError,
    ascent_descent_spans,
    decompose,
    is_ascent,
    is_descent,
    maximal_ascent,
    prefix_profile,
)
from .verify import (
    Anomaly,
    CampaignReport,
    WordReport,
    canonical_representative,
    check_word,
    cyclically_reduced_count,
    enumerate_cyclically_reduced,
    nonperiodic_count,
    rotation_class_count,
    run_campaign,
    weinbaum_factorizations,
    write_report,
)

__version__ = "0.1.0"
