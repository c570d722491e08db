"""Answer checking, independent of the program's own evaluators.

A request's expected rows come from numpy predicate masks over its window
and the SELECT columns, computed outside the timed region.  Stream
verdicts are checked the same way, tuple by tuple, except where the
executor abstained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np


@dataclass(frozen=True)
class Shape:
    """One query shape: its text plus the semantics the oracle uses.

    ``predicates`` holds ``(column, low, high, negated)``: the predicate
    is ``low <= row[column] <= high``, inverted when ``negated``.
    ``columns`` names the SELECT list and ``select`` indexes it.
    """

    text: str
    predicates: tuple[tuple[int, int, int, bool], ...]
    columns: tuple[str, ...]
    select: tuple[int, ...]


def render(names: Sequence[str], predicates, select: Sequence[str]) -> str:
    """The statement text for ``predicates`` over schema ``names``."""
    clauses = []
    for column, low, high, negated in predicates:
        clause = f"{names[column]} BETWEEN {low} AND {high}"
        clauses.append(f"NOT {clause}" if negated else clause)
    return f"SELECT {', '.join(select)} WHERE {' AND '.join(clauses)}"


def make_shape(names: Sequence[str], predicates, select: Sequence[str]) -> Shape:
    """A shape over schema ``names``; ``select`` may be ``("*",)``."""
    predicates = tuple(
        (int(c), int(lo), int(hi), bool(neg)) for c, lo, hi, neg in predicates
    )
    columns = tuple(names) if tuple(select) == ("*",) else tuple(select)
    return Shape(
        text=render(names, predicates, select),
        predicates=predicates,
        columns=columns,
        select=tuple(list(names).index(name) for name in columns),
    )


def mask(window: np.ndarray, predicates) -> np.ndarray:
    """Tuples of ``window`` satisfying every predicate."""
    keep = np.ones(window.shape[0], dtype=bool)
    for column, low, high, negated in predicates:
        values = window[:, column]
        inside = (values >= low) & (values <= high)
        keep &= ~inside if negated else inside
    return keep


def expected_rows(window: np.ndarray, shape: Shape) -> np.ndarray:
    return window[mask(window, shape.predicates)][:, list(shape.select)]


def result_matches(result: Any, window: np.ndarray, shape: Shape) -> bool:
    """Does a ``QueryResult`` hold exactly the oracle's rows and columns?"""
    if tuple(result.columns) != shape.columns:
        return False
    if result.tuples_scanned != window.shape[0]:
        return False
    expected = expected_rows(window, shape)
    got = np.asarray(result.rows, dtype=np.int64).reshape(-1, len(shape.select))
    return got.shape == expected.shape and bool(np.array_equal(got, expected))


def stream_verdicts_match(report: Any, data: np.ndarray, predicates) -> bool:
    """Non-abstained verdicts of a stream report agree with the masks."""
    truth = mask(data, predicates)
    verdicts = np.asarray(report.verdicts, dtype=bool)
    if verdicts.shape != truth.shape:
        return False
    abstained = report.abstained
    if abstained is None:
        return bool(np.array_equal(verdicts, truth))
    kept = ~np.asarray(abstained, dtype=bool)
    # An abstained tuple must never be reported as selected.
    if verdicts[~kept].any():
        return False
    return bool(np.array_equal(verdicts[kept], truth[kept]))
