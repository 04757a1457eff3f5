"""Wire payloads for query workloads and their answers.

Extends the NPZ+JSON layout of :mod:`repro.io.wire` to the read path: a
**queries payload** carries batches of online RSS measurements (plus
optional ground truth and per-site location tables) and an **answers
payload** carries the engine's responses (grid indices, coordinates and the
serving bookkeeping).  ``query export`` writes query payloads, ``query run``
consumes them against a report payload and writes answers, and any external
producer emitting the same layout can drive the serving engine directly.

The same guarantees as the fleet payloads apply: bit-exact array
round-trips, manifest validation on load, ``allow_pickle=False``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.io.wire import (
    WirePayloadError,
    _Family,
    _read_payload,
    _write_payload,
    check_legacy_value,
)
from repro.query.types import QueryAnswer, QueryBatch

__all__ = [
    "QUERIES_FORMAT",
    "ANSWERS_FORMAT",
    "save_queries",
    "load_queries",
    "save_answers",
    "load_answers",
]

QUERIES_FORMAT = "repro-query-batch"
"""Format tag of a query-workload payload."""

ANSWERS_FORMAT = "repro-query-answers"
"""Format tag of an answers payload."""

ANSWER_BACKENDS = ("vectorized", "looped")
"""Every value a v1 answer ``backend`` key has carried.  Matching has a
single path, so writers always emit the first; readers validate the key
against this tuple and ignore it."""


_QUERIES = _Family(
    QUERIES_FORMAT, entries="batches", entry="query batch", prefix="batch"
)
_ANSWERS = _Family(ANSWERS_FORMAT, entries="answers", entry="answer", prefix="batch")


# -------------------------------------------------------------------- queries
def save_queries(path, batches: Sequence[QueryBatch]) -> None:
    """Serialize a query workload (one batch per site visit) to one NPZ.

    Measurements, ground-truth indices and location tables ride NPZ
    bit-exactly; the manifest records per-batch metadata so a corrupt or
    truncated payload fails validation on load.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("cannot serialize an empty query workload")
    arrays: Dict[str, np.ndarray] = {}
    entries: List[dict] = []
    for index, batch in enumerate(batches):
        if not isinstance(batch, QueryBatch):
            raise TypeError("batches must be QueryBatch instances")
        key = _QUERIES.key(index)
        arrays[f"{key}__measurements"] = batch.measurements
        entry = {
            "site": batch.site,
            "count": int(batch.count),
            "has_truth": batch.true_indices is not None,
            "has_locations": batch.locations is not None,
        }
        if batch.true_indices is not None:
            arrays[f"{key}__true_indices"] = batch.true_indices.astype(np.int64)
        if batch.locations is not None:
            arrays[f"{key}__locations"] = batch.locations
        entries.append(entry)
    _write_payload(path, _QUERIES.manifest({}, entries), arrays)


def _decode_batch(entry: dict, get) -> QueryBatch:
    batch = QueryBatch(
        site=str(entry["site"]),
        measurements=get("measurements"),
        true_indices=get("true_indices") if entry.get("has_truth") else None,
        locations=get("locations") if entry.get("has_locations") else None,
    )
    if batch.count != int(entry["count"]):
        raise WirePayloadError(
            f"batch carries {batch.count} queries, manifest records "
            f"{entry['count']}"
        )
    return batch


def load_queries(path) -> List[QueryBatch]:
    """Load a queries payload back into validated :class:`QueryBatch` objects."""
    return _read_payload(path, _QUERIES, _decode_batch)


# -------------------------------------------------------------------- answers
def save_answers(path, answers: Sequence[QueryAnswer]) -> None:
    """Serialize the engine's answers (one per query batch) to one NPZ."""
    answers = list(answers)
    if not answers:
        raise ValueError("cannot serialize an empty answer set")
    arrays: Dict[str, np.ndarray] = {}
    entries: List[dict] = []
    for index, answer in enumerate(answers):
        if not isinstance(answer, QueryAnswer):
            raise TypeError("answers must be QueryAnswer instances")
        key = _ANSWERS.key(index)
        arrays[f"{key}__indices"] = np.asarray(answer.indices, dtype=np.int64)
        entry = {
            "site": answer.site,
            "matcher": answer.matcher,
            "backend": ANSWER_BACKENDS[0],
            "generation": int(answer.generation),
            "count": int(answer.count),
            "cache_hits": int(answer.cache_hits),
            "has_points": answer.points is not None,
        }
        if answer.points is not None:
            arrays[f"{key}__points"] = answer.points
        entries.append(entry)
    _write_payload(path, _ANSWERS.manifest({}, entries), arrays)


def _decode_answer(entry: dict, get) -> QueryAnswer:
    indices = np.asarray(get("indices"), dtype=int)
    points: Optional[np.ndarray] = None
    if entry.get("has_points"):
        points = np.asarray(get("points"), dtype=float)
        if points.shape != (indices.size, 2):
            raise WirePayloadError(
                f"points shape {points.shape} does not match "
                f"{indices.size} indices"
            )
    if indices.size != int(entry["count"]):
        raise WirePayloadError(
            f"answer carries {indices.size} indices, manifest records "
            f"{entry['count']}"
        )
    check_legacy_value(entry["backend"], ANSWER_BACKENDS, "backend")
    return QueryAnswer(
        site=str(entry["site"]),
        matcher=str(entry["matcher"]),
        generation=int(entry["generation"]),
        indices=indices,
        points=points,
        cache_hits=int(entry.get("cache_hits") or 0),
    )


def load_answers(path) -> List[QueryAnswer]:
    """Load an answers payload back into :class:`QueryAnswer` objects."""
    return _read_payload(path, _ANSWERS, _decode_answer)
