"""CDM metadata ingestion: CSV parsing, event assembly, cutoff split.

Arrival times live in "window coordinates": t = 0 at (TCA - window_days)
and t = window_days exactly at the TCA, measured in days.

Rows move as columns.  ``parse_csv`` keeps the event ids as strings and
converts the timestamps to int64 seconds since the Unix epoch with numpy,
``CHUNK_ROWS`` rows per call, so the temporaries stay a few hundred
kilobytes at any file size.  A chunk's stamps are checked at fixed width
in one array over their bytes: 19 ASCII characters, '-' '-' 'T' ':' ':'
at offsets 4, 7, 10, 13 and 16 and digits elsewhere.  numpy's parser
then rejects fields out of range, and the year must lie in 0001-9999.
A chunk that fails has its rows checked one by one to report the first
bad row's line.  ``assemble_events`` groups the columns by one sort.
``events_to_csv`` formats each chunk of events' times with one numpy
call and writes each event's rows as one string: its 'id,tca,' prefix
joined to each creation stamp.  The ``csv`` module writes only the ids
it may quote, and the texts are joined once at the end.
"""
from __future__ import annotations

import csv
import io
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain

import numpy as np

from .errors import FormatError, InsufficientHistoryError, RowError

logger = logging.getLogger(__name__)

_CSV_COLUMNS = ("event_id", "tca", "creation_date")
_CSV_SPECIAL = re.compile('[,"\r\n]')  # characters csv.writer may quote

SECONDS_PER_DAY = 86400.0
CHUNK_ROWS = 4096  # rows per numpy conversion when parsing
CHUNK_EVENTS = 512  # events per numpy formatting call when writing

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)
# The years datetime can hold; they also keep the year at four digits.
_EARLIEST = np.datetime64("0001-01-01T00:00:00", "s")
_LATEST = np.datetime64("9999-12-31T23:59:59", "s")
_STAMP_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
_STAMP_WIDTH = len(_STAMP_TEMPLATE)
_STAMP_SPAN = np.where(_STAMP_TEMPLATE == ord("0"), 10, 1).astype(np.uint8)


def _epoch_seconds(texts: list[str]) -> np.ndarray | None:
    """Seconds since the epoch of 'YYYY-MM-DDTHH:MM:SS' stamps, or None if any is malformed.

    Each text may carry surrounding whitespace and one trailing 'Z'.
    """
    raw = [text.strip().removesuffix("Z") for text in texts]
    joined = "".join(raw)
    if not joined.isascii() or any(len(text) != _STAMP_WIDTH for text in raw):
        return None
    # Each character lies in [template, template + span): a digit where the
    # template has '0', the template's own separator elsewhere.  A character
    # below its template wraps around to a large uint8.
    chars = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(-1, _STAMP_WIDTH)
    if not (chars - _STAMP_TEMPLATE < _STAMP_SPAN).all():
        return None
    try:
        # numpy rejects fields out of range: month 13, day 00, Feb 29 of a
        # common year, hour 24, minute or second 60.
        stamps = np.array(raw, dtype="datetime64[s]")
    except ValueError:
        return None
    if not ((stamps >= _EARLIEST) & (stamps <= _LATEST)).all():
        return None
    return stamps.astype(np.int64)


def _format_seconds(seconds: np.ndarray) -> np.ndarray:
    """'YYYY-MM-DDTHH:MM:SSZ' texts of int64 seconds since the epoch."""
    return np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s", timezone="UTC")


@dataclass(frozen=True, eq=False)
class CdmColumns:
    """CDM metadata rows as columns, in file order.

    ``tca`` and ``creation_date`` are int64 seconds since the Unix epoch
    (UTC); ``len()`` is the number of rows.
    """

    event_id: list[str]
    tca: np.ndarray
    creation_date: np.ndarray

    def __len__(self) -> int:
        return len(self.event_id)


@dataclass(frozen=True)
class ConjunctionEvent:
    """One screened conjunction: TCA plus ordered CDM arrival times.

    ``arrivals`` are strictly increasing window-coordinate times in
    [0, window_days]; the window end coincides with the TCA.
    """

    event_id: str
    tca: datetime
    window_days: float
    arrivals: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.window_days <= 0:
            raise ValueError("window_days must be positive")
        prev = None
        for t in self.arrivals:
            if not (0.0 <= t <= self.window_days):
                raise ValueError(f"arrival {t} outside [0, {self.window_days}]")
            if prev is not None and t <= prev:
                raise ValueError("arrivals must be strictly increasing")
            prev = t


def parse_csv(data: bytes) -> CdmColumns:
    """Parse CDM rows from CSV bytes with header event_id,tca,creation_date.

    Timestamps are UTC 'YYYY-MM-DDTHH:MM:SS' with zero-padded fields, an
    optional trailing 'Z' and optional surrounding whitespace.  Extra
    columns are ignored, blank lines skipped and a short row's missing
    fields read as empty.  The first malformed row raises ``RowError``
    with its physical line number.
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader, None)
    if header is None:
        raise FormatError("empty input: missing CSV header")
    missing = [c for c in _CSV_COLUMNS if c not in header]
    if missing:
        raise FormatError(f"malformed header: missing column(s) {', '.join(missing)}")
    # A repeated column name reads its last occurrence.
    position = {name: k for k, name in enumerate(header)}
    id_col, tca_col, created_col = (position[c] for c in _CSV_COLUMNS)
    width = max(id_col, tca_col, created_col) + 1

    ids: list[str] = []
    tca: list[np.ndarray] = []
    created: list[np.ndarray] = []
    for rows, lines in _chunks(reader, width):
        chunk_ids = [row[id_col].strip() for row in rows]
        chunk_tca = _epoch_seconds([row[tca_col] for row in rows])
        chunk_created = _epoch_seconds([row[created_col] for row in rows])
        if chunk_tca is None or chunk_created is None or not all(chunk_ids):
            _raise_first_bad_row(rows, lines, id_col, tca_col, created_col)
        ids.extend(chunk_ids)
        tca.append(chunk_tca)
        created.append(chunk_created)
    empty = np.zeros(0, dtype=np.int64)
    return CdmColumns(
        event_id=ids,
        tca=np.concatenate(tca) if tca else empty,
        creation_date=np.concatenate(created) if created else empty,
    )


def _chunks(reader, width: int):
    """(rows, line numbers) of up to CHUNK_ROWS non-blank rows, padded to ``width``."""
    rows: list[list[str]] = []
    lines: list[int] = []
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            row += [""] * (width - len(row))
        rows.append(row)
        lines.append(reader.line_num)
        if len(rows) == CHUNK_ROWS:
            yield rows, lines
            rows, lines = [], []
    if rows:
        yield rows, lines


def _raise_first_bad_row(rows, lines, id_col, tca_col, created_col):
    for row, line in zip(rows, lines):
        for text in (row[tca_col], row[created_col]):
            if _epoch_seconds([text]) is None:
                raise RowError(line, f"unparseable timestamp: {text!r}")
        if not row[id_col].strip():
            raise RowError(line, "event_id must be non-empty")
    raise AssertionError("a chunk that failed has no bad row")


def assemble_events(records: CdmColumns, window_days: float) -> list[ConjunctionEvent]:
    """Group rows by event id into ConjunctionEvents.

    Within a group the latest row's TCA wins and earlier arrivals are
    re-mapped against it.  Rows with creation_date after the TCA or
    falling before the window start are dropped with a warning; exact
    duplicate creation times collapse to one arrival.  Groups left with
    no arrivals are omitted.  Output is sorted by event id, so assembly
    is invariant to input row order.
    """
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    if len(records) == 0:
        return []
    names = sorted(set(records.event_id))
    code = {name: k for k, name in enumerate(names)}
    group = np.fromiter(map(code.__getitem__, records.event_id), np.int64, len(records))
    # Rows by event, then creation time: the order the warnings are logged in.
    order = np.lexsort((records.creation_date, group))
    group, created = group[order], records.creation_date[order]

    boundary = np.r_[True, group[1:] != group[:-1]]
    tca = np.maximum.reduceat(records.tca[order], np.flatnonzero(boundary))  # one per event id
    row_tca = tca[group]
    first = boundary | np.r_[True, created[1:] != created[:-1]]  # one row per creation time
    after = created > row_tca
    t = window_days - (row_tca - created) / SECONDS_PER_DAY
    before = ~after & (t < 0.0)

    for k in np.flatnonzero(first & (after | before)).tolist():
        name = names[group[k]]
        created_text, tca_text = _format_seconds(np.array([created[k], row_tca[k]])).tolist()
        if after[k]:
            logger.warning("event %s: dropping CDM created %s after TCA %s",
                           name, created_text, tca_text)
        else:
            logger.warning("event %s: dropping CDM created %s before window start",
                           name, created_text)

    keep = first & ~after & ~before
    if not keep.any():
        return []
    kept_group, kept_t = group[keep], t[keep].tolist()
    starts = np.flatnonzero(np.r_[True, kept_group[1:] != kept_group[:-1]])
    ends = [*starts[1:].tolist(), len(kept_t)]
    return [
        ConjunctionEvent(
            event_id=names[g],
            tca=_EPOCH + timedelta(seconds=int(tca[g])),
            window_days=window_days,
            arrivals=tuple(kept_t[lo:hi]),
        )
        for g, lo, hi in zip(kept_group[starts].tolist(), starts.tolist(), ends)
    ]


def events_to_csv(events: list[ConjunctionEvent]) -> str:
    """Serialize events back to the ingestion CSV schema (second precision).

    The bytes ``csv.writer`` would write: an id holding a character it may
    quote is written by the ``csv`` module, every other id as it is.
    """
    texts = [",".join(_CSV_COLUMNS) + "\n"]
    for start in range(0, len(events), CHUNK_EVENTS):
        chunk = events[start:start + CHUNK_EVENTS]
        sizes = [len(event.arrivals) for event in chunk]
        tca = np.array([(event.tca - _EPOCH) // _SECOND for event in chunk], dtype=np.int64)
        window = np.repeat([float(event.window_days) for event in chunk], sizes)
        arrivals = np.fromiter(chain.from_iterable(e.arrivals for e in chunk), float, sum(sizes))
        before_tca = np.rint((window - arrivals) * SECONDS_PER_DAY).astype(np.int64)
        stamps = _format_seconds(np.concatenate([tca, np.repeat(tca, sizes) - before_tca])).tolist()
        at = len(chunk)  # the creation stamps follow the chunk's TCAs
        for event, size, tca_text in zip(chunk, sizes, stamps):
            if size:
                prefix = f"{_csv_field(event.event_id)},{tca_text},"
                texts.append(prefix + ("\n" + prefix).join(stamps[at:at + size]) + "\n")
                at += size
    return "".join(texts)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])
    return out.getvalue()[:-1]


def split_at_cutoff(
    event: ConjunctionEvent, cutoff_days_before_tca: float
) -> tuple[list[float], list[float]]:
    """Partition arrivals at t_c = window_days - cutoff (boundary into history)."""
    return split_at_time(event, cutoff_time(event, cutoff_days_before_tca))


def cutoff_time(event: ConjunctionEvent, cutoff_days_before_tca: float) -> float:
    """Window time t_c of a cutoff given in days before TCA."""
    if not 0.0 < cutoff_days_before_tca < event.window_days:
        raise ValueError("cutoff must lie strictly inside the window")
    return event.window_days - cutoff_days_before_tca


def split_at_time(event: ConjunctionEvent, t_c: float) -> tuple[list[float], list[float]]:
    """Partition arrivals at window time t_c (boundary into history)."""
    history = [t for t in event.arrivals if t <= t_c]
    future = [t for t in event.arrivals if t > t_c]
    if not history:
        raise InsufficientHistoryError(
            f"event {event.event_id}: no arrivals at or before the cutoff"
        )
    return history, future
