"""CDM metadata ingestion: CSV parsing, event assembly, cutoff split.

Arrival times live in "window coordinates": t = 0 at (TCA - window_days)
and t = window_days exactly at the TCA, measured in days.
"""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from .errors import FormatError, InsufficientHistoryError, RowError

logger = logging.getLogger(__name__)

_CSV_COLUMNS = ("event_id", "tca", "creation_date")

SECONDS_PER_DAY = 86400.0


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp at second precision ('Z' optional)."""
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1]
    try:
        stamp = datetime.strptime(raw, "%Y-%m-%dT%H:%M:%S")
    except ValueError as exc:
        raise FormatError(f"unparseable timestamp: {text!r}") from exc
    return stamp.replace(tzinfo=timezone.utc)


def format_timestamp(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class CdmRecord:
    """One CDM's metadata: who it belongs to and when it was issued."""

    event_id: str
    tca: datetime
    creation_date: datetime

    def __post_init__(self):
        if not self.event_id:
            raise ValueError("event_id must be non-empty")


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


def parse_csv(data: bytes) -> list[CdmRecord]:
    """Parse CDM records from CSV bytes with header event_id,tca,creation_date.

    Extra columns are ignored; rows are returned in file order.
    """
    text = data.decode("utf-8")
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise FormatError("empty input: missing CSV header")
    missing = [c for c in _CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise FormatError(f"malformed header: missing column(s) {', '.join(missing)}")
    records = []
    for row in reader:
        line = reader.line_num
        try:
            records.append(
                CdmRecord(
                    event_id=(row["event_id"] or "").strip(),
                    tca=parse_timestamp(row["tca"] or ""),
                    creation_date=parse_timestamp(row["creation_date"] or ""),
                )
            )
        except (FormatError, ValueError) as exc:
            raise RowError(line, str(exc)) from exc
    return records


def assemble_events(records: list[CdmRecord], window_days: float) -> list[ConjunctionEvent]:
    """Group records by event id into ConjunctionEvents.

    Within a group the latest record's TCA wins and earlier arrivals are
    re-mapped against it.  Records with creation_date after the TCA or
    falling before the window start are dropped with a warning; exact
    duplicate creation times collapse to one arrival.  Groups left with
    no arrivals are omitted.  Output is sorted by event id, so assembly
    is invariant to input record order.
    """
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    groups: dict[str, list[CdmRecord]] = {}
    for rec in records:
        groups.setdefault(rec.event_id, []).append(rec)

    events = []
    for event_id in sorted(groups):
        group = groups[event_id]
        tca = max(rec.tca for rec in group)
        creations = sorted({rec.creation_date for rec in group})
        arrivals = []
        for created in creations:
            if created > tca:
                logger.warning(
                    "event %s: dropping CDM created %s after TCA %s",
                    event_id, format_timestamp(created), format_timestamp(tca),
                )
                continue
            t = window_days - (tca - created).total_seconds() / SECONDS_PER_DAY
            if t < 0.0:
                logger.warning(
                    "event %s: dropping CDM created %s before window start",
                    event_id, format_timestamp(created),
                )
                continue
            arrivals.append(t)
        if not arrivals:
            continue
        events.append(
            ConjunctionEvent(
                event_id=event_id,
                tca=tca,
                window_days=window_days,
                arrivals=tuple(arrivals),
            )
        )
    return events


def events_to_csv(events: list[ConjunctionEvent]) -> str:
    """Serialize events back to the ingestion CSV schema (second precision)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for event in events:
        tca = format_timestamp(event.tca)
        for t in event.arrivals:
            seconds = round((event.window_days - t) * SECONDS_PER_DAY)
            created = event.tca - timedelta(seconds=seconds)
            writer.writerow([event.event_id, tca, format_timestamp(created)])
    return out.getvalue()


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
