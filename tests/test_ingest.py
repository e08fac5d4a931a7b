"""Parsing, event assembly, and cutoff-split behaviour."""

import csv
import io
import logging
import random
import warnings
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cadence import ingest
from cadence.errors import FormatError, InsufficientHistoryError, RowError
from cadence.ingest import (
    ConjunctionEvent,
    assemble_events,
    events_to_csv,
    parse_csv,
    split_at_cutoff,
)
from cadence.intensity import PolynomialIntensity
from cadence.point_process import ObservationWindow, simulate_thinning
from support import csv_writer_events_to_csv, round_trip_epoch_seconds

HEADER = "event_id,tca,creation_date\n"
GOOD = "2023-01-10T00:00:00Z"


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def seconds(stamp):
    return int((stamp - utc(1970, 1, 1)).total_seconds())


def stamp(when):
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


def csv_bytes(rows):
    """Ingestion CSV of (event_id, tca, creation_date) rows; datetimes are formatted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["event_id", "tca", "creation_date"])
    writer.writerows([e, stamp(t), stamp(c)] for e, t, c in rows)
    return out.getvalue().encode()


class TestParseCsv:
    def test_single_row(self):
        data = b"event_id,tca,creation_date\nE1,2023-01-10T00:00:00Z,2023-01-03T12:00:00Z\n"
        records = parse_csv(data)
        assert len(records) == 1
        assert records.event_id[0] == "E1"
        assert records.tca[0] == seconds(utc(2023, 1, 10))
        assert records.creation_date[0] == seconds(utc(2023, 1, 3, 12))

    def test_header_only(self):
        assert len(parse_csv(b"event_id,tca,creation_date\n")) == 0

    def test_bad_timestamp_carries_line_number(self):
        data = b"event_id,tca,creation_date\nE1,2023-01-10T00:00:00Z,not-a-date\n"
        with pytest.raises(RowError) as err:
            parse_csv(data)
        assert err.value.line == 2

    def test_malformed_header(self):
        with pytest.raises(FormatError, match="creation_date"):
            parse_csv(b"event_id,tca\nE1,2023-01-10T00:00:00Z\n")

    def test_extra_columns_ignored(self):
        data = (
            b"event_id,tca,creation_date,miss_distance\n"
            b"E1,2023-01-10T00:00:00Z,2023-01-03T12:00:00Z,123\n"
        )
        assert parse_csv(data).event_id[0] == "E1"

    def test_crlf_line_endings(self):
        data = b"event_id,tca,creation_date\r\nE1,2023-01-10T00:00:00Z,2023-01-03T12:00:00Z\r\n"
        assert len(parse_csv(data)) == 1

    @pytest.mark.parametrize("text", [
        "2023-01-03T12:00:00",
        "2023-01-03T12:00:00Z",
        "  2023-01-03T12:00:00Z\t",
        " 2023-01-03T12:00:00 ",
    ])
    def test_accepted_timestamp(self, text):
        records = parse_csv(f"{HEADER}E1,{GOOD},{text}\n".encode())
        assert records.creation_date.tolist() == [seconds(utc(2023, 1, 3, 12))]

    @pytest.mark.parametrize("text", [
        "2023-01-03",  # date only
        "2023-01-03T12:00",  # minute precision
        "2023-01-03 12:00:00",  # space separator
        "2023-01-03T12:00:00.5",  # fractional seconds
        "2023-01-03T12:00:00+00:00",  # offset
        "2023-01-03T12:00:00ZZ",
        "2020-02-30T00:00:00",  # no such day
        "",
        "NaT",
        "now",
        "2020-1-1T1:2:3",  # single-digit fields
        "2023-01-03t12:00:00",  # lowercase separator
        "0000-01-01T00:00:00",  # before year 1
        "10000-01-01T00:00:00",  # five-digit year
    ])
    def test_rejected_timestamp(self, text):
        with pytest.raises(RowError) as err, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_csv(f"{HEADER}E1,{GOOD},{GOOD}\nE1,{GOOD},{text}\n".encode())
        assert err.value.line == 3
        assert repr(text) in str(err.value)
        assert caught == []  # numpy's warning about offsets does not escape

    def test_bad_row_after_first_chunk(self):
        n = ingest.CHUNK_ROWS + 10
        rows = [f"E{k},{GOOD},{GOOD}\n" for k in range(n)]
        rows[n - 3] = f"E,{GOOD},2023-01-03T12:00\n"
        rows[n - 1] = f"E,{GOOD},bad\n"
        with pytest.raises(RowError) as err:
            parse_csv((HEADER + "".join(rows)).encode())
        assert err.value.line == n - 1  # row n - 3 sits on line n - 1

    def test_line_number_counts_quoted_newlines(self):
        data = f'{HEADER}"E\n1",{GOOD},{GOOD}\n\nE2,{GOOD},bad\n'.encode()
        with pytest.raises(RowError) as err:
            parse_csv(data)
        assert err.value.line == 5

    def test_short_row_is_a_row_error(self):
        with pytest.raises(RowError) as err:
            parse_csv(f"{HEADER}E1,{GOOD},{GOOD}\nE1,{GOOD}\n".encode())
        assert err.value.line == 3

    def test_empty_event_id_is_a_row_error(self):
        with pytest.raises(RowError, match="event_id") as err:
            parse_csv(f"{HEADER}E1,{GOOD},{GOOD}\n  ,{GOOD},{GOOD}\n".encode())
        assert err.value.line == 3

    def test_first_bad_row_wins_within_a_chunk(self):
        data = f"{HEADER}E1,{GOOD},{GOOD}\nE1,{GOOD},bad\n,{GOOD},{GOOD}\n".encode()
        with pytest.raises(RowError, match="timestamp") as err:
            parse_csv(data)
        assert err.value.line == 3


# (stamp, accepted): each next to the stamp a one-character slip would give.
ORACLE_STAMPS = [
    ("2023-01-03T12:00", False),  # no seconds
    ("2023-01-03 12:00:00", False),
    ("2023-01-03t12:00:00", False),
    ("2023-01-03T12:00:00.5", False),
    ("2023-01-03T12:00:00+01:00", False),
    ("2023-01-03T12:00:00-0500", False),
    ("now", False),
    ("NaT", False),
    ("\uff12\uff10\uff12\uff13-01-03T12:00:00", False),  # full-width digits
    ("\u0662\u0660\u0662\u0663-01-03T12:00:00", False),  # Arabic-Indic digits
    ("2023-01-03T12:00:00ZZ", False),
    ("0000-01-01T00:00:00", False),
    ("0001-01-01T00:00:00", True),
    ("9999-12-31T23:59:59", True),
    ("10000-01-01T00:00:00", False),
    ("-001-01-01T00:00:00", False),
    ("2028-02-29T00:00:00", True),
    ("2029-02-29T00:00:00", False),
    ("2023-00-10T00:00:00", False),
    ("2023-13-10T00:00:00", False),
    ("2023-01-00T00:00:00", False),
    ("2023-01-03T24:00:00", False),
    ("2023-01-03T12:60:00", False),
    ("2023-01-03T12:00:60", False),
    ("2023/01/03T12:00:00", False),
    (" 2023-01-03T12:00:00Z\t", True),
    ("\u20032023-01-03T12:00:00\u00a0", True),  # Unicode whitespace strips too
]


def parse_outcome(data):
    """parse_csv's columns, or its RowError's line and message."""
    try:
        records = parse_csv(data)
    except RowError as exc:
        return "RowError", exc.line, str(exc)
    return records.event_id, records.tca.tolist(), records.creation_date.tolist()


class TestTimestampOracle:
    """The fixed-width check accepts and rejects what a check by formatting back does."""

    @pytest.mark.parametrize("text, accepted", ORACLE_STAMPS)
    def test_parse_csv_matches_round_trip_check(self, monkeypatch, text, accepted):
        data = f"{HEADER}E1,{GOOD},{GOOD}\nE2,{text},{GOOD}\nE3,{GOOD},{text}\n".encode()
        outcome = parse_outcome(data)
        assert (outcome[0] != "RowError") == accepted
        monkeypatch.setattr(ingest, "_epoch_seconds", round_trip_epoch_seconds)
        assert parse_outcome(data) == outcome

    @pytest.mark.parametrize("only_accepted", [False, True])
    def test_one_chunk_of_every_stamp(self, monkeypatch, only_accepted):
        texts = [text for text, ok in ORACLE_STAMPS if ok or not only_accepted]
        rows = [f"E{k},{GOOD},{text}\n" for k, text in enumerate(texts * 3)]
        data = (HEADER + "".join(rows)).encode()
        outcome = parse_outcome(data)
        assert (outcome[0] != "RowError") == only_accepted
        monkeypatch.setattr(ingest, "_epoch_seconds", round_trip_epoch_seconds)
        assert parse_outcome(data) == outcome

    @given(
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
        st.integers(0, 19),
        st.sampled_from(list("0123456789-T:tZ .+/\uff10\u0660") + [""]),
        st.booleans(),
    )
    def test_one_slip_matches_round_trip_check(self, when, position, char, insert):
        text = when.replace(microsecond=0).isoformat()
        slipped = text[:position] + char + text[position + (not insert):]
        got, want = ingest._epoch_seconds([slipped]), round_trip_epoch_seconds([slipped])
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tolist() == want.tolist()


def make_records(event_id, tca, days_before_tca):
    return [(event_id, tca, tca - timedelta(days=d)) for d in days_before_tca]


def assemble(rows, window_days=7.0):
    return assemble_events(parse_csv(csv_bytes(rows)), window_days)


class TestAssembleEvents:
    def test_window_coordinates(self):
        records = make_records("E1", utc(2023, 1, 10), [6, 4])
        events = assemble(records)
        assert len(events) == 1
        assert events[0].arrivals == pytest.approx((1.0, 3.0))

    def test_duplicates_collapsed(self):
        records = make_records("E1", utc(2023, 1, 10), [4, 4])
        events = assemble(records)
        assert events[0].arrivals == pytest.approx((3.0,))

    def test_out_of_window_record_dropped(self):
        records = make_records("E1", utc(2023, 1, 10), [9, 4])
        events = assemble(records)
        assert events[0].arrivals == pytest.approx((3.0,))

    def test_creation_after_tca_rejected(self):
        records = make_records("E1", utc(2023, 1, 10), [-1])
        assert assemble(records) == []

    def test_latest_tca_wins(self):
        early = ("E1", utc(2023, 1, 10), utc(2023, 1, 6))
        late = ("E1", utc(2023, 1, 11), utc(2023, 1, 8))
        events = assemble([early, late])
        assert events[0].tca == utc(2023, 1, 11)
        # 5 and 3 days before the winning TCA
        assert events[0].arrivals == pytest.approx((2.0, 4.0))

    def test_permutation_invariant(self):
        records = make_records("E1", utc(2023, 1, 10), [6, 5, 4]) + make_records(
            "E2", utc(2023, 1, 12), [3, 2]
        )
        baseline = assemble(records)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert assemble(shuffled) == baseline

    def test_csv_round_trip(self):
        records = make_records("E1", utc(2023, 1, 10), [6.5, 4.25, 1]) + make_records(
            "E2", utc(2023, 2, 1), [3, 0.5]
        )
        events = assemble(records)
        reparsed = assemble_events(parse_csv(events_to_csv(events).encode()), 7.0)
        assert reparsed == events

    def test_window_times_match_timedelta_arithmetic(self):
        tca = utc(2023, 1, 10)
        records = [("E1", tca, tca - timedelta(seconds=s)) for s in (1, 7, 3601, 86399, 600001)]
        window = 7.0
        expected = tuple(sorted(window - (tca - c).total_seconds() / 86400.0 for _, _, c in records))
        assert assemble(records, window)[0].arrivals == expected

    def test_drop_warnings_keep_text_and_order(self, caplog):
        records = (
            make_records("E2", utc(2023, 1, 12), [8, -1, 2])
            + make_records("E1", utc(2023, 1, 10), [-0.5, 10, 3, 10])
        )
        with caplog.at_level(logging.WARNING, logger="cadence.ingest"):
            events = assemble(records)
        assert [e.event_id for e in events] == ["E1", "E2"]
        assert caplog.messages == [
            "event E1: dropping CDM created 2022-12-31T00:00:00Z before window start",
            "event E1: dropping CDM created 2023-01-10T12:00:00Z after TCA 2023-01-10T00:00:00Z",
            "event E2: dropping CDM created 2023-01-04T00:00:00Z before window start",
            "event E2: dropping CDM created 2023-01-13T00:00:00Z after TCA 2023-01-12T00:00:00Z",
        ]


def simulated_events(n):
    model = PolynomialIntensity((2.0, -1.2, 0.0, 0.04))
    window = ObservationWindow(0.0, 7.0)
    events = []
    for k in range(n):
        arrivals = simulate_thinning(model, window, 1000 + k)
        if arrivals:
            tca = utc(2030, 1, 1) + timedelta(days=k, seconds=37 * k)
            events.append(ConjunctionEvent(f"SYN{k:03d}", tca, 7.0, tuple(arrivals)))
    return events


def strftime_csv(events):
    """events_to_csv one row at a time with datetime arithmetic."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["event_id", "tca", "creation_date"])
    for event in events:
        for t in event.arrivals:
            created = event.tca - timedelta(seconds=round((event.window_days - t) * 86400.0))
            writer.writerow([event.event_id, stamp(event.tca), stamp(created)])
    return out.getvalue()


class TestEventsToCsv:
    def test_matches_per_row_strftime(self, monkeypatch):
        events = simulated_events(200)
        assert len(events) > 150
        expected = strftime_csv(events)
        assert events_to_csv(events) == expected
        monkeypatch.setattr(ingest, "CHUNK_EVENTS", 7)  # many chunks, one partial
        assert events_to_csv(events) == expected

    def test_quoted_event_id_round_trips(self):
        event = ConjunctionEvent('A,"B"', utc(2023, 1, 10), 7.0, (1.0, 3.5))
        text = events_to_csv([event])
        assert text.splitlines()[1] == '"A,""B""",2023-01-10T00:00:00Z,2023-01-04T00:00:00Z'
        assert assemble_events(parse_csv(text.encode()), 7.0) == [event]


# Ids that csv.writer quotes and near misses it writes bare (it leaves a '\r' unquoted).
ODD_IDS = ["A,B", 'say "hi"', '"', ",", "CR\rX", "\r", "LF\nX", "\n", "CRLF\r\nX",
           " lead", "trail ", "tab\tX", "\u00fcn\u00efc\u00f8d\u00e9 \u0394", "\u2028", ""]

# Every character of ODD_IDS but '\r', plus NUL and a separator str.strip drops.
ID_CHARACTERS = sorted(set("".join(ODD_IDS) + "aZ09-_\x00\x1c") - {"\r"})
# Round-trip ids: parse_csv strips ids and rejects an empty one, and a bare
# '\r' is not valid CSV.
round_trip_ids = st.text(st.sampled_from(ID_CHARACTERS), min_size=1, max_size=6).filter(
    lambda text: text == text.strip())


@st.composite
def csv_events(draw, ids=round_trip_ids):
    events = []
    for _ in range(draw(st.integers(0, 5))):
        window = draw(st.sampled_from([7.0, 2.75, 0.3]))
        arrivals = draw(st.lists(st.floats(0.0, window), max_size=6, unique=True))
        tca = utc(1990, 1, 1) + timedelta(seconds=draw(st.integers(0, 2 * 10**9)))
        events.append(ConjunctionEvent(draw(ids), tca, window, tuple(sorted(arrivals))))
    return events


class TestEventsToCsvOracle:
    """events_to_csv writes the bytes of csv.writer.writerows over every row."""

    def test_simulated_events(self, monkeypatch):
        events = simulated_events(200)
        expected = csv_writer_events_to_csv(events)
        assert events_to_csv(events) == expected
        monkeypatch.setattr(ingest, "CHUNK_EVENTS", 7)
        assert events_to_csv(events) == expected

    def test_odd_event_ids(self, monkeypatch):
        rng = random.Random(4)
        events = [ConjunctionEvent(event_id, utc(2023, 1, 10) + timedelta(hours=k), 7.0,
                                   tuple(t / 100 for t in sorted(rng.sample(range(700), 1 + k % 3))))
                  for k, event_id in enumerate(ODD_IDS)]
        events.append(ConjunctionEvent("NONE", utc(2023, 1, 10), 7.0, ()))
        expected = csv_writer_events_to_csv(events)
        assert events_to_csv(events) == expected
        monkeypatch.setattr(ingest, "CHUNK_EVENTS", 2)
        assert events_to_csv(events) == expected

    @given(csv_events(ids=st.sampled_from(ODD_IDS) | st.text(st.sampled_from(ID_CHARACTERS + ["\r"]),
                                                              max_size=6)))
    def test_random_events(self, events):
        assert events_to_csv(events) == csv_writer_events_to_csv(events)

    @given(csv_events())
    def test_parse_csv_reads_back_every_row(self, events):
        records = parse_csv(events_to_csv(events).encode())
        rows = [(e, t) for e in events for t in e.arrivals]
        assert records.event_id == [e.event_id for e, _ in rows]
        assert records.tca.tolist() == [seconds(e.tca) for e, _ in rows]
        assert records.creation_date.tolist() == [
            seconds(e.tca) - round((e.window_days - t) * 86400.0) for e, t in rows]


class TestSplitAtCutoff:
    def event(self, days_to_tca, window=7.0):
        arrivals = tuple(sorted(window - d for d in days_to_tca))
        return ConjunctionEvent("E1", utc(2023, 1, 10), window, arrivals)

    def test_threshold_partition(self):
        history, future = split_at_cutoff(self.event([6, 4, 3, 1]), 2.5)
        assert history == pytest.approx([1.0, 3.0, 4.0])
        assert future == pytest.approx([6.0])

    def test_boundary_goes_to_history(self):
        history, future = split_at_cutoff(self.event([2.5, 1]), 2.5)
        assert history == pytest.approx([4.5])
        assert future == pytest.approx([6.0])

    def test_all_after_cutoff_errors(self):
        with pytest.raises(InsufficientHistoryError):
            split_at_cutoff(self.event([2, 1]), 2.5)

    def test_partition_is_exhaustive_and_ordered(self):
        event = self.event([6.9, 5, 4.2, 2.5, 2, 0.4])
        for cutoff in (0.5, 1.7, 2.5, 3.3, 6.0):
            try:
                history, future = split_at_cutoff(event, cutoff)
            except InsufficientHistoryError:
                continue
            assert len(history) + len(future) == len(event.arrivals)
            t_c = event.window_days - cutoff
            assert max(history) <= t_c
            if future:
                assert min(future) > t_c

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            split_at_cutoff(self.event([4]), 7.5)


class TestEventInvariants:
    def test_arrivals_must_increase(self):
        with pytest.raises(ValueError):
            ConjunctionEvent("E", utc(2023, 1, 1), 7.0, (3.0, 3.0))

    def test_arrivals_must_be_in_window(self):
        with pytest.raises(ValueError):
            ConjunctionEvent("E", utc(2023, 1, 1), 7.0, (8.0,))

    def test_event_id_required(self):
        with pytest.raises(ValueError):
            parse_csv(csv_bytes([("", utc(2023, 1, 2), utc(2023, 1, 1))]))
