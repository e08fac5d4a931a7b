"""Parsing, event assembly, and cutoff-split behaviour."""

import random
from datetime import datetime, timezone

import pytest

from cadence.errors import FormatError, InsufficientHistoryError, RowError
from cadence.ingest import (
    CdmRecord,
    ConjunctionEvent,
    assemble_events,
    events_to_csv,
    parse_csv,
    split_at_cutoff,
)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


class TestParseCsv:
    def test_single_row(self):
        data = b"event_id,tca,creation_date\nE1,2023-01-10T00:00:00Z,2023-01-03T12:00:00Z\n"
        records = parse_csv(data)
        assert len(records) == 1
        assert records[0].event_id == "E1"
        assert records[0].tca == utc(2023, 1, 10)
        assert records[0].creation_date == utc(2023, 1, 3, 12)

    def test_header_only(self):
        assert parse_csv(b"event_id,tca,creation_date\n") == []

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
        assert parse_csv(data)[0].event_id == "E1"

    def test_crlf_line_endings(self):
        data = b"event_id,tca,creation_date\r\nE1,2023-01-10T00:00:00Z,2023-01-03T12:00:00Z\r\n"
        assert len(parse_csv(data)) == 1


def make_records(event_id, tca, days_before_tca):
    from datetime import timedelta

    return [
        CdmRecord(event_id=event_id, tca=tca, creation_date=tca - timedelta(days=d))
        for d in days_before_tca
    ]


class TestAssembleEvents:
    def test_window_coordinates(self):
        records = make_records("E1", utc(2023, 1, 10), [6, 4])
        events = assemble_events(records, 7.0)
        assert len(events) == 1
        assert events[0].arrivals == pytest.approx((1.0, 3.0))

    def test_duplicates_collapsed(self):
        records = make_records("E1", utc(2023, 1, 10), [4, 4])
        events = assemble_events(records, 7.0)
        assert events[0].arrivals == pytest.approx((3.0,))

    def test_out_of_window_record_dropped(self):
        records = make_records("E1", utc(2023, 1, 10), [9, 4])
        events = assemble_events(records, 7.0)
        assert events[0].arrivals == pytest.approx((3.0,))

    def test_creation_after_tca_rejected(self):
        records = make_records("E1", utc(2023, 1, 10), [-1])
        assert assemble_events(records, 7.0) == []

    def test_latest_tca_wins(self):
        from datetime import timedelta

        early = CdmRecord("E1", utc(2023, 1, 10), utc(2023, 1, 6))
        late = CdmRecord("E1", utc(2023, 1, 11), utc(2023, 1, 8))
        events = assemble_events([early, late], 7.0)
        assert events[0].tca == utc(2023, 1, 11)
        # 5 and 3 days before the winning TCA
        assert events[0].arrivals == pytest.approx((2.0, 4.0))

    def test_permutation_invariant(self):
        records = make_records("E1", utc(2023, 1, 10), [6, 5, 4]) + make_records(
            "E2", utc(2023, 1, 12), [3, 2]
        )
        baseline = assemble_events(records, 7.0)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert assemble_events(shuffled, 7.0) == baseline

    def test_csv_round_trip(self):
        records = make_records("E1", utc(2023, 1, 10), [6.5, 4.25, 1]) + make_records(
            "E2", utc(2023, 2, 1), [3, 0.5]
        )
        events = assemble_events(records, 7.0)
        reparsed = assemble_events(parse_csv(events_to_csv(events).encode()), 7.0)
        assert reparsed == events


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
            CdmRecord("", utc(2023, 1, 2), utc(2023, 1, 1))
