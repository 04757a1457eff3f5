"""Unit tests for :mod:`repro.fingerprint.database`."""

import numpy as np
import pytest

from repro.fingerprint.database import PAPER_TIMESTAMPS_DAYS, FingerprintDatabase
from repro.fingerprint.matrix import FingerprintMatrix


def make_matrix(offset=0.0):
    return FingerprintMatrix(values=np.full((3, 12), -60.0 + offset), locations_per_link=4)


class TestConstruction:
    def test_original_snapshot_present(self):
        database = FingerprintDatabase(make_matrix())
        assert 0.0 in database
        assert len(database) == 1

    def test_paper_timestamps_constant(self):
        assert PAPER_TIMESTAMPS_DAYS == (0.0, 3.0, 5.0, 15.0, 45.0, 90.0)


class TestSnapshots:
    def test_add_and_get(self):
        database = FingerprintDatabase(make_matrix())
        database.add_snapshot(5.0, make_matrix(1.0))
        assert database.get(5.0).values[0, 0] == pytest.approx(-59.0)

    def test_timestamps_sorted(self):
        database = FingerprintDatabase(make_matrix())
        database.add_snapshot(45.0, make_matrix())
        database.add_snapshot(3.0, make_matrix())
        assert database.timestamps == [0.0, 3.0, 45.0]

    def test_iteration_order(self):
        database = FingerprintDatabase(make_matrix())
        database.add_snapshot(10.0, make_matrix())
        days = [snapshot.elapsed_days for snapshot in database]
        assert days == [0.0, 10.0]

    def test_mark_as_current(self):
        database = FingerprintDatabase(make_matrix())
        database.add_snapshot(5.0, make_matrix(2.0), mark_as_current=True)
        assert database.current.values[0, 0] == pytest.approx(-58.0)

    def test_ground_truth_snapshots_do_not_change_current(self):
        database = FingerprintDatabase(make_matrix())
        database.add_snapshot(5.0, make_matrix(2.0), mark_as_current=False)
        assert database.current.values[0, 0] == pytest.approx(-60.0)

    def test_shape_mismatch_rejected(self):
        database = FingerprintDatabase(make_matrix())
        other = FingerprintMatrix(values=np.zeros((3, 9)), locations_per_link=3)
        with pytest.raises(ValueError):
            database.add_snapshot(1.0, other)

    def test_negative_time_rejected(self):
        database = FingerprintDatabase(make_matrix())
        with pytest.raises(ValueError):
            database.add_snapshot(-1.0, make_matrix())

    def test_missing_snapshot_raises(self):
        database = FingerprintDatabase(make_matrix())
        with pytest.raises(KeyError):
            database.get(7.0)
