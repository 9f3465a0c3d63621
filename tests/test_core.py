import itertools
import math

import numpy as np
import pytest

from oracles import mask_from_indices
from survix.core import (
    InteractionExplanation,
    PredictionTarget,
    SurvivalDataset,
    TimeGrid,
    build_time_grid,
    coalition_iter,
    coalition_label,
    indices_from_mask,
    parse_coalition_label,
)


class TestTimeGrid:
    def test_even_grid_arithmetic_spacing(self):
        grid = build_time_grid(70, 7)
        assert np.allclose(grid.points, [10, 20, 30, 40, 50, 60, 70])

    def test_single_point(self):
        grid = build_time_grid(70, 1)
        assert grid.points.tolist() == [70.0]

    def test_41_even_points_end_at_horizon(self):
        grid = build_time_grid(70, 41)
        assert len(grid) == 41
        assert grid.points[-1] == 70.0
        assert np.allclose(np.diff(grid.points), 70 / 41)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_time_grid(0, 5)
        with pytest.raises(ValueError):
            build_time_grid(70, 0)
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0]), 2.0)  # t=0 excluded
        with pytest.raises(ValueError):
            TimeGrid(np.array([2.0, 1.0]), 2.0)


class TestCoalitions:
    def test_power_set_of_three(self):
        masks = list(coalition_iter(3, 3))
        assert len(masks) == 8
        assert len(set(masks)) == 8
        assert masks[0] == 0

    def test_empty_plus_singletons(self):
        assert len(list(coalition_iter(3, 1))) == 4

    def test_counts_against_brute_force(self):
        # oracle: enumerate subsets of {0..4} and count the small ones
        oracle = sum(
            1
            for r in range(6)
            for _ in itertools.combinations(range(5), r)
            if r <= 2
        )
        assert oracle == 16
        assert len(list(coalition_iter(5, 2))) == oracle

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_full_enumeration_distinct(self, p):
        masks = list(coalition_iter(p, p))
        assert len(masks) == 2 ** p
        assert len(set(masks)) == 2 ** p

    def test_canonical_order(self):
        masks = list(coalition_iter(4, 4))
        keys = [(bin(m).count("1"), m) for m in masks]
        assert keys == sorted(keys)

    def test_mask_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(1, 20))
            size = int(rng.integers(0, p + 1))
            idx = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
            assert indices_from_mask(mask_from_indices(idx, p)) == idx

    def test_labels(self):
        assert coalition_label((0, 2)) == "1+3"
        assert parse_coalition_label("1+3") == (0, 2)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            list(coalition_iter(31, 2))
        with pytest.raises(ValueError):
            mask_from_indices((5,), 3)


class TestSurvivalDataset:
    def _data(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 3))
        y = rng.uniform(0.1, 70, size=20)
        d = (rng.uniform(size=20) < 0.7).astype(int)
        d[0] = 1
        return SurvivalDataset(X, y, d)

    def test_validation(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError):
            SurvivalDataset(X, np.array([1, 2, 3, -1.0]), np.array([1, 0, 0, 0]))
        with pytest.raises(ValueError):
            SurvivalDataset(X, np.ones(4), np.array([1, 0, 2, 0]))
        with pytest.raises(ValueError):
            SurvivalDataset(X, np.ones(4), np.zeros(4, dtype=int))

    def test_csv_round_trip(self, tmp_path):
        data = self._data()
        path = tmp_path / "d.csv"
        data.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,time,event"
        back = SurvivalDataset.from_csv(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.times, data.times)
        assert np.array_equal(back.events, data.events)

    def test_immutability(self):
        data = self._data()
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0


class TestInteractionExplanation:
    def _expl(self):
        grid = build_time_grid(10, 5)
        rng = np.random.default_rng(2)
        values = {
            (0,): rng.standard_normal(5),
            (1,): rng.standard_normal(5),
            (0, 1): rng.standard_normal(5),
        }
        return InteractionExplanation(
            order=2, target=PredictionTarget.HAZARD, grid=grid,
            baseline=rng.standard_normal(5), values=values,
        )

    def test_validation(self):
        grid = build_time_grid(10, 5)
        with pytest.raises(ValueError):
            InteractionExplanation(order=1, target=PredictionTarget.HAZARD,
                                   grid=grid, baseline=np.zeros(5),
                                   values={(0, 1): np.zeros(5)})
        with pytest.raises(ValueError):
            InteractionExplanation(order=1, target=PredictionTarget.HAZARD,
                                   grid=grid, baseline=np.zeros(5),
                                   values={(0,): np.zeros(4)})

    @pytest.mark.parametrize("baseline, values, message", [
        (np.zeros(5), {(0, 1): np.zeros(5)}, r"coalition \(0, 1\) outside orders 1..1"),
        (np.zeros(5), {(): np.zeros(5)}, r"coalition \(\) outside orders 1..1"),
        (np.zeros(5), {(0,): np.zeros(4)}, r"curve for \(0,\) has wrong length"),
        (np.zeros(5), {(0,): np.zeros((1, 5))}, r"curve for \(0,\) has wrong length"),
        (np.zeros(4), {(0,): np.zeros(5)}, "baseline length must match grid"),
    ])
    def test_validation_messages(self, baseline, values, message):
        with pytest.raises(ValueError, match=message):
            InteractionExplanation(order=1, target=PredictionTarget.HAZARD,
                                   grid=build_time_grid(10, 5), baseline=baseline,
                                   values=values)

    def test_curves_are_read_only_rows_of_one_array(self):
        rng = np.random.default_rng(4)
        given = {(2, 0): rng.standard_normal(5), (1,): list(rng.standard_normal(5)),
                 (np.int64(0),): rng.standard_normal(5)}
        expl = InteractionExplanation(order=2, target=PredictionTarget.HAZARD,
                                      grid=build_time_grid(10, 5),
                                      baseline=np.zeros(5), values=given)
        # canonical keys of plain ints, in canonical order: size, then indices
        assert list(expl.values) == [(0,), (1,), (0, 2)]
        assert all(type(i) is int for key in expl.values for i in key)
        rows = list(expl.values.values())
        assert all(row.base is rows[0].base for row in rows)
        assert rows[0].base.shape == (3, 5) and not rows[0].base.flags.writeable
        for key, want in zip(expl.values, [(np.int64(0),), (1,), (2, 0)]):
            assert np.array_equal(expl.values[key], np.asarray(given[want], dtype=float))
            with pytest.raises(ValueError):
                expl.values[key][0] = 1.0
        # the rows are copies: the caller's arrays stay writable and apart
        given[(2, 0)][0] = 99.0
        assert expl.values[(0, 2)][0] != 99.0

    def test_no_curves(self):
        expl = InteractionExplanation(order=1, target=PredictionTarget.HAZARD,
                                      grid=build_time_grid(10, 5),
                                      baseline=np.ones(5), values={})
        assert expl.values == {} and np.array_equal(expl.attribution_sum(), np.ones(5))

    def test_json_round_trip_value_identical(self, tmp_path):
        expl = self._expl()
        path = tmp_path / "e.json"
        expl.to_json(path)
        back = InteractionExplanation.from_json(path)
        assert back.order == expl.order and back.target == expl.target
        assert np.array_equal(back.baseline, expl.baseline)
        assert set(back.values) == set(expl.values)
        for key in expl.values:
            assert np.array_equal(back.values[key], expl.values[key])

    def test_csv_round_trip_value_identical(self, tmp_path):
        expl = self._expl()
        path = tmp_path / "e.csv"
        expl.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1] == "coalition,t,value"
        assert lines[2].startswith("baseline,")
        assert any(line.startswith("1+2,") for line in lines)
        back = InteractionExplanation.from_csv(path)
        assert np.array_equal(back.baseline, expl.baseline)
        for key in expl.values:
            assert np.array_equal(back.values[key], expl.values[key])

    def test_attribution_sum(self):
        expl = self._expl()
        expected = expl.baseline + sum(expl.values.values())
        assert np.allclose(expl.attribution_sum(), expected, atol=1e-14, rtol=0)
