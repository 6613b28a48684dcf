import importlib.util
import pathlib

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_quartiles_inclusive_and_of_one_value():
    assert ab.quartiles([10.0, 11.0, 12.0, 13.0, 14.0]) == (11.0, 13.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 3.25)
    assert ab.quartiles([5.0]) == (5.0, 5.0)


def test_summary_of_a_lower_is_better_gain():
    base = [10.0, 10.5, 10.25, 10.0, 10.75, 10.5]
    head = [9.5, 9.25, 10.75, 9.5, 9.25, 9.5]
    s = ab.summarize(base, head, "lower", 0.25)
    assert s["base_median"] == 10.375 and s["head_median"] == 9.5
    assert s["base_iqr"] == [10.0625, 10.5]
    assert s["change"] == pytest.approx(-0.875 / 10.375)
    assert s["wins"] == 5 and s["pairs"] == 6  # pair 3 reads worse
    assert s["bound_holds"] and s["beyond_iqr"]


def test_summary_of_a_higher_is_better_loss_past_its_bound():
    s = ab.summarize([100.0, 100.0, 100.0], [80.0, 100.0, 70.0], "higher", 0.15)
    assert s["head_median"] == 80.0 and s["change"] == pytest.approx(0.2)
    assert s["wins"] == 0  # a tie counts for neither side
    assert not s["bound_holds"] and not s["beyond_iqr"]
    assert ab.summarize([100.0] * 3, [86.0] * 3, "higher", 0.15)["bound_holds"]


def test_summary_within_the_base_spread_is_no_gain():
    s = ab.summarize([10.0, 12.0, 11.0, 9.0, 13.0], [10.5] * 5, "lower", 0.25)
    assert s["base_iqr"] == [10.0, 12.0] and s["change"] == pytest.approx(-0.5 / 11)
    assert s["wins"] == 3 and s["bound_holds"] and not s["beyond_iqr"]


def test_summary_of_equal_values_and_a_zero_base():
    same = ab.summarize([0.7] * 4, [0.7] * 4, "higher", 0.15)
    assert same["change"] == 0.0 and same["wins"] == 0 and same["bound_holds"]
    assert not same["beyond_iqr"]
    assert ab.summarize([0.0, 0.0], [0.0, 0.0], "lower", 0.1)["bound_holds"]
    assert not ab.summarize([0.0, 0.0], [1.0, 1.0], "lower", 0.1)["bound_holds"]
