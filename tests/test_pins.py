"""The pin table's own mechanism: check, record, regenerate, write."""

import math

import pytest

from tests.conftest import PINS_PATH, PinTable, dump_pins, load_pins

Failed = pytest.fail.Exception


def test_a_mismatch_names_the_pin_and_shows_both_values():
    table = PinTable({"family/case": {"clock": 0.5, "sha": "ab"}}, regen=False)
    with pytest.raises(Failed) as failure:
        table.check("family/case", {"clock": 0.75, "sha": "ab"})
    message = str(failure.value)
    assert "pin family/case moved" in message
    assert "family/case ['clock']: 0.5 -> 0.75 (+50%)" in message
    assert "sha" not in message


def test_an_unknown_name_asks_for_a_regeneration():
    with pytest.raises(Failed, match="no pin family/new; run --regen-pins"):
        PinTable({}, regen=False).check("family/new", 1)


def test_a_tuple_observed_against_a_list_entry_is_equal():
    PinTable({"p": [["load", 500, 0.25], "ab"]}, regen=False).check(
        "p", (("load", 500, 0.25), "ab")
    )


def test_a_float_one_ulp_away_is_a_mismatch():
    pinned = 0.0017989877593358522
    table = PinTable({"p": pinned}, regen=False)
    with pytest.raises(Failed, match=repr(pinned)):
        table.check("p", math.nextafter(pinned, 1.0))


def test_an_int_is_not_an_equal_float():
    with pytest.raises(Failed):
        PinTable({"p": 1.0}, regen=False).check("p", 1)


def test_regen_rejects_a_name_observed_twice_with_different_values():
    table = PinTable({}, regen=True)
    table.check("p", [1, 2])
    table.check("p", (1, 2))  # the same value, normalised
    with pytest.raises(Failed, match="pin p observed twice"):
        table.check("p", [1, 3])


def test_regen_rewrites_only_the_names_it_observed():
    table = PinTable({"a": 1.0, "b": "kept", "c": {"x": 1}}, regen=True)
    table.check("a", 3.0)
    table.check("c", {"x": 1})
    table.check("d", "new")
    new, report = table.regenerate()
    assert new == {"a": 3.0, "b": "kept", "c": {"x": 1}, "d": "new"}
    assert report == [
        "a: 1.0 -> 3.0 (+200%)",
        'd: (absent) -> "new"',
        "2 pins moved, 1 unchanged",
        "1 pins not observed (left as they are):",
        "  b",
    ]


def test_writing_the_loaded_table_gives_back_the_file_byte_for_byte():
    assert dump_pins(load_pins()) == PINS_PATH.read_text()
