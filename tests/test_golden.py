"""The compiled library constants are pinned bit-exactly.

A change in compilation, registration order, or the coding scheme is a
breaking change to every stored realiser; this file makes it loud.
"""

import json
import pathlib

from kleeneset import romlib as rom, terms

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_constants.json")
    .read_text())


def test_library_table_size_is_stable():
    # the size romlib records at the end of its import, below every rewind
    assert terms._library_size == GOLDEN["library_table_size"]


def test_every_named_constant_matches():
    mismatches = []
    for name, want in GOLDEN["codes"].items():
        got = getattr(rom, name)
        if str(got) != want:
            mismatches.append(name)
    assert not mismatches, mismatches


def test_delta_iota_golden_relation():
    from kleeneset.pairing import pair
    assert int(GOLDEN["codes"]["IOTA"]) == pair(int(GOLDEN["codes"]["DELTA"]),
                                                int(GOLDEN["codes"]["DELTA"]))
