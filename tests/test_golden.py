"""The compiled library constants are pinned bit-exactly.

A change in compilation, registration order, or the coding scheme is a
breaking change to every stored realiser; this file makes it loud.
"""

import json
import pathlib
import subprocess
import sys

from kleeneset import romlib as rom

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_constants.json")
    .read_text())


def test_library_table_size_is_stable(child_env):
    # in a fresh process: test modules register programs of their own at import
    script = "import kleeneset; from kleeneset import terms; print(terms.rom_size())"
    size = subprocess.run([sys.executable, "-c", script], env=child_env,
                          capture_output=True, text=True, check=True).stdout
    assert int(size) == GOLDEN["library_table_size"]


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
