import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# run by a child pytest with this directory's conftest as a plugin: a
# garbage-collector callback busy-waits past the limit, so the first ring
# lands in it, and the interpreter drops the raise
_SWALLOWED_RING = '''
import gc
import time

import pytest
from conftest import TimeLimitExceeded


def test_a_ring_dropped_in_a_collector_callback_rings_again(time_limit):
    waited = []

    def slow(phase, info):
        if phase == "start" and not waited:
            waited.append(phase)
            end = time.monotonic() + 0.5
            while time.monotonic() < end:
                pass

    try:
        with pytest.raises(TimeLimitExceeded):
            with time_limit(0.1, "the body"):
                gc.callbacks.append(slow)
                while True:
                    junk = [[] for _ in range(5000)]  # past the first threshold
    finally:
        gc.callbacks.remove(slow)
    assert waited
'''


def test_time_limit_stops_a_body_whose_first_ring_is_dropped(tmp_path, child_env):
    body = tmp_path / "test_swallowed_ring.py"
    body.write_text(_SWALLOWED_RING, encoding="utf-8")
    env = {**child_env, "PYTHONPATH": os.pathsep.join([str(TESTS), child_env["PYTHONPATH"]])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "--rootdir", str(tmp_path), str(body)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
