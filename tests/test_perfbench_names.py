"""The benchmark's traced run wraps suite functions by name, so a rename breaks it.

``perfbench/launch.py`` wraps names such as ``ShoutHandler._dispatch``,
``Store.receive_shout`` and ``aa.miner.flag_deviation`` before a traced run
and raises AttributeError if one is missing. This runs that step alone.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_instrument_finds_every_wrapped_name():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import launch, spans; "
            "launch.instrument(spans.Tracer())")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
