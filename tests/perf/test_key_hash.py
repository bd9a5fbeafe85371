"""The L1 and memo keys hash once, and never carry that hash across processes.

:class:`~repro.perf.cache.CacheKey` and :class:`~repro.perf.memo.EstimateKey`
compute their hash at construction, because a warm hit hashes its key
at least twice.  String hashes differ between processes (``PYTHONHASHSEED``),
so a key pickled in one process must hash afresh in the next: unpickled
in a subprocess with another hash seed, it must find the entry a freshly
built equal key stored.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.perf.cache import CacheKey
from repro.perf.memo import EstimateKey

_EXTENT = (0.0, 0.0, 1.0, 1.0)


def _keys() -> tuple[CacheKey, EstimateKey]:
    return (
        CacheKey("f" * 40, "gh", 7, _EXTENT),
        EstimateKey("f" * 40, "e" * 40, "gh(level=7)", _EXTENT),
    )


_LOOKUP = """
import pickle, sys
from repro.perf.cache import CacheKey
from repro.perf.memo import EstimateKey
extent = (0.0, 0.0, 1.0, 1.0)
fresh = {
    CacheKey("f" * 40, "gh", 7, extent): "histogram",
    EstimateKey("f" * 40, "e" * 40, "gh(level=7)", extent): "estimate",
}
cache_key, estimate_key = pickle.loads(sys.stdin.buffer.read())
print(fresh[cache_key], fresh[estimate_key], hash("f" * 40))
"""


def test_equal_keys_hash_alike_and_keep_their_fields():
    for key, twin in zip(_keys(), _keys()):
        assert key == twin and hash(key) == hash(twin)
        assert "_hash" not in repr(key)
        assert pickle.loads(pickle.dumps(key)) == key


def test_a_pickled_key_is_found_under_another_hash_seed():
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _LOOKUP],
        input=pickle.dumps(_keys()),
        env=env,
        capture_output=True,
        timeout=120,
        check=True,
    )
    histogram, estimate, other_hash = done.stdout.decode().split()
    assert (histogram, estimate) == ("histogram", "estimate")
    # The subprocess really hashed strings differently from this one.
    assert int(other_hash) != hash("f" * 40)
