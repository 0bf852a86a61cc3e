"""``tools/profile.py --check`` holds the committed ``BENCH_profile.json`` to the code.

Its ``depths`` and ``layers`` blocks are deterministic: any change that moves
a count, a quality total or a size fails here until the file is rewritten.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import elastic_mine as em

SRC = str(Path(em.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]
PROFILE = ROOT / "BENCH_profile.json"


def _check(*args) -> subprocess.CompletedProcess:
    """``tools/profile.py --check`` run by a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "profile.py"), "--check", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True)


def test_committed_profile_matches_the_code():
    run = _check()
    assert run.returncode == 0, run.stdout + run.stderr
    assert "depths and layers match" in run.stdout


def test_check_names_each_changed_value(tmp_path):
    """A changed total fails the check, which names that key and no other. The
    value it reports as recomputed is the committed one, so this recomputation
    and the one above agree with the file, and with each other, in every value."""
    profile = json.loads(PROFILE.read_text(encoding="utf-8"))
    kept = profile["depths"]["knn-skin"]["d3"]["scanned_refined"]
    profile["depths"]["knn-skin"]["d3"]["scanned_refined"] = kept + 1
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(profile), encoding="utf-8")
    run = _check("--file", changed)
    assert run.returncode == 1
    assert run.stdout.splitlines() == [
        f"changed.json: depths.knn-skin.d3.scanned_refined: file {kept + 1}, now {kept}"
    ]
