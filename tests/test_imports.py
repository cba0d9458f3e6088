"""Importing the package loads numpy and the estimator, nothing heavier.

Every process that imports ``repro`` pays for what the import loads: a
CLI verb, the benchmark's setup, each spawn-started shard worker.  SciPy
is a test oracle only, and ``http.server`` (with the ``email`` package it
pulls in) loads when a metrics endpoint is first built.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_loads_no_scipy_or_http_server():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "from repro import Rim, RimConfig, obs\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    loaded = proc.stdout.split()
    assert "repro.core.rim" in loaded
    heavy = [
        name
        for name in loaded
        if name.split(".")[0] in ("scipy", "email") or name == "http.server"
    ]
    assert heavy == []
