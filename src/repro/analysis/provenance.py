"""Build provenance for benchmark artefacts.

The benchmark's run stamp (``perfbench/run.py``) records the machine
it ran on (see :func:`repro.spice.backends.backend_host_info`); this
module adds the *code* identity — which git revision produced the
numbers, and whether the working tree was dirty — so a benchmark
result can be traced back to an exact source state.  Everything degrades to ``None`` outside a git
checkout (installed wheels, exported tarballs): provenance is
best-effort metadata, never a failure mode.
"""

from __future__ import annotations

import pathlib
import subprocess
from typing import Dict, Optional, Union


def git_revision(start_dir: Union[str, pathlib.Path, None] = None,
                 ) -> Optional[Dict[str, object]]:
    """The enclosing checkout's revision, or ``None`` when unknown.

    Returns ``{"sha": "<short sha>", "dirty": <bool>}``.  ``start_dir``
    anchors the lookup (default: this file's directory, so the result
    describes the *repro* checkout even when the caller runs from
    elsewhere).  Any git failure — no binary, not a repository,
    timeout — yields ``None``.
    """
    directory = pathlib.Path(start_dir) if start_dir is not None \
        else pathlib.Path(__file__).resolve().parent

    def _git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ("git", "-C", str(directory)) + args,
                capture_output=True, text=True, timeout=10.0)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout

    sha = _git("rev-parse", "--short", "HEAD")
    if sha is None or not sha.strip():
        return None
    status = _git("status", "--porcelain")
    return {"sha": sha.strip(),
            "dirty": bool(status.strip()) if status is not None
            else None}
