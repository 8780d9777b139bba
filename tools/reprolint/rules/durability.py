"""REPRO801 — one owner for file-level durability.

Every durable file the system writes goes through
``src/repro/core/autotune/store.py``: :class:`AppendLog` (the append-only
log behind ``TuningDatabase`` and the daemon's request journal — header
install, per-line append, fsync'd snapshot, torn-tail truncation) and the
atomic temp-file + ``os.replace`` writer the JSON map export and the
in-place map conversion use.  The crash
windows of that code are fault-injection tested once, in
``tests/test_append_log.py``.  A second copy elsewhere in ``src/`` would
carry the same crash windows untested, so the module-level calls that
implement them — ``os.replace``/``rename``/``truncate``/``ftruncate``/
``fsync``/``fdatasync``, ``shutil.move`` and ``tempfile.mkstemp``/
``mkdtemp``/``NamedTemporaryFile`` — are banned in ``src/`` outside that
module.  Persist through an ``AppendLog`` or the store module's writers
instead.  Method calls (``Path.replace``, ``file.truncate``) are out of
reach of a static call resolver and are not checked.

Scoped to ``src/``: tests and benchmarks call these directly to inject
faults and stage files.
"""

from __future__ import annotations

import ast
from typing import List

from .. import astutil
from ..findings import Finding
from ..registry import Rule, register
from ..runner import FileContext, ProjectIndex
from .determinism import _resolve_call

#: the one module allowed to make the calls below.
OWNER = "src/repro/core/autotune/store.py"

_DURABILITY_CALLS = {
    ("os", "replace"),
    ("os", "rename"),
    ("os", "truncate"),
    ("os", "ftruncate"),
    ("os", "fsync"),
    ("os", "fdatasync"),
    ("shutil", "move"),
    ("tempfile", "mkstemp"),
    ("tempfile", "mkdtemp"),
    ("tempfile", "NamedTemporaryFile"),
}


@register
class DurabilityOwnerRule(Rule):
    name = "durability-owner"
    codes = {
        "REPRO801": (
            "file-durability call (os.replace/rename/truncate/ftruncate/fsync/"
            "fdatasync, shutil.move, tempfile.mkstemp/mkdtemp/NamedTemporaryFile) "
            "in src/ outside src/repro/core/autotune/store.py; persist through "
            "AppendLog or the store module's atomic writers"
        ),
    }

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/") and relpath != OWNER

    def check(self, ctx: FileContext, project: ProjectIndex) -> List[Finding]:
        tree = ctx.tree
        assert tree is not None
        aliases = astutil.module_aliases(tree)
        imported = astutil.from_imports(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            resolved = _resolve_call(node, aliases, imported)
            if resolved in _DURABILITY_CALLS:
                findings.append(
                    ctx.finding(
                        "REPRO801",
                        node,
                        f"'{'.'.join(resolved)}' outside {OWNER}; a second "
                        "durable-file implementation grows untested crash windows",
                    )
                )
        return findings
