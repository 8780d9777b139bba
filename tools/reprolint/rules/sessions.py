"""REPRO401/REPRO402 — session purity.

Every tuner runs as the one step-wise ``TuningSession`` (``propose() ->
configs`` / ``update(configs, executions)`` / ``finished`` / ``result``)
over its search generator, ``records = yield configs`` (``_search``).  Two
things keep the service-driven trajectories bit-identical to
``tune_direct()``:

* **REPRO401 (session shape)** — a class that offers ``propose`` *and*
  ``update`` is a session and must expose the full shape: ``propose(self)``
  with no required extra parameters, ``update(self, configs, executions)``
  with exactly two, a ``finished`` property/method, and a ``result``
  attribute (assigned in ``__init__`` or class-annotated).  A shape drift
  compiles fine and only explodes when the service schedules the session.
* **REPRO402 (no mid-run database consult)** — sessions and search loops
  own all RNG and never look at the shared ``TuningDatabase``;
  lookups/stores are the driver's job at submit/finalize time (the
  engine's ``tune()`` is such a driver).  A search that consults the
  database mid-run makes its trajectory depend on what *other* requests
  finished first — the exact nondeterminism the streaming pool's
  record-injection contract forbids.  The rule bans any reference to
  ``TuningDatabase`` or a ``.database`` attribute inside a session class
  and inside every ``_search`` method, whatever class defines it.

``typing.Protocol`` classes are exempt.  Scoped to ``src/``: test doubles
may fake partial sessions on purpose.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .. import astutil
from ..findings import Finding
from ..registry import Rule, register
from ..runner import FileContext, ProjectIndex

_REQUIRED = ("propose", "update", "finished", "result")


def _is_protocol(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        chain = astutil.attr_chain(base) or ""
        name = chain.split(".")[-1]
        if name in ("Protocol", "ABC") or name.endswith("Protocol"):
            return True
    return False


def _positional_arity(func: ast.FunctionDef) -> int:
    """Number of *required* positional parameters, ``self`` excluded."""
    args = func.args
    required = len(args.posonlyargs) + len(args.args) - len(args.defaults)
    return max(0, required - 1)


@register
class SessionPurityRule(Rule):
    name = "session-purity"
    codes = {
        "REPRO401": (
            "session class does not implement the session shape "
            "(propose(self) / update(self, configs, executions) / "
            "finished / result)"
        ),
        "REPRO402": (
            "session class or _search loop references the TuningDatabase "
            "(a search must not consult the database mid-run; lookups/stores "
            "belong to the driver, or bit-identity vs tune_direct() breaks)"
        ),
    }

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/")

    def check(self, ctx: FileContext, project: ProjectIndex) -> List[Finding]:
        tree = ctx.tree
        assert tree is not None
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or _is_protocol(node):
                continue
            methods = {m.name: m for m in astutil.class_methods(node)}
            if "propose" in methods and "update" in methods:
                findings.extend(self._check_shape(ctx, node, methods))
                findings.extend(
                    self._check_database_purity(ctx, node, f"session class '{node.name}'")
                )
            elif "_search" in methods:
                findings.extend(
                    self._check_database_purity(
                        ctx, methods["_search"], f"search loop '{node.name}._search'"
                    )
                )
        return findings

    # ------------------------------------------------------------------ #
    def _check_shape(self, ctx, cls: ast.ClassDef, methods) -> List[Finding]:
        findings: List[Finding] = []
        propose = methods["propose"]
        if _positional_arity(propose) != 0:
            findings.append(
                ctx.finding(
                    "REPRO401",
                    propose,
                    f"'{cls.name}.propose' must take no required arguments "
                    "beyond self (the driver calls propose())",
                )
            )
        update = methods["update"]
        if _positional_arity(update) != 2:
            findings.append(
                ctx.finding(
                    "REPRO401",
                    update,
                    f"'{cls.name}.update' must take exactly (configs, "
                    "executions) after self",
                )
            )
        if "finished" not in methods and not self._has_attribute(cls, "finished"):
            findings.append(
                ctx.finding(
                    "REPRO401",
                    cls,
                    f"'{cls.name}' defines propose/update but no 'finished' "
                    "property — the driver cannot tell when the run ends",
                )
            )
        if not self._has_attribute(cls, "result") and "result" not in methods:
            findings.append(
                ctx.finding(
                    "REPRO401",
                    cls,
                    f"'{cls.name}' defines propose/update but never binds "
                    "'result' — the driver delivers session.result to futures",
                )
            )
        return findings

    @staticmethod
    def _has_attribute(cls: ast.ClassDef, name: str) -> bool:
        """``name`` bound as a class annotation or ``self.name = ...`` in
        ``__init__`` (transitively through any method, to keep it simple)."""
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == name
            ):
                return True
        for method in astutil.class_methods(cls):
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and any(
                    astutil.is_self_attr(t, name) for t in node.targets
                ):
                    return True
        return False

    # ------------------------------------------------------------------ #
    def _check_database_purity(self, ctx, scope: ast.AST, where: str) -> List[Finding]:
        """REPRO402 over ``scope``: a session class or a ``_search`` method."""
        findings: List[Finding] = []
        for node in ast.walk(scope):
            offense: Optional[str] = None
            if isinstance(node, ast.Name) and node.id == "TuningDatabase":
                offense = "references TuningDatabase"
            elif isinstance(node, ast.Attribute) and node.attr == "database":
                offense = f"touches '{astutil.attr_chain(node) or '...database'}'"
            if offense is not None:
                findings.append(
                    ctx.finding(
                        "REPRO402",
                        node,
                        f"{where} {offense}; a search must not consult the "
                        "database mid-run",
                    )
                )
        return findings
