"""Rule ``kernel-dispatch``: hot paths reach kernels only through dispatch.

Contract (from the PR-10 kernel subsystem in ``repro.kernels``): the
implementation tiers — every ``repro.kernels.*_impl`` module, today
``numpy_impl`` and ``c_impl`` — are interchangeable backends behind one
dispatcher.  The dispatcher owns tier probing, availability caching, the
``REPRO_KERNEL``/``SimContext.kernel`` override order and the guarantee that
a missing compiler degrades to the numpy reference instead of raising.  A
module that imports an implementation directly bypasses all of that: it
hard-fails where dispatch would fall back, ignores the user's tier override,
and silently pins results to one backend.

So: outside the ``repro/kernels/`` package itself, only
``repro.kernels.dispatch`` (or the ``repro.kernels`` package re-exports) may
be imported.  Absolute imports are checked; the kernels package's own
modules are exempt (the dispatcher must import its tiers, and the tiers may
delegate to each other's reference paths).
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from repro.analysis.core import Finding, Rule, SourceFile

#: suffix of the implementation modules private to the dispatcher
IMPL_SUFFIX = "_impl"

_PACKAGE = "repro.kernels"


def _impl_of(dotted: str) -> str:
    """The implementation module a dotted import path reaches, or ``""``."""
    if not dotted.startswith(_PACKAGE + "."):
        return ""
    leaf = dotted[len(_PACKAGE) + 1 :].split(".", 1)[0]
    return leaf if leaf.endswith(IMPL_SUFFIX) else ""


def _is_kernels_module(rel: str) -> bool:
    parts = rel.replace("\\", "/").split("/")
    return "kernels" in parts[:-1]


class KernelDispatchRule(Rule):
    name = "kernel-dispatch"
    description = (
        "kernel implementation modules are imported only by the dispatcher; "
        "hot paths go through repro.kernels.dispatch"
    )

    def check(self, files: Sequence[SourceFile]) -> List[Finding]:
        findings: List[Finding] = []
        for source in files:
            if _is_kernels_module(source.rel):
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        impl = _impl_of(alias.name)
                        if impl:
                            findings.append(self._finding(source, node, impl))
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    module = node.module or ""
                    impl = _impl_of(module)
                    if impl:
                        findings.append(self._finding(source, node, impl))
                        continue
                    if module == _PACKAGE:
                        for alias in node.names:
                            if alias.name.endswith(IMPL_SUFFIX):
                                findings.append(
                                    self._finding(source, node, alias.name)
                                )
        return findings

    def _finding(self, source: SourceFile, node: ast.stmt, impl: str) -> Finding:
        return Finding(
            rule=self.name,
            path=source.rel,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"direct import of kernel implementation "
                f"'repro.kernels.{impl}' — go through repro.kernels.dispatch "
                f"so tier probing, REPRO_KERNEL overrides and the numpy "
                f"fallback keep working"
            ),
        )
