"""RPR004 — experiment-registry hygiene for figure/table entry points."""

from __future__ import annotations

import ast
import re
from typing import ClassVar, Optional

from repro.lint.base import LintContext, Rule, call_name, register_rule
from repro.lint.findings import Severity

#: Public callables matching this pattern are figure/table entry points
#: outside the registry.
_ENTRY_POINT_RE = re.compile(r"^(fig|figure|table)", re.IGNORECASE)


def _module_uses_registry(tree: ast.Module) -> bool:
    """Whether the module imports the experiment-registry machinery."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.startswith("repro.experiments"):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("repro.experiments")
                   for alias in node.names):
                return True
    return False


@register_rule
class RegistryHygieneRule(Rule):
    """Every figure/table callable stays registered and covered.

    The experiment registry is the single enumerable surface for the
    paper's evaluation: CI smoke-runs every registered spec and audits
    scenario/axis/module coverage, so a figure function that bypasses
    the registry silently drops out of both.  In modules that use the
    registry, the rule flags (a) every *public* ``fig*`` / ``table*``
    module-level callable that is not itself an ``@experiment``
    registration — callers reach a figure through its registry name —
    and requires (b) every ``@experiment(...)`` registration
    to declare non-empty coverage metadata (at least one of
    ``scenarios`` / ``axes`` / ``modules``) and — when the spec has
    parameters — a non-empty ``smoke`` profile so suite-wide smoke runs
    stay cheap.
    """

    rule_id: ClassVar[str] = "RPR004"
    title: ClassVar[str] = ("fig*/table* callables must be registered "
                            "experiments; @experiment must declare "
                            "coverage + smoke")
    default_severity: ClassVar[Severity] = Severity.ERROR

    @classmethod
    def applies_to(cls, context: LintContext) -> bool:
        if context.has_role("figures"):
            return True
        if context.has_role("test"):
            # Unit tests register throwaway specs in isolated registries
            # to exercise the machinery itself; the hygiene contract is
            # about the real catalogue.
            return False
        return _module_uses_registry(context.tree)

    # ------------------------------------------------------------- #
    # (a) no public figure/table entry points outside the registry
    # ------------------------------------------------------------- #
    def visit_Module(self, node: ast.Module) -> None:
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef):
                self._check_entry_point(statement)
        self.generic_visit(node)

    def _check_entry_point(self, node: ast.FunctionDef) -> None:
        if node.name.startswith("_"):
            return
        if not _ENTRY_POINT_RE.match(node.name):
            return
        if any(isinstance(decorator, ast.Call)
               and call_name(decorator) == "experiment"
               for decorator in node.decorator_list):
            return  # the registered implementation itself
        self.report(
            node,
            f"public figure/table callable {node.name!r} is not a "
            "registered experiment",
            suggestion="register the implementation (a private _run_* "
                       "function) with @experiment; callers use "
                       "run_experiment(name)")

    # ------------------------------------------------------------- #
    # (b) @experiment registrations declare coverage + smoke
    # ------------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        if call_name(node) == "experiment" and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            self._check_registration(node, node.args[0].value)
        self.generic_visit(node)

    def _keyword(self, node: ast.Call, name: str) -> Optional[ast.expr]:
        for keyword in node.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    @staticmethod
    def _is_empty_literal(node: Optional[ast.expr]) -> bool:
        if node is None:
            return True
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return not node.elts
        if isinstance(node, ast.Dict):
            return not node.keys
        if isinstance(node, ast.Constant) and node.value is None:
            return True
        return False

    def _check_registration(self, node: ast.Call, spec_name: str) -> None:
        coverage = [self._keyword(node, name)
                    for name in ("scenarios", "axes", "modules")]
        if all(self._is_empty_literal(value) for value in coverage):
            self.report(
                node,
                f"experiment {spec_name!r} declares no coverage metadata "
                "(scenarios / axes / modules all empty)",
                suggestion="name the scenarios, sweep axes and repro "
                           "modules the experiment exercises")
        params = self._keyword(node, "params")
        if not self._is_empty_literal(params) \
                and self._is_empty_literal(self._keyword(node, "smoke")):
            self.report(
                node,
                f"experiment {spec_name!r} has parameters but no smoke "
                "profile",
                suggestion="declare smoke={...} with cheap parameter "
                           "values so run-all --smoke stays fast")


__all__ = ["RegistryHygieneRule"]
