"""SD103: only picklable module-level data crosses worker boundaries.

Invariant (PR 3): the parallel runner ships work to shard processes via
``multiprocessing`` queues, so everything enqueued -- and the worker
entry point itself -- must survive pickling under both fork and spawn.
The blessed currency is plain data built from module-level dataclasses
(``runtime/spec.py``'s :class:`EngineSpec`, packet batches, the drain
sentinel).  Lambdas, functions defined inside another function
(closures), and bound methods are the classic spawn-start-method
breakage: they import-resolve on fork, then explode on macOS/Windows.

Flags, inside ``runtime/``:

- a ``lambda`` or locally defined function passed to ``.put(...)`` /
  ``.put_nowait(...)`` or the runner's lossless ``enqueue`` helper;
- a ``Process(target=...)`` whose target is a lambda, a bound method
  (attribute access), or a locally defined function -- targets must be
  module-level functions;
- a ``lambda`` inside the ``args=`` tuple of a ``Process(...)`` call.
"""

from __future__ import annotations

import ast

from ..astutil import build_parents, enclosing_function
from ..engine import FileContext, Rule, register

__all__ = ["ShardSafetyRule"]

QUEUE_PUT_METHODS = frozenset({"put", "put_nowait"})
QUEUE_PUT_HELPERS = frozenset({"enqueue"})


def _local_function_names(tree: ast.Module) -> frozenset[str]:
    """Names of functions defined inside another function (closures)."""
    parents = build_parents(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if enclosing_function(node, parents) is not None:
                names.add(node.name)
    return frozenset(names)


def _is_process_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "Process"
    if isinstance(func, ast.Attribute):
        return func.attr == "Process"
    return False


@register
class ShardSafetyRule(Rule):
    id = "SD103"
    title = "unpicklable value handed to a worker queue or entry point"
    default_paths = ("*/repro/runtime/*.py",)

    def check(self, ctx: FileContext) -> None:
        local_defs = _local_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_process_call(node):
                self._check_process(ctx, node, local_defs)
                continue
            func = node.func
            is_put = (
                isinstance(func, ast.Attribute) and func.attr in QUEUE_PUT_METHODS
            ) or (
                isinstance(func, (ast.Attribute, ast.Name))
                and (getattr(func, "attr", None) or getattr(func, "id", "")) in QUEUE_PUT_HELPERS
            )
            if is_put:
                for arg in node.args:
                    self._check_payload(ctx, arg, local_defs, via="queue put")

    def _check_payload(
        self,
        ctx: FileContext,
        arg: ast.expr,
        local_defs: frozenset[str],
        *,
        via: str,
    ) -> None:
        if isinstance(arg, ast.Lambda):
            ctx.report(
                self,
                arg,
                f"lambda sent through a {via}; queue payloads must be "
                "picklable module-level data (dataclasses from "
                "runtime/spec.py), and lambdas never pickle",
            )
        elif isinstance(arg, ast.Name) and arg.id in local_defs:
            ctx.report(
                self,
                arg,
                f"locally defined function {arg.id!r} sent through a {via}; "
                "closures do not survive the spawn start method -- move it "
                "to module level",
            )

    def _check_process(
        self, ctx: FileContext, node: ast.Call, local_defs: frozenset[str]
    ) -> None:
        for keyword in node.keywords:
            if keyword.arg == "target":
                value = keyword.value
                if isinstance(value, ast.Lambda):
                    ctx.report(
                        self,
                        value,
                        "Process target is a lambda; worker entry points "
                        "must be module-level functions so they pickle "
                        "under spawn",
                    )
                elif isinstance(value, ast.Attribute):
                    ctx.report(
                        self,
                        value,
                        "Process target looks like a bound method "
                        f"({ast.unparse(value)}); bound methods drag their "
                        "whole instance through pickle -- use a module-level "
                        "function taking plain data instead",
                    )
                elif isinstance(value, ast.Name) and value.id in local_defs:
                    ctx.report(
                        self,
                        value,
                        f"Process target {value.id!r} is defined inside a "
                        "function; closures break under the spawn start "
                        "method -- move it to module level",
                    )
            elif keyword.arg == "args" and isinstance(keyword.value, ast.Tuple):
                for element in keyword.value.elts:
                    self._check_payload(
                        ctx, element, local_defs, via="Process args tuple"
                    )
