"""RL002 — determinism of the answer-path modules.

Every equivalence suite in this repository (batch≡sequential,
cluster≡lone-Locater, streaming≡cold-rebuild) asserts *bitwise*
identical answers.  Two classes of code break that silently:

* **unordered iteration** — walking a ``set``/``frozenset`` (or a
  dict's ``.keys()`` without the insertion-order guarantee being the
  point) makes downstream float accumulation order, neighbor order and
  tie-breaks depend on hash seeds.  Iteration must go through
  ``sorted(...)``.
* **ambient nondeterminism** — ``time.time()``, the global ``random``
  module, numpy's legacy global RNG (``np.random.rand`` etc.) and
  *unseeded* ``np.random.default_rng()`` inject run-to-run variation.
  Clocks used purely for measurement (``time.perf_counter``) are fine.

Scope: the answer-path packages ``repro/{fine,coarse,cache,system,
cluster,events}``.  Simulators (``repro/sim``) draw seeded randomness by
design and are exempt.
"""

from __future__ import annotations

import ast
import pathlib
from collections.abc import Iterator

from repro.tools.lint.checkers._astutil import build_parents
from repro.tools.lint.core import Checker, FileContext, Violation, register

#: Package directories whose modules answer queries (order-critical).
ANSWER_PATH_PARTS = frozenset(
    {"fine", "coarse", "cache", "system", "cluster", "events"})

#: ``random.<fn>`` calls that consult the global (unseeded) RNG.
_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "seed", "betavariate",
    "expovariate",
})

#: ``np.random.<fn>`` legacy global-state calls.
_NP_RANDOM_FUNCS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "normal", "uniform", "standard_normal",
})


def _is_unordered(node: ast.AST, known_sets: set[str],
                  known_self_sets: set[str]) -> bool:
    """Whether iterating ``node`` yields a nondeterministic order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
            # list(s)/tuple(s)/iter(s)/reversed(s) preserve the (already
            # nondeterministic) order of a set argument.
            if node.func.id in ("list", "tuple", "iter", "reversed") and \
                    len(node.args) == 1:
                return _is_unordered(node.args[0], known_sets,
                                     known_self_sets)
        # Direct .keys() iteration is flagged regardless of the mapping:
        # `for k in d:` says order is intentional (insertion order);
        # spelling out .keys() in an answer path historically preceded
        # every hash-order bug, so the convention is sorted(d) or `in d`.
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "keys" and not node.args:
            return True
    return _is_unordered_name(node, known_sets, known_self_sets)


def _is_unordered_name(node: ast.AST, known_sets: set[str],
                       known_self_sets: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in known_sets
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr in known_self_sets
    return False


def _annotation_is_set(annotation: ast.AST) -> bool:
    """``set[...]`` / ``frozenset[...]`` annotations, quoted or not."""
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        text = annotation.value.strip()
        return text.startswith(("set[", "set ", "frozenset[")) or \
            text in ("set", "frozenset")
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset")
    return False


def _collect_known_sets(tree: ast.Module
                        ) -> "tuple[set[str], set[str]]":
    """Names (locals/globals, self attributes) bound to set values."""
    names: set[str] = set()
    self_attrs: set[str] = set()
    for node in ast.walk(tree):
        value = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign):
            value, targets = node.value, [node.target]
            if _annotation_is_set(node.annotation):
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        self_attrs.add(target.attr)
                continue
        else:
            continue
        if value is None or not _is_set_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                self_attrs.add(target.attr)
    return names, self_attrs


def _is_set_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("set", "frozenset")


@register
class AnswerPathDeterminism(Checker):
    """RL002: no unordered iteration or ambient randomness on answer paths."""

    code = "RL002"
    name = "determinism"
    description = (
        "answer-path modules must not iterate sets/.keys() without "
        "sorted(), call time.time(), use the global random module, "
        "legacy np.random state, or unseeded np.random.default_rng()")

    def applies_to(self, path: pathlib.Path) -> bool:
        return bool(ANSWER_PATH_PARTS.intersection(path.parts))

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        known_sets, known_self_sets = _collect_known_sets(ctx.tree)
        parents = build_parents(ctx.tree)
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [generator.iter for generator in node.generators]
            for iter_expr in iters:
                if _is_unordered(iter_expr, known_sets, known_self_sets):
                    yield Violation(
                        path=ctx.posix_path, line=iter_expr.lineno,
                        col=iter_expr.col_offset, code=self.code,
                        message=(
                            "iteration over a set/.keys() without "
                            "sorted(...) — the order depends on hash "
                            "seeds and breaks bitwise equivalence"))
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, parents)

    def _check_call(self, ctx: FileContext, node: ast.Call,
                    parents: dict) -> Iterator[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        # time.time()
        if isinstance(func.value, ast.Name) and func.value.id == "time" \
                and func.attr == "time":
            yield Violation(
                path=ctx.posix_path, line=node.lineno, col=node.col_offset,
                code=self.code,
                message=("time.time() in an answer-path module — answers "
                         "must be pure functions of table state; use "
                         "time.perf_counter() for measurement only"))
            return
        # random.<fn>()
        if isinstance(func.value, ast.Name) and func.value.id == "random" \
                and func.attr in _RANDOM_FUNCS:
            yield Violation(
                path=ctx.posix_path, line=node.lineno, col=node.col_offset,
                code=self.code,
                message=(f"random.{func.attr}() uses the process-global "
                         f"RNG; thread seeded generators through "
                         f"repro.util.rng instead"))
            return
        # np.random.<fn>() / np.random.default_rng()
        if isinstance(func.value, ast.Attribute) and \
                func.value.attr == "random" and \
                isinstance(func.value.value, ast.Name) and \
                func.value.value.id in ("np", "numpy"):
            if func.attr == "default_rng":
                if not node.args and not node.keywords:
                    yield Violation(
                        path=ctx.posix_path, line=node.lineno,
                        col=node.col_offset, code=self.code,
                        message=("np.random.default_rng() without a seed "
                                 "is entropy-seeded; pass a seed or an "
                                 "existing Generator"))
            elif func.attr in _NP_RANDOM_FUNCS:
                yield Violation(
                    path=ctx.posix_path, line=node.lineno,
                    col=node.col_offset, code=self.code,
                    message=(f"np.random.{func.attr}() uses numpy's legacy "
                             f"global state; use a seeded Generator from "
                             f"repro.util.rng"))
