"""Small shared AST helpers for the checkers."""

from __future__ import annotations

import ast


def build_parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child → parent map for ancestor walks (``ast`` has no back links)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` attribute chains as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
