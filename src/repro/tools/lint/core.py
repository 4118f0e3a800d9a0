"""Core machinery of ``repro-lint``: files, suppressions, registry, driver.

The linter is deliberately small: one :class:`FileContext` per parsed
source file, a registry of :class:`Checker` subclasses keyed by rule
code, and :func:`run_lint` walking the requested paths, running every
selected checker, and filtering the result through the suppression
comments.  Checkers are pure ``ast`` consumers — no imports of the
checked code ever happen, so the linter can run on broken trees and
fixture corpora alike.

Suppressions come in two forms::

    x = compute()  # repro-lint: disable=RL002  <reason>
    # repro-lint: disable-file=RL004  <reason>

The first silences the listed rules on that physical line only, the
second for the whole file.  Repository policy (see the package README):
a suppression is only for checker *false positives* and must carry a
justification in the trailing free text.
"""

from __future__ import annotations

import ast
import pathlib
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field


#: ``# repro-lint: disable=RL002`` / ``disable-file=RL002,RL004 why...``
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding of one checker at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The canonical ``path:line:col: CODE message`` text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict:
        """JSON-reporter payload for this finding."""
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


@dataclass(slots=True)
class Suppressions:
    """Parsed suppression comments of one file."""

    file_level: set[str] = field(default_factory=set)
    by_line: dict[int, set[str]] = field(default_factory=dict)

    def silences(self, violation: Violation) -> bool:
        if violation.code in self.file_level:
            return True
        return violation.code in self.by_line.get(violation.line, ())


@dataclass(slots=True)
class FileContext:
    """One parsed source file as the checkers see it."""

    path: pathlib.Path
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @property
    def posix_path(self) -> str:
        return self.path.as_posix()


def parse_suppressions(source: str) -> Suppressions:
    """Collect the ``repro-lint`` suppression comments of a file.

    Comments are read with :mod:`tokenize` so strings containing the
    marker text never suppress anything.
    """
    out = Suppressions()
    lines = iter(source.splitlines(keepends=True))
    try:
        tokens = list(tokenize.generate_tokens(lambda: next(lines, "")))
    except tokenize.TokenError:
        return out
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        codes = {code.strip() for code in match.group(2).split(",")}
        if match.group(1) == "disable-file":
            out.file_level |= codes
        else:
            out.by_line.setdefault(token.start[0], set()).update(codes)
    return out


class Checker:
    """Base class of one lint rule.

    Subclasses set :attr:`code` / :attr:`name` / :attr:`description`,
    implement :meth:`check_file`, and register themselves with
    :func:`register`.

    ``applies_to`` scopes a rule to parts of the tree (answer-path
    modules, dtype-critical modules).  The driver bypasses it when
    ``all_paths`` is set — how the fixture corpus exercises every rule
    from an arbitrary directory.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, path: pathlib.Path) -> bool:
        return True

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())


#: Rule code → checker class.  Populated by :func:`register` at import
#: time of :mod:`repro.tools.lint.checkers`.
REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to :data:`REGISTRY`."""
    if not cls.code:
        raise ValueError(f"checker {cls.__name__} has no code")
    if cls.code in REGISTRY:
        raise ValueError(f"duplicate checker code {cls.code}")
    REGISTRY[cls.code] = cls
    return cls


def iter_python_files(paths: Iterable[pathlib.Path]) -> Iterator[pathlib.Path]:
    """Yield every ``.py`` file under the given files/directories, sorted."""
    seen: set[pathlib.Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[pathlib.Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_context(path: pathlib.Path) -> "FileContext | None":
    """Parse one file; ``None`` when it is not valid Python source."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    return FileContext(path=path, source=source, tree=tree,
                       suppressions=parse_suppressions(source))


def run_lint(paths: Sequence["pathlib.Path | str"],
             select: "Iterable[str] | None" = None,
             all_paths: bool = False) -> list[Violation]:
    """Lint the given paths with every (or the selected) registered rule.

    Args:
        paths: Files and/or directories to scan.
        select: Optional iterable of rule codes; defaults to all.
        all_paths: Ignore the checkers' path scoping — every rule runs
            on every file (fixture corpora live outside the package
            layout the predicates expect).

    Returns the surviving violations sorted by (path, line, code);
    suppressed findings are dropped before returning.
    """
    # Imported here (not at module top) to avoid a cycle: the checkers
    # module imports this one for the base class and registry.
    import repro.tools.lint.checkers  # noqa: F401  (fills REGISTRY)

    codes = sorted(REGISTRY) if select is None else sorted(select)
    unknown = [code for code in codes if code not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
    checkers = [REGISTRY[code]() for code in codes]

    contexts: list[FileContext] = []
    for file_path in iter_python_files(
            [pathlib.Path(p) for p in paths]):
        ctx = load_context(file_path)
        if ctx is not None:
            contexts.append(ctx)

    raw: list[Violation] = []
    for checker in checkers:
        for ctx in contexts:
            if all_paths or checker.applies_to(ctx.path):
                raw.extend(checker.check_file(ctx))

    by_path = {ctx.posix_path: ctx.suppressions for ctx in contexts}
    survivors = [violation for violation in raw
                 if not by_path[violation.path].silences(violation)]
    survivors.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return survivors
