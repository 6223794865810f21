"""Docstring-coverage gate: a dependency-free ``interrogate`` equivalent.

Walks every module under ``src/repro`` with ``ast`` (no imports needed)
and counts docstrings on the public surface: modules, public classes,
and public functions/methods (names not starting with ``_``; ``__init__``
is exempt — its contract belongs to the class docstring).  Two gates:

* **module docstrings must be at 100%** — every module narrates what it
  is and where it sits in the architecture (they are, today; keep it);
* **overall public-surface coverage ratchets** at the measured repo
  value (rounded down).  The ratchet should only ever be raised — new
  public code without docstrings fails CI instead of silently eroding
  the docs.

Every printed percentage is rounded *down* to 0.1, so the printed TOTAL
is the figure to set the ratchet to; the gate itself compares the exact
coverage.

Usage::

    python tools/check_docstrings.py                 # gate at the ratchet
    python tools/check_docstrings.py --min-coverage 95
    python tools/check_docstrings.py --list-missing  # show what lacks docs
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: The ratchet: measured repo-wide coverage, rounded down.  Raise it as
#: coverage improves; never lower it to merge undocumented code.
RATCHET = 83.8


def floor_percent(part: int, whole: int) -> float:
    """``100 * part / whole`` rounded down to 0.1, in exact integer math."""
    return (1000 * part // whole) / 10 if whole else 100.0


def public_defs(path: Path) -> Iterator[Tuple[str, bool]]:
    """Yield (qualified name, has_docstring) for the public surface."""
    tree = ast.parse(path.read_text())
    module = str(path.relative_to(SOURCE_ROOT.parent)).replace("/", ".")[: -len(".py")]
    yield module, ast.get_docstring(tree) is not None

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name.startswith("_"):
                    continue
                name = f"{prefix}.{child.name}"
                yield name, ast.get_docstring(child) is not None
                yield from walk(child, name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name.startswith("_"):
                    continue
                # Trivial overrides/callbacks whose body is a bare
                # docstring-less `pass`/`...` still count: silence is a
                # doc bug there too.
                yield f"{prefix}.{child.name}", ast.get_docstring(child) is not None

    yield from walk(tree, module)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-coverage", type=float, default=RATCHET)
    parser.add_argument(
        "--list-missing", action="store_true", help="print each undocumented def"
    )
    args = parser.parse_args(argv)

    per_module: List[Tuple[str, int, int]] = []
    missing: List[str] = []
    undocumented_modules: List[str] = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        defs = list(public_defs(path))
        documented = sum(1 for _, has in defs if has)
        per_module.append((str(path.relative_to(REPO_ROOT)), documented, len(defs)))
        missing.extend(name for name, has in defs if not has)
        if defs and not defs[0][1]:
            undocumented_modules.append(str(path.relative_to(REPO_ROOT)))

    total_doc = sum(d for _, d, _ in per_module)
    total = sum(t for _, _, t in per_module)
    coverage = 100.0 * total_doc / total if total else 100.0

    width = max(len(name) for name, _, _ in per_module)
    for name, documented, count in per_module:
        pct = 100.0 * documented / count if count else 100.0
        flag = "" if pct >= args.min_coverage else "  <-- below ratchet"
        shown = floor_percent(documented, count)
        print(f"{name:<{width}}  {documented:>3}/{count:<3} {shown:6.1f}%{flag}")
    print("-" * (width + 20))
    shown = floor_percent(total_doc, total)
    print(f"{'TOTAL':<{width}}  {total_doc:>3}/{total:<3} {shown:6.1f}%")

    if args.list_missing and missing:
        print("\nundocumented public defs:")
        for name in missing:
            print(f"  {name}")

    failed = False
    if undocumented_modules:
        print(
            "modules without a module docstring (must be 100%): "
            f"{undocumented_modules}",
            file=sys.stderr,
        )
        failed = True
    if coverage < args.min_coverage:
        print(
            f"docstring coverage {shown:.1f}% is below the ratchet "
            f"{args.min_coverage:g}% — document the new public surface "
            "(tools/check_docstrings.py --list-missing shows offenders)",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(
        f"docstring coverage: passed ({shown:.1f}% >= "
        f"{args.min_coverage:g}%, module docstrings 100%)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
