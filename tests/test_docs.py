"""Documents may only name files and modules that exist.

The cheap half of "documented numbers must equal committed numbers": a
back-ticked repository path, root-level artifact name or dotted ``repro.*``
name in README.md, EXPERIMENTS.md or DESIGN.md must point at a committed
file or an importable object, so deleting or renaming one forces the prose
that cites it to follow.  Historical mentions go in path style or plain
prose.
"""

import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")

#: `src/...`, `tests/...`, `benchmarks/...`, `examples/...` paths and
#: root-level `*.json` / `*.jsonl` / `*.md` / `bench_output.txt` names.
NAMED_FILE = re.compile(
    r"`((?:src|tests|benchmarks|examples)/[^`\s]*|[\w.-]+\.(?:jsonl?|md)|bench_output\.txt)`"
)


def unresolved(pattern: re.Pattern, exists) -> list[tuple[str, str]]:
    """``(document, name)`` for every name ``pattern`` finds that ``exists`` rejects."""
    missing = []
    for doc in DOCS:
        names = set(pattern.findall((ROOT / doc).read_text()))
        assert names, f"{doc}: {pattern.pattern} no longer matches its style"
        missing += [(doc, n) for n in sorted(names) if not exists(n)]
    return missing


def test_documents_name_only_existing_files():
    missing = unresolved(NAMED_FILE, lambda n: (ROOT / n).exists())
    assert not missing, f"documents name files that are not in the tree: {missing}"


#: `repro.pkg`, `repro.pkg.module`, `repro.pkg.module.Object[.attr]`.
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then ``getattr`` the rest."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_documents_name_only_importable_modules():
    missing = unresolved(DOTTED_NAME, _resolves)
    assert not missing, f"documents name modules that are not in the tree: {missing}"


def test_every_exported_name_resolves():
    """A stale ``__all__`` entry fails here, not on a user's import.

    ``getattr`` also drives PEP 562 lazy exports (``repro.observability``).
    """
    import importlib

    import repro

    stale = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # importing one runs its command-line interface
        module = importlib.import_module(info.name)
        stale += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not stale, f"__all__ names objects that do not exist: {stale}"


#: An inline code span that opens with a capitalized name used as one --
#: called, indexed, dotted into or standing alone (`Simulation.run`,
#: `WorldRecovery(store)`); fenced blocks and file names are left out.
FENCED = re.compile(r"```.*?```", re.S)
INLINE_CODE = re.compile(r"`([^`\n]+)`")
LEADING_NAME = re.compile(r"([A-Z]\w*)(?:[(.\[]|$)")
FILE_NAME = re.compile(r"[\w.-]+\.(?:jsonl?|md|txt|py)")


def _public_names() -> set[str]:
    """Builtins plus every public attribute of every ``repro`` module."""
    import builtins
    import importlib

    import repro

    names = set(dir(builtins))
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        names.update(n for n in vars(module) if not n.startswith("_"))
    return names


def test_readme_names_only_existing_classes():
    """`WorldRecovery(store)` in README.md fails once the class is gone.

    Only names with a lowercase letter count, so ruff codes (`E722`) and
    acronyms pass.
    """
    text = FENCED.sub("", (ROOT / "README.md").read_text())
    names = set()
    for span in INLINE_CODE.findall(text):
        match = LEADING_NAME.match(span)
        if match and not FILE_NAME.fullmatch(span) and not match[1].isupper():
            names.add(match[1])
    assert names, "README.md no longer backticks any class name"
    missing = sorted(names - _public_names())
    assert not missing, f"README.md names objects no repro module defines: {missing}"
