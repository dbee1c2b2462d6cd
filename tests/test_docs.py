"""Documents may only name files that exist.

The cheap half of "documented numbers must equal committed numbers": a
back-ticked repository path or root-level artifact name in README.md,
EXPERIMENTS.md or DESIGN.md must point at a committed file, so deleting or
renaming one forces the prose that cites it to follow.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: `src/...`, `tests/...`, `benchmarks/...`, `examples/...` paths and
#: root-level `*.json` / `*.jsonl` / `*.md` / `bench_output.txt` names.
NAMED_FILE = re.compile(
    r"`((?:src|tests|benchmarks|examples)/[^`\s]*|[\w.-]+\.(?:jsonl?|md)|bench_output\.txt)`"
)


def test_documents_name_only_existing_files():
    missing = []
    for doc in ("README.md", "EXPERIMENTS.md", "DESIGN.md"):
        names = set(NAMED_FILE.findall((ROOT / doc).read_text()))
        assert names, f"{doc} names no files: the pattern no longer matches its style"
        missing += [(doc, n) for n in sorted(names) if not (ROOT / n).exists()]
    assert not missing, f"documents name files that are not in the tree: {missing}"
