"""Every source path the prose documents name exists under ``src/``.

A module table that points at a file which was never written (or was
folded into another) sends a reader looking for code that is not there.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "DESIGN.md",
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
SOURCE_PATH = re.compile(r"\brepro/[\w/]*\.py\b")


def named_paths(text: str):
    """``(line, path)`` for every ``repro/...py`` path in ``text``."""
    return [
        (number, path)
        for number, line in enumerate(text.splitlines(), 1)
        for path in SOURCE_PATH.findall(line)
    ]


def test_every_documented_source_path_exists():
    missing = [
        f"{doc.relative_to(ROOT)}:{line}: {path}"
        for doc in DOCS
        for line, path in named_paths(doc.read_text())
        if not (ROOT / "src" / path).is_file()
    ]
    assert not missing, "documented paths missing under src/:\n" + "\n".join(missing)


def test_path_pattern_sees_table_cells_and_src_prefixes():
    text = "| x | `repro/core/flush.py` |\nsee src/repro/mem/device.py.\n"
    assert named_paths(text) == [
        (1, "repro/core/flush.py"),
        (2, "repro/mem/device.py"),
    ]
    assert any(named_paths(doc.read_text()) for doc in DOCS)
