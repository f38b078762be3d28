"""Deterministic cargo-N generator: the shipped corpus with its shipment,
commodity and importer blocks cloned N times.

The corpus files are read as templates.  Every line that names block
constants (``s1..s3``, ``c1..c3``, ``i1..i3``) of exactly one pattern p is
cloned for each k in 1..N with ((k - 1) mod 3) + 1 == p, renaming the
constants of pattern p to index k.  Consecutive lines of one pattern clone
together, so a commented shipment block stays whole.  Sort lines listing
block constants are rewritten to list 1..N.  The comment header of a file
is kept verbatim.  At N = 3 the output is the corpus byte for byte.

    python3 perfbench/cargo_n.py 5 out_dir    # writes cargo5.kb, cargo5_update.kb
"""

from __future__ import annotations

import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(os.path.dirname(HERE), "corpus")
BASE = os.path.join(CORPUS, "cargo.kb")
UPDATE = os.path.join(CORPUS, "cargo_update.kb")

PATTERNS = 3
_BLOCK_CONST = re.compile(r"\b([sci])([1-9][0-9]*)\b")
_SORT_LINE = re.compile(r"^sort (\w+): (.*)$")


def clones(p: int, n: int) -> range:
    """Indices k in 1..n whose pattern is p."""
    return range(p, n + 1, PATTERNS)


def rename(text: str, p: int, k: int) -> str:
    """Text of pattern p with its block constants moved to index k."""
    return _BLOCK_CONST.sub(
        lambda m: f"{m.group(1)}{k}" if int(m.group(2)) == p else m.group(0), text
    )


def _patterns(line: str) -> set[int]:
    return {int(m.group(2)) for m in _BLOCK_CONST.finditer(line)}


def expand(template: str, n: int) -> str:
    """Clone the block lines of one corpus file for cargo-N."""
    if n < 1:
        raise ValueError("cargo-N needs N >= 1")
    lines = template.split("\n")
    out: list[str] = []
    i = 0
    # the leading comment header describes the file and is not cloned
    while i < len(lines) and (lines[i].startswith("#") or not lines[i].strip()):
        out.append(lines[i])
        i += 1
    while i < len(lines):
        line = lines[i]
        sort = _SORT_LINE.match(line)
        pats = _patterns(line)
        if sort and pats:
            letter = _BLOCK_CONST.match(sort.group(2)).group(1)
            consts = ", ".join(f"{letter}{k}" for k in range(1, n + 1))
            out.append(f"sort {sort.group(1)}: {consts}")
            i += 1
            continue
        if len(pats) > 1:
            raise ValueError(f"line mixes block patterns: {line!r}")
        if not pats:
            out.append(line)
            i += 1
            continue
        (p,) = pats
        j = i
        while j < len(lines) and _patterns(lines[j]) == {p}:
            j += 1
        unit = lines[i:j]
        for k in clones(p, n):
            out.extend(rename(text, p, k) for text in unit)
        i = j
    return "\n".join(out)


def cargo_texts(n: int) -> tuple[str, str]:
    """(base, update) .kb texts of cargo-N."""
    with open(BASE, encoding="utf-8") as fh:
        base = fh.read()
    with open(UPDATE, encoding="utf-8") as fh:
        update = fh.read()
    return expand(base, n), expand(update, n)


def clone_queries(queries: list[str], n: int) -> list[str]:
    """Each cargo query once per clone of the block pattern it names."""
    out = []
    for q in queries:
        (p,) = _patterns(q)
        out.extend(rename(q, p, k) for k in clones(p, n))
    return out


def write_cargo(n: int, out_dir: str) -> tuple[str, str]:
    """Write cargo-N files into out_dir and return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = (
        os.path.join(out_dir, f"cargo{n}.kb"),
        os.path.join(out_dir, f"cargo{n}_update.kb"),
    )
    for path, text in zip(paths, cargo_texts(n)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: cargo_n.py N OUT_DIR")
    for written in write_cargo(int(sys.argv[1]), sys.argv[2]):
        print(written)
