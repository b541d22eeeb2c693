"""The digest table `tests/digests.json` is the one home of every report
sha256: each entry has a reader, no two CLI entries run the same argv, and
no sha256 sits in `tests/` or `.github/` outside it.

`table_faults` names what is wrong; the real table must give none, and
each kind of fault, put into a copy, must be named.
"""

import ast
import copy
import re
from collections import Counter

import pytest

from conftest import DIGESTS, ROOT

HEX64 = re.compile(r"[0-9a-f]{64}")
WORKFLOW = ".github/workflows/tests.yml"
SOURCE_SUFFIXES = {".py", ".yml", ".yaml", ".json", ".md", ".txt"}


def checked_texts(base=ROOT) -> dict[str, str]:
    """The text of each source file under base's tests/ and .github/ but
    the table, by its path from base (the repository root).  Files of other suffixes
    and everything in a dot-directory or __pycache__ below those roots
    (a .hypothesis/ database, a .pytest_cache/) are caches, not sources."""
    return {str(path.relative_to(base)): path.read_text()
            for root in ("tests", ".github")
            for path in sorted((base / root).rglob("*"))
            if path.is_file() and path.suffix in SOURCE_SUFFIXES
            and path.name != "digests.json"
            and not any(part.startswith(".") or part == "__pycache__"
                        for part in path.relative_to(base / root).parts[:-1])}


def table_faults(table, texts) -> list[str]:
    trees = {path: ast.parse(text) for path, text in texts.items()
             if path.endswith(".py")}
    reads = {node.args[0].value for tree in trees.values()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "library_digest"
             and node.args and isinstance(node.args[0], ast.Constant)}
    faults = [f"library entry {key} is read by no test"
              for key in sorted(set(table["library"]) - reads)]
    if (any("limits" in case for case in table["cli"].values())
            and "tests/digests.json" not in texts[WORKFLOW]):
        faults.append("cli entries with limits, but no workflow step "
                      "reads tests/digests.json")
    argvs = Counter(tuple(case["argv"]) for case in table["cli"].values())
    faults += [f"argv {' '.join(argv)} is pinned {n} times"
               for argv, n in argvs.items() if n > 1]
    for path, text in texts.items():
        # the parser joins adjacent string literals, so a split digest counts
        strings = [text] + [node.value for node in ast.walk(trees[path])
                            if isinstance(node, ast.Constant)
                            and isinstance(node.value, str)
                            ] if path in trees else [text]
        if any(HEX64.search(s) for s in strings):
            faults.append(f"{path} holds a sha256 outside the table")
    return faults


def test_table_has_no_fault():
    assert set(DIGESTS) == {"about", "cli", "library"}
    assert table_faults(DIGESTS, checked_texts()) == []


def test_caches_are_not_scanned(tmp_path):
    files = {"tests/test_x.py": b"X = 1\n",
             ".github/workflows/tests.yml": b"on: push\n",
             "tests/.hypothesis/examples/%s/%s" % ("a" * 16, "b" * 64): b"\xff",
             "tests/.pytest_cache/README.md": b"%s\n" % (b"c" * 64),
             "tests/__pycache__/test_x.cpython-311.pyc": b"\x00\xff"}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    assert set(checked_texts(tmp_path)) == {"tests/test_x.py",
                                            ".github/workflows/tests.yml"}


def _unread_library_entry(table, texts):
    table["library"]["orphan"] = "0" * 64


def _limits_unread_by_workflow(table, texts):
    texts[WORKFLOW] = texts[WORKFLOW].replace("tests/digests.json", "")


def _same_argv_twice(table, texts):
    table["cli"]["again"] = table["cli"]["validate-D0"]


def _split_digest(table, texts):
    texts["tests/test_new.py"] = 'PIN = ("%s"\n       "%s")\n' % ("a" * 32,
                                                                 "b" * 32)


@pytest.mark.parametrize("inject,named", [
    (_unread_library_entry, "library entry orphan is read by no test"),
    (_limits_unread_by_workflow, "no workflow step reads tests/digests.json"),
    (_same_argv_twice, "argv validate --datum D0 --radius 4 is pinned 2 times"),
    (_split_digest, "tests/test_new.py holds a sha256 outside the table"),
])
def test_table_fault_is_named(inject, named):
    table, texts = copy.deepcopy(DIGESTS), checked_texts()
    inject(table, texts)
    assert any(named in fault for fault in table_faults(table, texts))
