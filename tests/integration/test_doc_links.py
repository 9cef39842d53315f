"""The docs-link check: every referenced repository ``*.md`` file and
path-qualified ``tests/**/*.py`` module exists."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", os.path.join(ROOT, "tools", "check_doc_links.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _repo(tmp_path, files):
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return str(tmp_path)


def test_repository_references_resolve(tool):
    assert tool.main(["--repo-root", ROOT]) == 0


def test_dangling_reference_fails(tool, tmp_path, capsys):
    root = _repo(tmp_path, {
        "README.md": "See docs/guide.md and NOTES.md.\n",
        "docs/guide.md": "Back to [the knobs](knobs.md).\n",
        "docs/knobs.md": "",
        "src/pkg/mod.py": '"""Details in MISSING.md."""\n',
    })
    assert tool.main(["--repo-root", root]) == 1
    errors = capsys.readouterr().err
    assert "README.md:1: NOTES.md does not exist" in errors
    assert "MISSING.md" in errors
    assert "guide.md does not exist" not in errors
    assert "knobs.md does not exist" not in errors


def test_output_paths_and_urls_are_not_references(tool, tmp_path):
    root = _repo(tmp_path, {
        "README.md": ("repro run all --out results.md\n"
                      "repro report --out=summary.md\n"
                      "https://example.org/upstream/README.md\n"),
    })
    assert tool.main(["--repo-root", root]) == 0


def test_dangling_test_module_reference_fails(tool, tmp_path, capsys):
    root = _repo(tmp_path, {
        "tests/parity/test_parity.py": "",
        "README.md": ("Held by `tests/parity/test_parity.py::test_parity` "
                      "and tests/cpu/test_gone.py; test_bare.py is a name, "
                      "not a path.\n"),
        "src/pkg/mod.py": '"""Oracle in (tests/attacks/test_old.py)."""\n',
    })
    assert tool.main(["--repo-root", root]) == 1
    errors = capsys.readouterr().err
    assert "README.md:1: tests/cpu/test_gone.py does not exist" in errors
    assert "mod.py:1: tests/attacks/test_old.py does not exist" in errors
    assert "test_parity.py does not exist" not in errors
    assert "test_bare.py" not in errors
