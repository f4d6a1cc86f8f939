"""Every demo script imports: a public name it uses that goes away fails
here, not only when the demo is run.  The spacing histogram also runs,
small, as its calls are not reached by an import."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)        # main runs only as __main__
    return module


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(_load(path).main)


def test_spacing_histogram_runs(monkeypatch, capsys):
    path = next(p for p in DEMOS if p.stem == "spacing_histogram")
    monkeypatch.setattr("sys.argv", [str(path), "--n", "16", "--m", "40"])
    _load(path).main()
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["s", "histogram", "exact", "P(s)"]
    assert len(table) == 1 + 14             # one line per default bin
