"""The README's library example runs, and every exported or traced name resolves.

The benchmark's tracer (``perfbench/spans.py``) rebinds lgcert functions by
their dotted names; a refactor that drops one of them must fail here, not
only in the benchmark's own self-test.  The tracer module is read, never
changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["lgcert.qcore", "lgcert.protocols", "lgcert.macrocert", "lgcert.cli"]


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.margin("LG3-2") == pytest.approx(-0.5, abs=1e-12)
    assert "LG3-2" in capsys.readouterr().out


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted(spans.GROUPS)


@pytest.mark.parametrize("dotted", traced_names())
def test_every_traced_name_is_a_callable_of_its_module(dotted):
    module_name, attr = dotted.split(".")
    module = importlib.import_module(f"lgcert.{module_name}")
    assert callable(getattr(module, attr, None)), dotted
