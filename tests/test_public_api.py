"""README's Python sections hold: the quick start runs as written, and the
package exports exactly the names the "Python API" section lists."""

import importlib
import re
from pathlib import Path

import mfvdm

README = Path(__file__).resolve().parents[1] / "README.md"


def _documented() -> dict:
    """{module: [names]} from the bullets of README's "Python API" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, names in re.findall(r"^- `mfvdm\.(\w+)`: (.+)$", section,
                                    flags=re.MULTILINE):
        listed[module] = re.findall(r"`(\w+)`", names)
    return listed


def test_all_equals_the_documented_names():
    names = [name for names in _documented().values() for name in names]
    assert len(names) == len(set(names))
    assert set(mfvdm.__all__) - {"__version__"} == set(names)


def test_each_documented_name_imports_from_its_module():
    for module, names in _documented().items():
        source = importlib.import_module(f"mfvdm.{module}")
        for name in names:
            assert getattr(mfvdm, name) is getattr(source, name), name


def test_python_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text,
                          flags=re.MULTILINE | re.DOTALL)
    namespace = {}
    exec(block, namespace)
    assert namespace["table"].alpha_hat.size == 3000 * 30
