"""README holds: its CLI commands parse and resolve, the Python quick start
runs as written, and the package exports exactly the names the "Python API"
section lists."""

import importlib
import re
import shlex
from pathlib import Path

import mfvdm
from mfvdm import cli
from mfvdm.config import resolve_config

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


def test_readme_cli_commands_parse_and_resolve():
    """Every ``python3 -m mfvdm.cli`` command in README's ``sh`` blocks is
    a valid command line; none is run."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", text,
                        flags=re.MULTILINE | re.DOTALL)
    prefix = ["python3", "-m", "mfvdm.cli"]
    commands = [shlex.split(line) for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith(" ".join(prefix))]
    assert len(commands) >= 2
    for argv in commands:
        args = cli.build_parser().parse_args(argv[len(prefix):])
        assert args.config is None, "a README command names a config file"
        cli._check_p_tags(resolve_config(overrides=cli._overrides(args)).p)
