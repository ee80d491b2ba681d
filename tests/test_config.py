"""Configuration defaults, file parsing and override precedence."""

import os

import pytest

from mfvdm.config import ExperimentConfig, load_config_file, resolve_config
from mfvdm.errors import ConfigError


def test_defaults_are_valid_and_match_contract():
    config = ExperimentConfig()
    config.validate()
    assert config.manifold == "sphere"
    assert config.n == 10000
    assert config.kappa_build == 150
    assert config.kappa_search == 50
    assert config.k_max == 50
    assert config.m_k == 50
    assert config.t == 1
    assert config.p == (1.0,)
    assert config.workers == (len(os.sched_getaffinity(0))
                              if hasattr(os, "sched_getaffinity")
                              else os.cpu_count() or 1)


@pytest.mark.parametrize("overrides", [
    {"manifold": "moebius"},
    {"manifold": "external"},            # needs graph_path
    {"n": 1},
    {"kappa_build": 0},
    {"kappa_build": 10000},
    {"kappa_search": 0},
    {"p": (-0.2,)},
    {"p": (1.5,)},
    {"p": (0.4, 1.5)},
    {"p": (float("nan"),)},
    {"p": ()},
    {"k_max": 0},
    {"m_k": 0},
    {"t": 0},
    {"t_fft": 1024},                     # follows k_max, so not a key
    {"graph_path": "g.txt", "manifold": "sphere"},
    {"graph_path": "g.txt", "manifold": "torus"},
    {"weight_mode": "unit"},             # fixed, so not a key
    {"sigma": 1.0},                      # fixed, so not a key
    {"baselines": ("dm", "rdm")},
    {"workers": 0},
    {"radius_major": 1.0},               # fixed, so not a key
    {"radius_minor": 0.2},               # fixed, so not a key
    {"area_uniform": True},              # fixed, so not a key
    {"spectrum_ks": (0,)},
    {"spectrum_m": 30},                  # fixed, so not a key
    # Wrong-typed values from Python, parsed as their config-line text.
    {"workers": 1.5},
    {"n": True},
    {"seed": 0.5},
    {"p": [0.4]},
    # A repeated method or frequency.
    {"baselines": ("vdm", "vdm")},
    {"spectrum_ks": (1, 1)},
])
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        resolve_config(overrides=overrides)


def test_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment setup\n"
        "manifold = torus\n"
        "n = 500  # small run\n"
        "p = 0.4, 1\n"
        "baselines = dm,vdm\n"
        "spectrum_ks = 1,2\n"
        "\n"
    )
    values = load_config_file(str(path))
    assert values == {
        "manifold": "torus", "n": 500, "p": (0.4, 1.0),
        "baselines": ("dm", "vdm"), "spectrum_ks": (1, 2),
    }
    config = resolve_config(file_values=values)
    assert config.manifold == "torus"
    assert config.n == 500


def test_file_errors(tmp_path):
    bad_line = tmp_path / "a.cfg"
    bad_line.write_text("n 500\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config_file(str(bad_line))

    unknown = tmp_path / "b.cfg"
    unknown.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        load_config_file(str(unknown))

    bad_type = tmp_path / "c.cfg"
    bad_type.write_text("n = many\n")
    with pytest.raises(ConfigError, match="n"):
        load_config_file(str(bad_type))

    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.cfg"))


def test_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 500\np = 0.4\nseed = 3\n")
    values = load_config_file(str(path))
    config = resolve_config(file_values=values,
                            overrides={"p": (0.1,), "seed": None})
    # Overrides beat the file; None-valued overrides are ignored.
    assert config.p == (0.1,)
    assert config.n == 500
    assert config.seed == 3


def test_graph_path_means_external_at_its_own_level():
    """A level (file or flags) that names a graph file and no manifold
    means the external manifold; a manifold set at the same level or a
    later one wins, and sphere or torus with a graph file is an error."""
    graph = {"graph_path": "g.txt"}
    assert resolve_config(file_values=graph).manifold == "external"
    assert resolve_config(overrides=graph).manifold == "external"
    assert resolve_config(file_values={"manifold": "torus"},
                          overrides=graph).manifold == "external"
    with pytest.raises(ConfigError, match="graph_path"):
        resolve_config(file_values=graph, overrides={"manifold": "sphere"})


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="Unknown config keys"):
        resolve_config(overrides={"bogus": 1})


@pytest.mark.parametrize("overrides,field,want", [
    ({"p": 0.4}, "p", (0.4,)),
    ({"p": (1, 0.4)}, "p", (1.0, 0.4)),
    ({"n": "500"}, "n", 500),
    ({"baselines": "dm, vdm"}, "baselines", ("dm", "vdm")),
    ({"baselines": "dm"}, "baselines", ("dm",)),
])
def test_python_value_means_its_config_line(overrides, field, want):
    assert getattr(resolve_config(overrides=overrides), field) == want
    assert getattr(ExperimentConfig(**overrides), field) == want


def test_echo_items_order_and_format():
    config = ExperimentConfig(baselines=("dm",), p=(0.25,))
    items = config.echo_items()
    keys = [k for k, _ in items]
    assert keys[0] == "manifold"
    assert keys == sorted(keys, key=keys.index)  # declaration order stable
    as_dict = dict(items)
    assert as_dict["p"] == "0.25"
    assert as_dict["baselines"] == "dm"


@pytest.mark.parametrize("field,value", [
    ("workers", 1.5), ("workers", True), ("spectrum_ks", (1, 2.0)),
])
def test_direct_config_of_a_wrong_type_is_a_config_error(field, value):
    """A config built in Python parses each value as its config line, so a
    wrong-typed value is named by its field instead of failing on a
    comparison."""
    with pytest.raises(ConfigError, match=f"^Bad value for '{field}'"):
        ExperimentConfig(**{field: value})


def test_direct_config_may_give_p_as_ints():
    assert ExperimentConfig(p=(1, 0.4)).p == (1.0, 0.4)
