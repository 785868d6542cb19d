"""Package metadata."""
import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import mahlerlab


def test_version_comes_from_the_package():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        config = read_configuration(Path(__file__).parents[1] / "pyproject.toml")
    assert config["project"]["version"] == mahlerlab.__version__
