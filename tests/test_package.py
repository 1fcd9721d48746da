"""Tests of the package namespace: every public name is re-exported once,
and the README's Quick start runs against it."""

import pathlib
import re

import mixerlab
from mixerlab import attention, bench, blocks, diagnostics, mixer_core, rng, ssm


def test_all_is_the_module_lists_plus_cli_and_version():
    names = mixerlab.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(mixerlab, name) for name in names)
    modules = (mixer_core, rng, attention, ssm, blocks, diagnostics, bench)
    expected = ["__version__"] + [n for m in modules for n in m.__all__]
    assert names == expected + ["ConfigError", "RunConfig", "main"]


def test_reexports_are_the_module_objects():
    for module in (mixer_core, rng, attention, ssm, blocks, diagnostics, bench):
        for name in module.__all__:
            assert getattr(mixerlab, name) is getattr(module, name)


def test_readme_quick_start_runs():
    """The Python block under the README's Quick start heading runs as
    written, so the first example a reader copies follows the API."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, "README.md", "exec"), {})
