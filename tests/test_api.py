"""The public surface: swissmc.__all__, README's "Library API" list and the
"Library quick start" block."""

import re
import types
from pathlib import Path

import numpy as np

import swissmc

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


class TestPublicSurface:
    def test_all_is_every_public_name(self):
        # nothing is exported silently: each public non-module attribute of
        # the package is in __all__, and each name there exists
        public = {
            name
            for name, value in vars(swissmc).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == set(swissmc.__all__)
        assert len(swissmc.__all__) == len(public)

    def test_readme_library_api_lists_all(self):
        # every code span of the section is an exported name, every exported
        # name is there, and each has a line of its own
        section = _section("Library API")
        assert set(re.findall(r"`([^`]+)`", section)) == set(swissmc.__all__)
        lines = re.findall(r"^\* `([^`]+)`", section, re.M)
        assert sorted(lines) == sorted(swissmc.__all__)


class TestReadmeQuickStart:
    def test_quick_start_block_runs(self, tmp_path, monkeypatch, capsys):
        # README's "Library quick start" must run as printed; it writes its
        # experiment outputs under out/ in the working directory
        block = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
        monkeypatch.chdir(tmp_path)
        namespace = {"__name__": "readme_quick_start"}
        exec(compile(block, "README.md", "exec"), namespace)
        result, summary = namespace["result"], namespace["summary"]
        assert result.combined.shape == (20000, 3)
        assert np.all(np.isfinite(result.pooled.mean))
        assert len(summary.reports) == 3
        assert 0.0 <= summary.aggregates["combiners"]["swiss"]["iad"]["mean"] <= 1.0
        assert (tmp_path / "out" / "summary.json").exists()
        assert capsys.readouterr().out
