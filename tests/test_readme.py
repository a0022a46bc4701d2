import re
import shlex
from pathlib import Path

from allocmap.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_readme_quick_start_steps_rebuild_the_one_command_run(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start\n")[1].split("\n## ")[0]
    whole, steps = (block.replace("\\\n", " ").splitlines() for block in re.findall(r"```sh\n(.*?)```", section, re.S))
    monkeypatch.chdir(tmp_path)
    for line in whole + steps:
        program, *argv = shlex.split(line)
        assert program == "allocmap"
        assert main(argv) == 0, line
    # map.svg is drawn without the pipeline's --title; test_io checks that render redraws its maps
    for step, run in {
        "data.json": "dataset.json",
        "dist.csv": "distances_demand.csv",
        "emb.csv": "embedding.csv",
        "explicit.csv": "explicit.csv",
        "feats.csv": "features.csv",
    }.items():
        assert (tmp_path / step).read_bytes() == (tmp_path / "out" / run).read_bytes(), step
    assert (tmp_path / "map.svg").exists()
