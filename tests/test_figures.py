"""The paper's figures are configs under ``demos/figures`` run by existing
commands: every row of the README's figure table names a config that loads
and a command that passes on it at a small lattice."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from illiq.cli import main
from illiq.model import load_config

ROOT = Path(__file__).resolve().parent.parent
FIGURES = ROOT / "demos" / "figures"
SMALL_GRID = "41,21"
# | fig3 | `demos/figures/call.json` | `illiq sweep --study spread` | `401,1000` | ...
ROW = re.compile(r"^\| (fig\d[^|]*?) \| `(demos/figures/[\w.]+)` \| `illiq ([^`]+)` "
                 r"\| `(\d+,\d+)` \|", re.MULTILINE)


def _table() -> list:
    """(figure, config, command, grid) for each row of the README's figure table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## The paper's figures", 1)[1].split("\n## ", 1)[0]
    return ROW.findall(section)


def test_the_table_covers_every_figure_and_config():
    rows = _table()
    figures = {figure.split(",")[0] for figure, *_ in rows}
    assert sorted(figures) == [f"fig{k}" for k in range(1, 7)]
    assert {config for _, config, *_ in rows} == {
        f"demos/figures/{path.name}" for path in FIGURES.glob("*.json")}


@pytest.mark.parametrize("figure, config, command, grid",
                         [pytest.param(*row, id=row[0].replace(", ", "_")) for row in _table()])
def test_figure_command_passes_on_its_config(tmp_path, capsys, figure, config, command, grid):
    path = ROOT / config
    _, config_grid = load_config(path.read_text())
    n_p, n_t = map(int, grid.split(","))
    replace(config_grid, n_p=n_p, n_t=n_t)  # the figure's own lattice is a valid grid
    out = tmp_path / "out"
    code = main([*command.split(), "--config", str(path), "--out", str(out),
                 "--grid", SMALL_GRID])
    stdout = capsys.readouterr().out
    assert code == 0
    if command.startswith("sweep"):
        assert json.loads((out / "assertions.json").read_text())["passed"] is True
    else:
        assert re.search(r"^speed bound check: .* -> PASS$", stdout, re.MULTILINE)
