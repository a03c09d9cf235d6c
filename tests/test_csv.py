"""The CSV number kernel: ``manifest._g17`` against ``CSV_FLOAT % x``, and
every numeric CSV the package writes against a writer that formats each
number with ``%``."""

import json
import math
import os
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import illiq
import illiq.cli
from illiq import GridSpec, manifest, solve_closed, solve_fd
from illiq.cli import main
from illiq.manifest import CSV_FLOAT, _g17, _g17_digits, write_csv
from illiq.pdesolve import Solution, write_solution_csv
from illiq.simulate import simulate_paths, write_paths_csv


def _percent(x) -> list:
    return [CSV_FLOAT % v for v in np.asarray(x, dtype=float).ravel().tolist()]


def _kernel(x) -> list:
    """The text of each number: its 32-byte cell of four uint64 words, NULs stripped."""
    cells = _g17(np.asarray(x, dtype=float))
    assert cells.dtype == np.uint64 and cells.shape[1:] == (4,)
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells]


def _adversarial() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # a few doubles either side of the fixed/exponent switches, where a
    # rounding carry would change X from -5 to -4 or from 16 to 17
    switch = []
    for edge in (1e-5, 1e-4, 1e16, 1e17):
        x = edge
        for _ in range(8):
            x = np.nextafter(x, 0.0)
            switch.append(x)
        x = edge
        for _ in range(8):
            x = np.nextafter(x, np.inf)
            switch.append(x)
    ends = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            math.inf, math.nan, 0.5, 1.0, 100.0, 1e16 + 2, 123456789.0, 0.1, 1 / 3]
    values = np.concatenate([near, switch, ends])
    return np.concatenate([values, -values])


def _ties() -> np.ndarray:
    """Doubles whose exact decimal value lies halfway between two 17-digit
    numbers: m / 2^k with 18 significant digits, the last a 5."""
    rng = np.random.default_rng(5)
    ties = []
    for digits in range(1, 6):  # digits before the point
        k = 18 - digits
        lo, hi = 10 ** (digits - 1) * 2**k, 10**digits * 2**k
        for m in rng.integers(lo, hi, 40):
            x = (int(m) | 1) / 2**k
            text = format(Decimal(x), "f").rstrip("0")
            if len(text.replace(".", "").lstrip("0")) == 18:
                ties.append(x)
    return np.array(ties)


def test_kernel_matches_percent_on_adversarial_values():
    x = _adversarial()
    assert _kernel(x) == _percent(x)


def test_kernel_matches_percent_on_exact_ties():
    ties = _ties()
    assert ties.size > 100
    assert _kernel(ties) == _percent(ties)
    # a tie is left to %, which rounds it half to even
    assert _g17_digits(ties)[2].all()


def test_kernel_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2**64, 50_000, dtype=np.uint64)
    x = bits.view(np.float64)
    assert _kernel(x) == _percent(x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_kernel_matches_percent_on_any_floats(values):
    assert _kernel(values) == _percent(values)


def test_kernel_keeps_zeros_and_integers_on_the_vector_path():
    x = np.concatenate([[0.0, -0.0], np.arange(1000.0)])
    assert not _g17_digits(x)[2].any()
    assert _kernel(x) == _percent(x)


def test_fallback_share_on_the_call_lattice(call_solution):
    sol = call_solution
    numbers = np.concatenate([sol.times, sol.prices, sol.values.ravel(),
                              sol.gradients.ravel(), sol.speeds.ravel(),
                              sol.aggregate_speed.ravel()])
    assert _g17_digits(numbers)[2].mean() < 1e-3


# ---------------------------------------------------------------------------
# every numeric CSV, byte for byte against a writer that uses % per number
# ---------------------------------------------------------------------------


def _percent_csv(path, axes, fields: dict) -> None:
    """``write_csv`` with one ``%`` per number: every point of the axes, row-major."""
    points = np.meshgrid(*(np.asarray(axis, dtype=float) for _, axis in axes), indexing="ij")
    columns = [_percent(column) for column in (*points, *fields.values())]
    with open(path, "w") as fh:
        fh.write(",".join([*(name for name, _ in axes), *fields]) + "\n")
        for line in zip(*columns):
            fh.write(",".join(line) + "\n")


def _notations() -> np.ndarray:
    """Numbers in every %g notation, both signs: fixed with X = -4..16, with
    and without a fraction, exponent form either side of it, integers and zeros."""
    fixed = [float(f"{m}e{e}") for e in range(-4, 17) for m in ("1", "1.2345678901234565", "9.87")]
    exponent = [1e-5, 2.5e-17, 1.2345678901234567e-200, 1e17, 3.25e21, 9.87e280]
    values = np.array([*fixed, *exponent, 7.0, 42.0, 123456789.0, 1e16 + 2])
    return np.concatenate([[0.0, -0.0], values, -values])


def test_write_csv_matches_percent_with_fallbacks_mid_block(tmp_path, monkeypatch):
    n_rows, n_cols = 16, 10
    # blocks of 4 rows of 10 columns: 40 lines of two fields
    monkeypatch.setattr(manifest, "CSV_BLOCK_NUMBERS", 4 * n_cols * 2)
    fallbacks = [math.nan, math.inf, -math.inf, 5e-324, _ties()[0]]
    mixed = np.resize(np.insert(_notations(), [13, 44, 56, 92, 123], fallbacks), n_rows * n_cols)
    # only these go to %: inside lines of all four blocks
    assert np.flatnonzero(_g17_digits(mixed)[2]).tolist() == [13, 45, 58, 95, 127]
    axes = [("t", np.linspace(0.0, 1.1, n_rows)), ("p", _notations()[:n_cols])]
    fields = {"a": mixed.reshape(n_rows, n_cols), "b": mixed[::-1].reshape(n_rows, n_cols)}
    write_csv(tmp_path / "kernel.csv", axes, fields)
    _percent_csv(tmp_path / "percent.csv", axes, fields)
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "percent.csv").read_bytes()


@pytest.fixture()
def percent_writers(monkeypatch):
    """Switch every package module that binds ``write_csv`` over to the % writer."""

    def switch():
        bound = [module for module in vars(illiq).values()
                 if getattr(module, "write_csv", None) is write_csv]
        assert {module.__name__ for module in bound} >= {
            "illiq.manifest", "illiq.pdesolve", "illiq.cli", "illiq.simulate"}
        for module in bound:
            monkeypatch.setattr(module, "write_csv", _percent_csv)

    return switch


def _run_twice(tmp_path, percent_writers, argv) -> tuple:
    """Run the CLI with the kernel, then with the % writers; the two output dirs."""
    fast, slow = tmp_path / "kernel", tmp_path / "percent"
    assert main([*argv, "--out", str(fast)]) == 0
    percent_writers()
    assert main([*argv, "--out", str(slow)]) == 0
    return fast, slow


def _assert_same_csvs(fast, slow, names) -> None:
    for name in names:
        assert (fast / name).read_bytes() == (slow / name).read_bytes(), name


def _config(tmp_path, players) -> str:
    doc = {
        "market": {"sigma": 1.0, "lambda": 0.01, "T": 1.0, "p0": 100.0},
        "cost": {"kind": "linear", "kappa": 0.01},
        "players": players,
        "grid": {"p_min": 94.0, "p_max": 106.0, "n_p": 81, "n_t": 120, "quad_nodes": 64},
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    return str(path)


_CALL = {"utility": {"kind": "risk_neutral"}, "payoff": {"kind": "smoothed_call", "K": 100.0}}
_SHORT = {"utility": {"kind": "risk_neutral"},
          "payoff": {"kind": "negated", "inner": {"kind": "smoothed_call", "K": 100.0}}}


@pytest.mark.parametrize("players, method", [([_CALL], "fd"), ([_CALL, _SHORT], "closed")],
                         ids=["N1-fd", "N2-closed"])
def test_solve_csvs_match_percent_writer(tmp_path, percent_writers, players, method):
    fast, slow = _run_twice(tmp_path, percent_writers,
                            ["solve", "--config", _config(tmp_path, players), "--method", method])
    _assert_same_csvs(fast, slow, ["solution.csv", "surplus.csv"])
    # the manifests record the same digests for the same bytes
    sha = [json.loads((d / "manifest.json").read_text())["output_sha256"] for d in (fast, slow)]
    assert sha[0]["solution.csv"] == sha[1]["solution.csv"]


def test_paths_csv_matches_percent_writer(tmp_path, percent_writers, call_game):
    sol = solve_fd(call_game, GridSpec(94.0, 106.0, 81, 100))
    bundle = simulate_paths(sol, call_game, 150, 3, 60)
    write_paths_csv(bundle, tmp_path / "kernel.csv")
    percent_writers()
    write_paths_csv(bundle, tmp_path / "percent.csv")
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "percent.csv").read_bytes()


@pytest.mark.parametrize("study, names", [
    (["--study", "spread", "--s", "0,0.003", "--grid", "61,40"],
     ["sweep.csv", "sweep_grids.csv"]),
], ids=["spread"])
def test_sweep_csvs_match_percent_writer(tmp_path, percent_writers, study, names):
    fast, slow = _run_twice(tmp_path, percent_writers,
                            ["sweep", "--config", _config(tmp_path, [_CALL]), *study])
    _assert_same_csvs(fast, slow, names)


def test_a_field_equal_to_an_earlier_one_is_formatted_once(tmp_path, percent_writers,
                                                           monkeypatch, call_game):
    sol = solve_fd(call_game, GridSpec(94.0, 106.0, 81, 100))
    # one linear-cost player: the aggregate speed is that player's speed, bit for bit
    assert sol.aggregate_speed.tobytes() == sol.speeds[0].tobytes()
    formatted = []
    kernel = manifest._g17

    def counting(x, *args, **kwargs):
        formatted.append(np.size(x))
        return kernel(x, *args, **kwargs)

    monkeypatch.setattr(manifest, "_g17", counting)
    write_solution_csv(sol, tmp_path / "kernel.csv")
    n_t, n_p = sol.values.shape[1:]
    # the two axes, then v_1, grad_1 and speed_1, whose cells agg_speed copies
    assert sum(formatted) == n_t + n_p + 3 * n_t * n_p
    percent_writers()
    write_solution_csv(sol, tmp_path / "percent.csv")
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "percent.csv").read_bytes()


def test_n2_solution_csv_matches_percent_writer(tmp_path, percent_writers, zero_sum_game):
    sol = solve_closed(zero_sum_game, GridSpec(94.0, 106.0, 61, 50))
    write_solution_csv(sol, tmp_path / "kernel.csv")
    percent_writers()
    write_solution_csv(sol, tmp_path / "percent.csv")
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "percent.csv").read_bytes()


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def _synthetic_solution(n_t: int) -> Solution:
    grid = GridSpec(94.0, 106.0, 401, n_t)
    times = np.linspace(0.0, 1.0, n_t)
    prices = grid.prices
    field = np.sin(times[:, None] * 3.0 + prices[None, :] / 7.0)[None]
    return Solution(grid, times, prices, field, field * 0.3, field * -2e-3, field[0] * 1e-5, {})


def _write_peak(traced_peak, n_t: int) -> int:
    sol = _synthetic_solution(n_t)
    write_solution_csv(sol, os.devnull)  # tables built before measuring
    return traced_peak(write_solution_csv, sol, os.devnull)


def test_solution_csv_memory_is_flat_in_n_t(traced_peak):
    # the writer holds one block of lines, not the file: the peak at
    # 401 x 2000 is a few MB and the same as at 401 x 200
    small, large = _write_peak(traced_peak, 200), _write_peak(traced_peak, 2000)
    assert large < 8e6
    assert large - small < 2e5


def test_csv_writer_peak_is_its_scratch_and_one_block_of_text(traced_peak):
    # two players: 7 fields over 121 prices, in 9-row blocks
    n_t, n_p, n_fields = 161, 121, 7
    rows = manifest.CSV_BLOCK_NUMBERS // (n_p * n_fields)
    assert n_t >= 5 * rows
    grid = GridSpec(94.0, 106.0, n_p, n_t)
    times = np.linspace(0.0, 1.0, n_t)
    field = np.sin(times[:, None] * 3.0 + grid.prices[None, :] / 7.0)
    values = np.stack([field, -0.5 * field])
    sol = Solution(grid, times, grid.prices, values, values * 0.3, values * -2e-3,
                   field * 1e-5, {})
    write_solution_csv(sol, os.devnull)  # tables built before measuring
    peak = traced_peak(write_solution_csv, sol, os.devnull)
    # the scratch: the kernel's eight-byte rows and the field buffer, per
    # number of a block; the line cells and the mask of their non-NUL bytes;
    # then one block of text, at most the size of the cells
    numbers = rows * n_p * n_fields
    cells = rows * n_p * (2 + n_fields) * 32
    assert peak < numbers * 8 * (manifest._G17_ROWS + 1) + 3 * cells + 2**17


def test_write_manifest_leaves_no_temporary_file_when_the_dump_fails(tmp_path):
    # the record goes to a temporary file renamed over the manifest: a value
    # json cannot write leaves the earlier manifest as it was, and nothing else
    path = tmp_path / "manifest.json"
    manifest.write_manifest({"outputs": []}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        manifest.write_manifest({"outputs": [], "meta": {"when": object()}}, path)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert path.read_bytes() == before
