"""Configuration parsing and artifact serialization."""
import json
import struct

import numpy as np
import pytest

from blmhd import cli
from blmhd.config import ConfigError, canonical_text, load_config, parse_config
from blmhd.io import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    config_digest,
    read_snapshot,
    write_csv,
    write_json,
    write_snapshot,
)
from blmhd.pde import DEPTH_CAP
from blmhd.state import derive_secondary

from conftest import perturbed_state

MINIMAL = "[grid]\nnx = 16\nny = 48\n"


def test_defaults_applied():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.nx == 16 and cfg.grid.ny == 48
    assert cfg.grid.y_max == 15.0 and cfg.grid.stretch == 2.0
    assert cfg.grid.x_scheme == "fd4"
    assert cfg.solver.mu == 1.0 and cfg.solver.kappa == 1.0
    assert cfg.solver.eps == 0.01
    assert cfg.solver.dt == 1e-3 and cfg.solver.t_end == 0.1
    assert cfg.solver.scheme == "imex-cn"
    assert cfg.solver.delta0 == 0.25 and cfg.solver.l == 2.0
    assert cfg.m == 2 and cfg.initial == "equilibrium"
    assert cfg.ladder == (0.1, 0.05, 0.025, 0.0125)
    assert cfg.output_stride == 1


def test_out_of_range_names_the_key():
    text = MINIMAL + "[physics]\neps = -1\n"
    with pytest.raises(ConfigError, match=r"physics\.eps"):
        parse_config(text)


@pytest.mark.parametrize("m,ok", [(0, False), (DEPTH_CAP, True), (DEPTH_CAP + 1, False)])
def test_m_runs_from_one_to_the_tower_depth_cap(m, ok):
    text = MINIMAL + f"[experiment]\nm = {m}\n"
    if ok:
        assert parse_config(text).m == m
    else:
        with pytest.raises(ConfigError, match=r"experiment\.m"):
            parse_config(text)


def test_duplicate_key_cites_both_lines():
    text = "[grid]\nnx = 16\nny = 48\nnx = 32\n"
    with pytest.raises(ConfigError, match="lines 2 and 4"):
        parse_config(text)


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "[turbulence]\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[grid]\nnx = 16\nny = 48\nnz = 4\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match=r"grid\.ny"):
        parse_config("[grid]\nnx = 16\n")


def test_non_decreasing_ladder_rejected():
    text = MINIMAL + "[experiment]\nladder = 0.1,0.1\n"
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(text)


@pytest.mark.parametrize(
    "section, line",
    [
        ("solver", "t_end=inf"),
        ("physics", "mu=nan"),
        ("grid", "y_max=inf"),
        ("experiment", "amplitude=nan"),
        ("experiment", "ladder=nan"),
        ("experiment", "ladder=inf,0.1"),
        ("experiment", "ladder=0.01,-0.01"),
    ],
)
def test_non_finite_values_and_negative_rungs_are_config_errors(tmp_path, section, line):
    # each is a ConfigError naming its key, so the CLI exits 2 before any run
    text = MINIMAL + f"[{section}]\n{line}\n"
    key = f"{section}.{line.split('=')[0]}"
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_config(text)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("ladder", [",", " , ,"])
def test_an_empty_ladder_is_a_config_error(tmp_path, ladder):
    # a ladder with no rung gives the sweep no run to compare
    text = MINIMAL + f"[experiment]\nladder = {ladder}\n"
    with pytest.raises(ConfigError, match=r"experiment\.ladder"):
        parse_config(text)
    path = tmp_path / "empty.ini"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_zero_is_a_valid_final_rung():
    cfg = parse_config(MINIMAL + "[experiment]\nladder = 0.01,0\n")
    assert cfg.ladder == (0.01, 0.0)


@pytest.mark.parametrize(
    "t_end, stride, ok",
    [(0.005, 2, False), (0.006, 4, False), (0.006, 2, True), (0.005, 5, True), (0.005, 8, True)],
)
def test_output_stride_must_divide_the_steps(t_end, stride, ok):
    # a stride beyond the run stores the initial and final states only,
    # which are evenly spaced
    text = MINIMAL + f"[solver]\ndt = 0.001\nt_end = {t_end}\noutput_stride = {stride}\n"
    if ok:
        assert parse_config(text).output_stride == stride
    else:
        with pytest.raises(ConfigError, match=r"solver\.output_stride"):
            parse_config(text)


def test_type_error_cites_line():
    with pytest.raises(ConfigError, match="must be int"):
        parse_config("[grid]\nnx = many\nny = 48\n")


def test_canonical_text_and_digest_are_stable():
    # key order and comments must not affect the canonical form
    a = parse_config(MINIMAL + "[physics]\nmu = 1.0\n# note\n")
    b = parse_config("[physics]\nmu = 1.0\n[grid]\nny = 48\nnx = 16\n")
    assert canonical_text(a) == canonical_text(b)
    d = config_digest(canonical_text(a))
    assert len(d) == 64 and all(c in "0123456789abcdef" for c in d)
    assert d == config_digest(canonical_text(b))


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(MINIMAL)
    cfg = load_config(p)
    assert cfg.grid.nx == 16


def test_csv_formatting(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c"], [[np.float64(0.5), True, np.int64(3)], [1.0, False, 4]])
    text = p.read_text()
    lines = text.split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "0.5,true,3"
    assert lines[2] == "1.0,false,4"
    assert "np." not in text


def test_json_sorted_keys(tmp_path):
    p = tmp_path / "t.json"
    write_json(p, {"zeta": 1, "alpha": (1, 2), "mid": np.float64(0.25)})
    text = p.read_text()
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": [1, 2], "mid": 0.25}


def test_snapshot_round_trip(tmp_path, grid_small):
    st = perturbed_state(grid_small)
    p = tmp_path / "s.bin"
    write_snapshot(p, st)
    assert p.read_bytes()[: len(SNAPSHOT_MAGIC)] == SNAPSHOT_MAGIC
    back = read_snapshot(p)
    assert back["nx"] == grid_small.nx and back["ny"] == grid_small.ny
    assert back["y_max"] == grid_small.y_max
    assert back["time"] == st.time
    for name in ("rho_shift", "u_shift", "h_shift", "v", "g", "psi"):
        f = getattr(st, name) if name.endswith("_shift") else derive_secondary(st, name)
        assert np.array_equal(back[name], f.values)


def test_snapshot_error_modes(tmp_path, grid_small):
    st = perturbed_state(grid_small)
    p = tmp_path / "s.bin"
    write_snapshot(p, st)
    raw = p.read_bytes()

    bad_magic = tmp_path / "m.bin"
    bad_magic.write_bytes(b"NOTME1" + raw[6:])
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(bad_magic)

    truncated = tmp_path / "t.bin"
    truncated.write_bytes(raw[:-100])
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot(truncated)

    short_header = tmp_path / "h.bin"
    short_header.write_bytes(raw[: len(SNAPSHOT_MAGIC) + 12])
    with pytest.raises(SnapshotError, match="truncated header"):
        read_snapshot(short_header)

    trailing = tmp_path / "x.bin"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(SnapshotError, match="trailing"):
        read_snapshot(trailing)


@pytest.mark.parametrize(
    "header",
    [
        (0, 48, 15.0, 2.0, 0.0),
        (-1, -1, 15.0, 2.0, 0.0),
        (16, 7, 15.0, 2.0, 0.0),
        (2**40, 48, 15.0, 2.0, 0.0),
        (16, 48, np.nan, 2.0, 0.0),
        (16, 48, 15.0, np.inf, 0.0),
        (16, 48, 15.0, 2.0, -np.inf),
    ],
)
def test_snapshot_with_a_bad_header_is_refused(tmp_path, grid_small, header):
    # the header is checked before a body is read: a grid below the
    # GridSpec minimum or a non-finite float is a SnapshotError, even with
    # the (finite) bodies the header announces, and so is a size the file
    # does not hold, not a ValueError or an OverflowError
    st = perturbed_state(grid_small)
    p = tmp_path / "s.bin"
    write_snapshot(p, st)
    raw = p.read_bytes()
    start = len(SNAPSHOT_MAGIC)
    n = 48 * header[0] * header[1]  # six float64 bodies of nx * ny
    body = bytes(n) if 0 <= n <= len(raw) else raw[start + 40 :]
    p.write_bytes(raw[:start] + struct.pack("<qqddd", *header) + body)
    with pytest.raises(SnapshotError):
        read_snapshot(p)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_snapshot_with_a_non_finite_body_is_refused(tmp_path, grid_small, bad_value):
    # a snapshot is where data enter: a non-finite body is refused by name
    st = perturbed_state(grid_small)
    p = tmp_path / "s.bin"
    write_snapshot(p, st)
    raw = bytearray(p.read_bytes())
    header = len(SNAPSHOT_MAGIC) + 40  # two int64 and three float64
    body = 8 * grid_small.nx * grid_small.ny
    at = header + body + 8 * 7  # u_shift, the second body, entry 7
    raw[at : at + 8] = np.array([bad_value], dtype="<f8").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="non-finite entries in field u_shift"):
        read_snapshot(p)
