import os
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    analytic_exp_field,
    analytic_exp_values,
    flat_site_form,
    span_failure_field,
    u1_half_turn_field,
)
from skyrme import algebra as al
from skyrme import cli, errors, fileio
from skyrme import holonomy as hol
from skyrme import lattice as lat
from skyrme.cli import main
from skyrme.errors import FileFormatError


def test_field_round_trip(tmp_path, su2, lat8):
    u = lat.make_random(lat8, su2, seed=4, amplitude=0.5)
    p = tmp_path / "f.skyf"
    fileio.write_field(p, u)
    back = fileio.read_field(p)
    assert back.algebra.name == "su2"
    assert back.lattice == u.lattice
    assert np.array_equal(back.values, u.values)


def test_field_bytes_deterministic(tmp_path, su2, lat8):
    u = lat.make_random(lat8, su2, seed=4, amplitude=0.5)
    p1, p2 = tmp_path / "a.skyf", tmp_path / "b.skyf"
    fileio.write_field(p1, u)
    fileio.write_field(p2, lat.make_random(lat8, su2, seed=4, amplitude=0.5))
    assert p1.read_bytes() == p2.read_bytes()


def test_one_form_round_trip(tmp_path, su2, lat8):
    u = lat.make_random(lat8, su2, seed=5, amplitude=0.5)
    a = lat.log_derivative(u)
    p = tmp_path / "a.skya"
    fileio.write_one_form(p, a)
    back = fileio.read_one_form(p)
    assert np.abs(back.coeffs - a.coeffs).max() < 1e-12


def test_a_site_form_is_stored_as_its_lattice_connection(tmp_path):
    # the site values are turned into links when the form is built, and the
    # file holds those links; read back as site values they are turned again
    su3 = al.parse_algebra("su3")
    L = lat.TorusLattice((8, 8, 8))
    _, site_values = analytic_exp_values(su3, L, amp=0.5, seed=4)
    a = lat.AlgebraOneForm(L, su3, site_values, sampling="site")
    assert np.abs(a.coeffs - site_values).max() > 1e-3
    p = tmp_path / "a.skya"
    fileio.write_one_form(p, a)
    assert np.abs(fileio.read_one_form(p).coeffs - a.coeffs).max() <= 1e-12
    again = lat.AlgebraOneForm(L, su3, a.coeffs, sampling="site").coeffs
    assert np.abs(fileio.read_one_form(p, "site").coeffs - again).max() <= 1e-12


def test_header_layout(tmp_path, u1, lat8):
    f = lat.make_winding(lat8, u1, (1, 0, 0))
    p = tmp_path / "w.skyf"
    fileio.write_field(p, f)
    raw = p.read_bytes()
    assert raw[:8] == b"SKYF0001"
    gid, rep, n1, n2, n3 = struct.unpack_from("<IIIII", raw, 8)
    assert gid == fileio.GROUP_IDS["u1"] and rep == 1 and (n1, n2, n3) == (8, 8, 8)
    l1, l2, l3 = struct.unpack_from("<ddd", raw, 28)
    assert (l1, l2, l3) == (1.0, 1.0, 1.0)
    # payload is (re, im) float64 pairs, x3 fastest
    z = struct.unpack_from("<dd", raw, 52)
    assert complex(*z) == pytest.approx(f.values[0, 0, 0, 0, 0])


def test_bad_files(tmp_path, su2, lat8):
    p = tmp_path / "bad.skyf"
    p.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(FileFormatError):
        fileio.read_field(p)
    u = lat.constant_field(lat8, su2)
    good = tmp_path / "good.skyf"
    fileio.write_field(good, u)
    (tmp_path / "trail.skyf").write_bytes(good.read_bytes() + b"x")
    with pytest.raises(FileFormatError):
        fileio.read_field(tmp_path / "trail.skyf")
    (tmp_path / "trunc.skyf").write_bytes(good.read_bytes()[:-8])
    with pytest.raises(FileFormatError):
        fileio.read_field(tmp_path / "trunc.skyf")


def test_direct_sum_has_no_file_id(tmp_path, capsys, su2, lat8):
    s = al.direct_sum(su2, su2)
    with pytest.raises(FileFormatError):
        fileio.group_id(s)
    # the header, group id included, is built before the file is opened
    path = tmp_path / "a.skya"
    with pytest.raises(FileFormatError, match="no file id"):
        fileio.write_one_form(path, lat.zero_one_form(lat8, al.parse_algebra("su2+u1")))
    assert not path.exists()
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("group = su2+u1\ndims = 4,4,4\nkind = random\n")
    out = tmp_path / "g.skyf"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 12
    assert "has no file id" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

CONSTANTS_OUTPUT = (
    "algebra=su2 dim=3 trace=-8 K=1/1\n"
    "algebra=su3 dim=8 trace=-12 K=2/3\n"
    "algebra=su4 dim=15 trace=-16 K=1/2\n"
    "algebra=su5 dim=24 trace=-20 K=2/5\n"
    "algebra=spin3 dim=3 trace=-8 K=1/1\n"
    "algebra=spin4 dim=6 trace=-16 K=1/2\n"
    "algebra=spin5 dim=10 trace=-24 K=1/3\n"
    "algebra=spin6 dim=15 trace=-32 K=1/4\n"
    "algebra=spin7 dim=21 trace=-40 K=1/5\n"
    "algebra=spin8 dim=28 trace=-48 K=1/6\n"
    "algebra=spin9 dim=36 trace=-56 K=1/7\n"
    "algebra=sp1 dim=3 trace=-8 K=1/1\n"
    "algebra=sp2 dim=10 trace=-12 K=2/3\n"
    "algebra=sp3 dim=21 trace=-16 K=1/2\n"
    "algebra=g2 dim=14 trace=-16 K=1/2\n"
    "algebra=f4 dim=52 trace=-72 K=1/9\n"
)


def test_cli_constants(capsys):
    assert main(["constants"]) == 0
    assert capsys.readouterr().out == CONSTANTS_OUTPUT


def test_cli_constants_reports_a_mismatch(capsys, monkeypatch):
    # a closed form that disagrees with the computed K marks its line and
    # fails the command; every other line is printed as it is
    closed_form = al.table_constant
    monkeypatch.setattr(al, "table_constant",
                        lambda spec: Fraction(1, 3) if spec == "g2" else closed_form(spec))
    assert main(["constants"]) == 8
    out, err = capsys.readouterr()
    assert out == CONSTANTS_OUTPUT.replace("algebra=g2 dim=14 trace=-16 K=1/2\n",
                                           "algebra=g2 dim=14 trace=-16 K=1/2 MISMATCH\n")
    assert "normalizing constants disagree with the closed forms" in err


def test_cli_gen_energy_f4(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("group = f4\ndims = 4,4,4\nkind = random\nseed = 3\n")
    out = tmp_path / "f4.skyf"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    assert fileio.read_field(out).algebra.name == "f4"
    assert main(["energy", str(out)]) == 0
    e_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("E=")][-1]
    assert float(e_line[2:]) > 0.0


def test_cli_gen_energy_invariants(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("group = su2\ndims = 12,12,12\nkind = winding\nwinding = 1,0,0\n")
    out = tmp_path / "w.skyf"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["energy", str(out)]) == 0
    got = capsys.readouterr().out
    e_line = [l for l in got.splitlines() if l.startswith("E=")][-1]
    assert float(e_line[2:]) == pytest.approx(2 * np.pi ** 2, abs=1e-9)
    assert main(["invariants", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("alpha=(0,0,0)")


def test_cli_energy_of_a_link_whose_log_left_the_algebra(tmp_path, capsys):
    # exit 4 with the link named, not a crash inside the error path
    path = tmp_path / "span.skyf"
    fileio.write_field(path, span_failure_field())
    assert main(["energy", str(path)]) == 4
    err = capsys.readouterr().err
    assert "on axis 1 has a log that left the algebra" in err
    assert "|lambda - 1|" not in err


def test_cli_gen_constant_zero_energy(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("group = su2\ndims = 8,8,8\nkind = winding\nwinding = 0,0,0\n")
    out = tmp_path / "c.skyf"
    main(["gen", "--config", str(cfg), "--out", str(out)])
    main(["energy", str(out)])
    e_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("E=")][-1]
    assert float(e_line[2:]) == 0.0


def test_cli_gen_deterministic_bytes(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("group = su2\ndims = 8,8,8\nkind = random\nseed = 9\n")
    a, b = tmp_path / "a.skyf", tmp_path / "b.skyf"
    assert main(["gen", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["gen", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_holonomy_and_compare(tmp_path, capsys, su2):
    L = lat.TorusLattice((16, 16, 16))
    theta = 0.7
    a = lat.zero_one_form(L, su2)
    a.coeffs[0, ..., 2] = theta
    pa = tmp_path / "a.skya"
    fileio.write_one_form(pa, a)
    assert main(["holonomy", str(pa)]) == 0
    out = capsys.readouterr().out
    assert "loop=1 trace=" in out
    tr = float(out.splitlines()[0].split("trace=")[1].split("+")[0].rstrip("j"))
    assert tr == pytest.approx(2 * np.cos(theta), abs=1e-8)

    # gauge-equivalent pair: exit 0; inequivalent: exit 7
    w = lat.make_random(L, su2, seed=2, smoothness=2.5, amplitude=1e-3)
    a2 = lat.gauge_transform(a, w)
    pb = tmp_path / "b.skya"
    fileio.write_one_form(pb, a2)
    assert main(["holonomy", str(pa), "--compare", str(pb),
                 "--tol", "1e-3"]) == 0
    assert "holonomy=equal" in capsys.readouterr().out
    z = lat.zero_one_form(L, su2)
    pz = tmp_path / "z.skya"
    fileio.write_one_form(pz, z)
    assert main(["holonomy", str(pa), "--compare", str(pz)]) == 7
    assert "holonomies differ" in capsys.readouterr().err


def test_cli_holonomy_of_a_flat_site_form(tmp_path, capsys):
    # a periodic w = exp(X) has trivial holonomy; its exact Maurer-Cartan
    # form, read as site data, passes the default gate and the edge scores
    su3 = al.parse_algebra("su3")
    _, a = analytic_exp_field(su3, lat.TorusLattice((16, 16, 16)), amp=0.5, seed=3)
    pa = tmp_path / "a.skya"
    fileio.write_one_form(pa, a)
    assert main(["holonomy", str(pa), "--tol", "1e-3"]) == 0
    traces = [complex(line.split("trace=")[1]) for line in capsys.readouterr().out.splitlines()
              if line.startswith("loop=")]
    assert len(traces) == 3 and max(abs(t - 3.0) for t in traces) <= 1e-2


@pytest.mark.parametrize("spec, n, amplitude, tol", [
    ("su3", 16, 1e-3, "1e-3"),
    ("su3", 16, 0.5, "1e-3"),
    ("su2", 8, 0.5, None),
])
def test_cli_holonomy_compares_a_site_form_with_its_gauge_transform(tmp_path, capsys, spec, n,
                                                                     amplitude, tol):
    # a form built from site values holds their links, so both files hold
    # the same kind of connection
    a = flat_site_form(spec, n)
    w = lat.make_random(a.lattice, a.algebra, seed=3, amplitude=amplitude)
    pa, pb = tmp_path / "a.skya", tmp_path / "b.skya"
    fileio.write_one_form(pa, a)
    fileio.write_one_form(pb, lat.gauge_transform(a, w))
    tol = [] if tol is None else ["--tol", tol]
    assert main(["holonomy", str(pa), "--compare", str(pb)] + tol) == 0
    assert "holonomy=equal" in capsys.readouterr().out


def test_cli_holonomy_rejects_a_spacing_that_does_not_divide(tmp_path, capsys, su2, lat8):
    pa = tmp_path / "a.skya"
    fileio.write_one_form(pa, lat.zero_one_form(lat8, su2))
    assert main(["holonomy", str(pa), "--spacing", "3"]) == 2
    err = capsys.readouterr().err
    assert "--spacing 3" in err and "must divide" in err


def test_cli_holonomy_rejects_a_spacing_below_two(tmp_path, capsys, su2, lat8):
    pa = tmp_path / "a.skya"
    fileio.write_one_form(pa, lat.zero_one_form(lat8, su2))
    assert main(["holonomy", str(pa), "--spacing", "1"]) == 2
    assert "--spacing 1: cover spacing must be at least 2 sites" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_cli_holonomy_rejects_a_tol_that_is_not_finite_and_positive(tmp_path, capsys, su2,
                                                                    lat8, tol):
    # a NaN or infinite tol would pass every gate and call different
    # holonomies equal; a non-positive one would fail every gate
    pz, pc = tmp_path / "z.skya", tmp_path / "c.skya"
    fileio.write_one_form(pz, lat.zero_one_form(lat8, su2))
    c = lat.zero_one_form(lat8, su2)
    c.coeffs[0, ..., 2] = 0.7
    fileio.write_one_form(pc, c)
    assert main(["holonomy", str(pz), "--compare", str(pc), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err and "holonomy=equal" not in captured.out


@pytest.mark.parametrize("first, second, spec", [
    ((8, "su2", "hedgehog"), (12, "su2", "zero"), "su2"),
    ((8, "su2", "hedgehog"), (12, "su2", "hedgehog"), "su2"),
    ((12, "su2", "hedgehog"), (8, "su2", "hedgehog"), "su2"),
    ((8, "su2", "zero"), (8, "su3", "zero"), "su3"),
])
def test_cli_holonomy_compare_rejects_another_lattice_or_group(tmp_path, capsys,
                                                               first, second, spec):
    paths = []
    for k, (n, group, kind) in enumerate((first, second)):
        L, alg = lat.TorusLattice((n, n, n)), al.parse_algebra(group)
        a = (lat.zero_one_form(L, alg) if kind == "zero"
             else lat.log_derivative(lat.make_hedgehog(L, alg, 0.45)))
        paths.append(tmp_path / f"{k}.skya")
        fileio.write_one_form(paths[-1], a)
    assert main(["holonomy", str(paths[0]), "--compare", str(paths[1])]) == 2
    err = capsys.readouterr().err
    assert f"--compare {paths[1]}" in err and spec in err
    assert all(f"dims ({n}, {n}, {n})" in err for n, _, _ in (first, second))


# stdout of `holonomy A --compare B` on the forms below, as printed before
# the atlas memo: the memo must not change a byte of it
COMPARE_STDOUT = """\
loop=1 trace=1.529684375+0j
  +0.7648421873+0.6442176872j +0.0000000000+0.0000000000j
  +0.0000000000+0.0000000000j +0.7648421873-0.6442176872j
loop=2 trace=2+0j
  +1.0000000000+0.0000000000j +0.0000000000+0.0000000000j
  +0.0000000000+0.0000000000j +1.0000000000+0.0000000000j
loop=3 trace=2+0j
  +1.0000000000+0.0000000000j +0.0000000000+0.0000000000j
  +0.0000000000+0.0000000000j +1.0000000000+0.0000000000j
holonomy=equal
"""


def test_cli_holonomy_compare_develops_each_form_once(tmp_path, capsys, su2, lat8,
                                                      develop_calls):
    a = lat.zero_one_form(lat8, su2)
    a.coeffs[0, ..., 2] = 0.7
    w = lat.make_random(lat8, su2, seed=2, smoothness=2.5, amplitude=1e-3)
    pa, pb = tmp_path / "a.skya", tmp_path / "b.skya"
    fileio.write_one_form(pa, a)
    fileio.write_one_form(pb, lat.gauge_transform(a, w))
    assert main(["holonomy", str(pa), "--compare", str(pb),
                 "--tol", "1e-3"]) == 0
    assert capsys.readouterr().out == COMPARE_STDOUT
    # one development per distinct form: a for its holonomy and as the
    # reconstruction's first side (memo hit), then b
    assert len(develop_calls) == 2
    assert not np.array_equal(develop_calls[0].coeffs, develop_calls[1].coeffs)


@pytest.mark.parametrize("tol", ["1e-7", "1e-9"])
def test_cli_holonomy_compare_below_default_tol(tmp_path, capsys, su2, lat8, develop_calls, tol):
    paths = [tmp_path / "a.skya", tmp_path / "b.skya"]
    for seed, p in zip((3, 4), paths):
        fileio.write_one_form(p, lat.log_derivative(lat.make_random(lat8, su2, seed, amplitude=0.4)))
    args = ["holonomy", str(paths[0]), "--compare", str(paths[1])]
    assert main(args) == 0
    default_out = capsys.readouterr().out
    hol._last_atlas = None
    develop_calls.clear()
    assert main(args + ["--tol", tol]) == 0
    assert capsys.readouterr().out == default_out
    # holonomy_rep and the reconstruction share one atlas of the first form
    assert len(develop_calls) == 2


def test_cli_develop(tmp_path, capsys, su2):
    L = lat.TorusLattice((8, 8, 8))
    w = lat.make_random(L, su2, seed=3, amplitude=0.4)
    pa = tmp_path / "dw.skya"
    fileio.write_one_form(pa, lat.log_derivative(w))
    out = tmp_path / "chart.skyf"
    assert main(["develop", str(pa), "--corner", "0,0,0", "--shape", "5,5,5",
                 "--out", str(out)]) == 0
    chart = fileio.read_field(out)
    assert chart.lattice.dims == (5, 5, 5)
    assert np.abs(chart.values[0, 0, 0] - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("shape", ["0,4,4", "1,1,1", "5,2,5"])
def test_cli_develop_rejects_a_shape_below_three(tmp_path, capsys, su2, lat8, shape):
    pa = tmp_path / "z.skya"
    fileio.write_one_form(pa, lat.zero_one_form(lat8, su2))
    out = tmp_path / "chart.skyf"
    assert main(["develop", str(pa), "--shape", shape, "--out", str(out)]) == 2
    assert f"--shape {shape}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_minimize_map(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("group = su2\ndims = 6,6,6\nkind = random\nseed = 1\n"
                   "amplitude = 0.05\nsmoothness = 1.5\n")
    field = tmp_path / "u0.skyf"
    main(["gen", "--config", str(cfg), "--out", str(field)])
    mcfg = tmp_path / "min.cfg"
    mcfg.write_text("max_iters = 10\nsector_interval = 5\n")
    out = tmp_path / "final.skyf"
    assert main(["minimize", "--config", str(mcfg), "--field", str(field),
                 "--out", str(out)]) == 0
    assert out.exists() and (tmp_path / "final.skyf.trace.csv").exists()
    head = (tmp_path / "final.skyf.trace.csv").read_text().splitlines()[0]
    assert head == "iter,energy,grad_norm,step,alpha,c_rounded,c_residual"


def test_cli_minimize_reports_the_energy_of_its_output(tmp_path, capsys):
    # a run that ends at max_iters prints, and ends its trace with, the
    # energy of the field it writes
    field, out = tmp_path / "u0.skyf", tmp_path / "final.skyf"
    fileio.write_field(field, lat.make_random(lat.TorusLattice((8, 8, 8)),
                                              al.parse_algebra("su2"), seed=1, amplitude=0.5))
    mcfg = tmp_path / "min.cfg"
    mcfg.write_text("max_iters = 5\n")
    assert main(["minimize", "--config", str(mcfg), "--field", str(field),
                 "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert "iters=5 " in line and "termination=max_iters " in line
    printed = float(line.split("E=")[1].split()[0])
    last_row = (tmp_path / "final.skyf.trace.csv").read_text().splitlines()[-1]
    assert float(last_row.split(",")[1]) == pytest.approx(printed, rel=1e-11)
    assert printed == pytest.approx(lat.skyrme_energy_map(fileio.read_field(out)), rel=1e-11)


def test_cli_minimize_rejects_zero_iterations(tmp_path, capsys):
    mcfg = tmp_path / "min.cfg"
    mcfg.write_text("group = su2\ndims = 6,6,6\nmax_iters = 0\n")
    assert main(["minimize", "--config", str(mcfg), "--out", str(tmp_path / "a.skya")]) == 2
    assert "max_iters = '0'" in capsys.readouterr().err


def test_cli_minimize_sector_mode(tmp_path, capsys):
    mcfg = tmp_path / "min.cfg"
    mcfg.write_text("group = su2\ndims = 6,6,6\nalpha = 0,0,0\ncharges = 0\n"
                    "max_iters = 5\n")
    out = tmp_path / "a.skya"
    assert main(["minimize", "--config", str(mcfg), "--out", str(out)]) == 0
    a = fileio.read_one_form(out)
    assert a.lattice.dims == (6, 6, 6)


def test_cli_minimize_names_a_seed_too_coarse_for_its_sector(tmp_path, capsys):
    # the seeding lump does not resolve its charge at 8^3; the refusal says
    # that the seed of the requested sector failed, before any descent
    mcfg = tmp_path / "min.cfg"
    mcfg.write_text("group = su2\ndims = 8,8,8\ncharges = 1\n")
    out = tmp_path / "a.skya"
    assert main(["minimize", "--config", str(mcfg), "--out", str(out)]) == 9
    err = capsys.readouterr().err
    assert ("no seed field for sector (0, 0, 0);(1,) on dims (8, 8, 8): with one lump of radius "
            "0.460 per charge, lattice too coarse to resolve sector (residual 0.290)") in err
    assert not out.exists()


def test_cli_minimize_rejects_unwritable_group_before_descent(tmp_path, capsys, monkeypatch):
    def no_descent(*args, **kwargs):
        raise AssertionError("minimize_connection must not run")

    monkeypatch.setattr(cli, "minimize_connection", no_descent)
    mcfg = tmp_path / "min.cfg"
    mcfg.write_text("group = su2+su3\ndims = 6,6,6\ncharges = 1,0\nmax_iters = 5\n")
    out = tmp_path / "m.skya"
    assert main(["minimize", "--config", str(mcfg), "--out", str(out)]) == 12
    assert "has no file id" in capsys.readouterr().err
    assert not out.exists()


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["energy", str(tmp_path / "missing.skyf")]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dims 8,8,8\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.skyf")]) == 2
    cfg.write_text("group = e8\ndims = 8,8,8\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.skyf")]) == 3
    capsys.readouterr()
    for body, message in [("dims = 4,4,4\nkind = blob\n",
                           "unknown kind 'blob' (hedgehog|winding|random)"),
                          (None, "cannot read config: "),
                          ("group = su2\n", "config needs dims = N1,N2,N3")]:
        cfg.unlink(missing_ok=True)
        if body is not None:
            cfg.write_text(body)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.skyf")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x.skyf").exists()


@pytest.mark.parametrize("args", [["gen", "--config", "g.cfg"],
                                  ["develop", "a.skya", "--shape", "4,4,4"],
                                  ["minimize", "--config", "m.cfg"]])
def test_cli_out_is_required(capsys, args):
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    assert "--out" in capsys.readouterr().err


def _pack(fmt, offset, *values):
    """A patch writing `values` into a file's bytes at `offset`."""
    def patch(raw):
        struct.pack_into(fmt, raw, offset, *values)
        return raw
    return patch


BIG = 2 ** 30


@pytest.mark.parametrize("patch, message", [
    pytest.param(_pack("<I", 16, 2), "header dims (2, 4, 4), lengths (1.0, 1.0, 1.0): need "
                                     "three axes with at least 3 sites each", id="n1=2"),
    pytest.param(_pack("<d", 28, np.nan), "lengths (nan, 1.0, 1.0): lengths must be finite",
                 id="l1=nan"),
    pytest.param(_pack("<d", 36, -1.0), "lengths (1.0, -1.0, 1.0): lengths must be finite",
                 id="l2=-1"),
    pytest.param(_pack("<III", 16, BIG, BIG, BIG),
                 f"truncated data block: the header asks {BIG ** 3 * 4 * 16} bytes", id="n=2^30"),
    pytest.param(_pack("<I", 8, 0x0999), "unknown group id 0x0999", id="group-id"),
    pytest.param(_pack("<I", 12, 3), "rep_dim 3 does not match group su2", id="rep_dim"),
    pytest.param(lambda raw: raw[:20], "truncated header", id="cut-to-20-bytes"),
    pytest.param(lambda raw: raw + b"x", "trailing bytes after", id="trailing-byte"),
])
@pytest.mark.parametrize("command", ["energy", "holonomy"])
def test_cli_refuses_a_corrupt_file_by_its_field(tmp_path, capsys, su2, command, patch, message):
    # energy reads an SKYF file, holonomy an SKYA file; both share the header
    u = lat.make_random(lat.TorusLattice((4, 4, 4)), su2, seed=1, amplitude=0.3)
    path = tmp_path / "f"
    if command == "energy":
        fileio.write_field(path, u)
    else:
        fileio.write_one_form(path, lat.log_derivative(u))
    path.write_bytes(bytes(patch(bytearray(path.read_bytes()))))
    assert main([command, str(path)]) == 12
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cut, code", [(0, 0), (8, 12)])
def test_cli_reads_a_field_from_a_pipe(tmp_path, capsys, su2, cut, code):
    # a pipe has no size to check before reading; a short one is refused after
    path = tmp_path / "u.skyf"
    fileio.write_field(path, lat.make_random(lat.TorusLattice((4, 4, 4)), su2, seed=1,
                                             amplitude=0.3))
    raw = path.read_bytes()
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:  # 4 KiB fits in the pipe's buffer
        fh.write(raw[:len(raw) - cut])
    try:
        assert main(["energy", f"/dev/fd/{r}"]) == code
    finally:
        os.close(r)
    out, err = capsys.readouterr()
    assert ("E=" in out) if code == 0 else ("truncated data block" in err)


def test_help_exit_codes_match_the_error_classes():
    # the exit-code table of `skyrme --help` lists each error class's code
    # under a name, and each listed code but 0 has a class unless retired
    help_text = cli.build_parser().format_help()
    table = help_text[help_text.index("exit codes:"):].splitlines()[1:]
    listed = [m for row in table for m in re.findall(r"(\d+) (\D+?)\s*(?=\s\d+ |$)", row)]
    names = {int(code): name for code, name in listed}
    assert len(names) == len(listed), f"a code is listed twice: {listed}"
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SkyrmeError)]
    codes = {c.exit_code: c.__name__ for c in classes}
    assert len(codes) == len(classes), f"two classes share a code: {classes}"
    assert names[10] == names[11] == "(retired)"
    retired = {code for code, name in names.items() if name == "(retired)"}
    assert codes.keys() <= names.keys() - retired, sorted(codes.keys() - (names.keys() - retired))
    assert names.keys() - retired - {0} <= codes.keys(), sorted(names.keys() - codes.keys())


@pytest.mark.parametrize("line, key, value", [
    ("dims = 6,6,x", "dims", "6,6,x"),
    ("dims = 2,6,6", "dims", "2,6,6"),
    # the line search's constants and the sector tolerance are no longer
    # options: each is an unknown key
    ("shrink = 2", "shrink", "2"),
    ("sector_interval = 0", "sector_interval", "0"),
    ("initial_step = 0", "initial_step", "0"),
    ("initial_step = -0.5", "initial_step", "-0.5"),
    ("sector_tol = 0.6", "sector_tol", "0.6"),
    ("grow = 0.5", "grow", "0.5"),
    ("grad_tol = -1", "grad_tol", "-1"),
    ("grad_tol = inf", "grad_tol", "inf"),
    ("group = u1", "charges", "1"),  # u1 has no simple factor to charge
    ("max_iters = 5\nmax_iters = 6", "max_iters", "6"),  # a key set twice
])
def test_cli_minimize_bad_config_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                   line, key, value):
    # exit 2 with the key and value named, before any field is seeded
    def no_seed(*args, **kwargs):
        raise AssertionError("no field may be seeded from a bad config")

    monkeypatch.setattr(cli, "minimize_connection", no_seed)
    # the row's lines replace the base config's lines for their keys
    cfg = {"group": "su2", "dims": "12,12,12", "charges": "1", "max_iters": "5"}
    rows = line.splitlines()
    for row in rows:
        cfg.pop(row.split("=")[0].strip(), None)
    mcfg = tmp_path / "min.cfg"
    mcfg.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()) + "\n".join(rows) + "\n")
    out = tmp_path / "m.skya"
    assert main(["minimize", "--config", str(mcfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("command, body", [
    ("gen", "group = su2\ndims = 4,4,4\nkind = random\nmax_iter = 5\n"),
    ("gen", "group = su2\ndims = 4,4,4\nkind = random\nseeds = 3\n"),
    ("gen", "group = su2\ndims = 4,4,4\nkind = random\nradius = 0.3\n"),
    ("gen", "group = su2\ndims = 4,4,4\nkind = winding\nseed = 3\n"),
    ("gen", "group = su2\ndims = 4,4,4\nwinding = 1,0,0\n"),
    ("minimize", "group = su2\ndims = 6,6,6\ncharges = 0\nmax_iter = 5\n"),
    ("minimize", "group = su2\ndims = 6,6,6\ncharges = 0\nkind = random\n"),
    # the line search's constants are not options
    ("minimize", "group = su2\ndims = 6,6,6\ncharges = 0\narmijo_c = 1e-4\n"),
    ("minimize", "group = su2\ndims = 6,6,6\ncharges = 0\nmax_backtracks = 40\n"),
])
def test_cli_rejects_a_key_it_does_not_read(tmp_path, capsys, monkeypatch, command, body):
    # a misspelt key is an error naming it, not a silent default
    def no_descent(*args, **kwargs):
        raise AssertionError("no descent may start from a bad config")

    monkeypatch.setattr(cli, "minimize_connection", no_descent)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    out = tmp_path / "x.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    key = body.splitlines()[-1].split("=")[0].strip()
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, keys", [
    ("minimize", set(cli._OPTION_CASTS) | cli._SEED_KEYS),
    ("gen", cli._GEN_KEYS.union(*cli._GEN_KIND_KEYS.values())),
])
def test_cli_help_names_every_config_key(capsys, command, keys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert not {key for key in keys if key not in out}


@pytest.mark.parametrize("key", ["group = su2", "dims = 6,6,6", "lengths = 1,1,1",
                                 "alpha = 0,0,0", "charges = 0"])
def test_cli_minimize_field_rejects_the_seeding_keys(tmp_path, capsys, monkeypatch, su2, lat8,
                                                     key):
    # the sector keys only seed a field; a --field run would ignore them
    def no_descent(*args, **kwargs):
        raise AssertionError("no descent may start from a bad config")

    monkeypatch.setattr(cli, "minimize_map", no_descent)
    field = tmp_path / "u.skyf"
    fileio.write_field(field, lat.constant_field(lat8, su2))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"max_iters = 3\n{key}\n")
    out = tmp_path / "m.skyf"
    assert main(["minimize", "--config", str(cfg), "--field", str(field),
                 "--out", str(out)]) == 2
    assert f"unknown key {key.split()[0]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, bad", [
    ("energy", np.nan), ("invariants", np.nan),
    ("holonomy", np.nan), ("holonomy", np.inf), ("develop", np.nan), ("develop", -np.inf),
])
def test_cli_rejects_a_non_finite_file_entry(tmp_path, capsys, su2, lat8, command, bad):
    # NaN passes every `x > tol` gate, so a corrupt entry is refused on reading
    if command in ("energy", "invariants"):
        u = lat.make_random(lat8, su2, seed=2, amplitude=0.3)
        u.values[1, 2, 3, 0, 1] = bad
        path, where = tmp_path / "u.skyf", "site (1, 2, 3)"
        fileio.write_field(path, u)
        args = [command, str(path)]
    else:
        a = lat.zero_one_form(lat8, su2)
        a.coeffs[1, 2, 3, 4, 0] = bad
        path, where = tmp_path / "a.skya", "component 2 at site (2, 3, 4)"
        with np.errstate(invalid="ignore"):  # inf times a zero basis entry
            fileio.write_one_form(path, a)
        args = [command, str(path)] + (["--shape", "4,4,4", "--out", str(tmp_path / "c.skyf")]
                                       if command == "develop" else [])
    assert main(args) == 12
    err = capsys.readouterr().err
    assert "non-finite" in err and where in err


@pytest.mark.parametrize("command", ["energy", "invariants"])
def test_cli_refuses_a_matrix_off_the_group_by_its_site(tmp_path, capsys, su2, command):
    u = lat.make_random(lat.TorusLattice((4, 4, 4)), su2, seed=2, amplitude=0.3)
    u.values[1, 2, 3] *= 1.01
    path = tmp_path / "u.skyf"
    fileio.write_field(path, u)
    assert main([command, str(path)]) == 12
    err = capsys.readouterr().err
    assert "site (1, 2, 3)" in err and "2.01e-02" in err


def test_cli_invariants_names_the_so3_link_the_lift_refuses(tmp_path, capsys, so3, lat8):
    u = lat.make_random(lat8, so3, seed=1, amplitude=0.2)
    path = tmp_path / "u.skyf"
    fileio.write_field(path, u)
    assert main(["invariants", str(path)]) == 0
    assert capsys.readouterr().out.startswith("alpha=(0,0,0)")
    # turn the base-line site (4, 0, 0) by 2 rad: links 3 -> 4 and 4 -> 5 on axis 1
    u.values[4, 0, 0] = al.group_exp(so3, np.array([0.0, 0.0, 2.0])) @ u.values[4, 0, 0]
    fileio.write_field(path, u)
    assert main(["invariants", str(path)]) == 4
    err = capsys.readouterr().err
    assert "site (3, 0, 0) on axis 1" in err and "SO(3)" in err


def test_cli_invariants_refuses_a_u1_half_turn(tmp_path, capsys):
    path = tmp_path / "u.skyf"
    fileio.write_field(path, u1_half_turn_field())
    assert main(["invariants", str(path)]) == 4
    assert "half-turn link defeats the U(1) lift at site (0, 0, 0) on axis 1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("line, key, value", [
    ("seed = x", "seed", "x"),
    ("amplitude = 0.5.1", "amplitude", "0.5.1"),
])
def test_cli_gen_bad_number_is_a_config_error(tmp_path, capsys, line, key, value):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"group = su2\ndims = 4,4,4\nkind = random\n{line}\n")
    out = tmp_path / "g.skyf"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("kind, line, code", [
    ("hedgehog", "radius = nan", 14),
    ("hedgehog", "radius = 0", 14),
    ("hedgehog", "radius = -0.2", 14),
    ("random", "amplitude = nan", 14),
    ("random", "smoothness = nan", 14),
    ("random", "smoothness = -1", 14),
    ("random", "lengths = 1,1,nan", 2),
    ("random", "lengths = inf,1,1", 2),
])
def test_cli_gen_refuses_parameters_that_write_a_wrong_field(tmp_path, capsys, kind, line, code):
    # each of these wrote a field of NaNs, the identity, or an unsmoothed
    # field with exit 0; none may write a file
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"group = su2\ndims = 6,6,6\nkind = {kind}\n{line}\n")
    out = tmp_path / "g.skyf"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
