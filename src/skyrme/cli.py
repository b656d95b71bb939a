"""Command-line interface.

Subcommands: constants | gen | energy | invariants | holonomy | develop |
minimize.  `holonomy` and `develop` read SKYA files as lattice
connections, the link values `fileio.write_one_form` stores.
Configuration is a flat ``key = value`` text file with ``#`` comments;
`gen` and `minimize` each reject a key they do not read in their mode
(the `kind` of `gen`; seeding or ``--field`` for `minimize`).  Every library
error maps to a distinct nonzero exit code with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .algebra import certification_report, parse_algebra
from .errors import CertificationError, ConfigError, SkyrmeError
from .holonomy import (DEFAULT_ATLAS_TOL, CubicalCover, develop_cube, gauge_from_holonomy,
                       holonomy_rep)
from .invariants import SectorInvariants, pi1_orders, sector_of
from .lattice import (
    GroupField,
    TorusLattice,
    make_hedgehog,
    make_random,
    make_winding,
    skyrme_energy_map,
    zero_one_form,
)
from .minimize import MinimizeOptions, minimize_connection, minimize_map

EXIT_CODES_HELP = """\
exit codes:
  0 success                8 certification mismatch
  1 unexpected error       9 sector unresolved or drift
  2 usage or config       10 (retired)
  3 unsupported algebra   11 (retired)
  4 log range / roughness 12 bad field file
  5 connection not flat   13 line search stalled
  6 atlas inconsistent    14 generator precondition
  7 holonomies differ     15 algebra construction failure
"""


# the keys each config-reading command reads in each mode; any other key
# is an error, so a misspelt or idle option cannot pass unnoticed
_OPTION_CASTS = {"max_iters": int, "grad_tol": float, "sector_interval": int}
_GEN_KEYS = {"group", "dims", "lengths", "kind"}
_GEN_KIND_KEYS = {"hedgehog": {"radius", "charge"}, "winding": {"winding"},
                  "random": {"seed", "smoothness", "amplitude"}}
_SEED_KEYS = {"group", "dims", "lengths", "alpha", "charges"}


def _gen_keys(cfg: dict) -> set:
    kind = cfg.get("kind", "hedgehog")
    if kind not in _GEN_KIND_KEYS:
        raise ConfigError(f"unknown kind {kind!r} (hedgehog|winding|random)")
    return _GEN_KEYS | _GEN_KIND_KEYS[kind]


def _keys_help(rows) -> str:
    """A --help epilog listing the config keys read in each mode."""
    return "config keys:\n" + "".join(f"  {mode}: {', '.join(sorted(keys))}\n"
                                      for mode, keys in rows)


def _parse_config(path: str, keys) -> dict:
    """The ``key = value`` pairs of a config file; `keys(cfg)` is the set
    of keys the command reads for them, and any other key, or a key set
    twice, is an error."""
    entries = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                entries.append((lineno, *(s.strip() for s in line.split("=", 1))))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    cfg, first = {}, {}
    for lineno, key, val in entries:
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} = {val!r} set again "
                              f"(first set on line {first[key]})")
        cfg[key], first[key] = val, lineno
    known = keys(cfg)
    for lineno, key, val in entries:
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} = {val!r} "
                              f"(known: {', '.join(sorted(known))})")
    return cfg


def _as_numbers(text: str, n: int, what: str, cast) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        if len(parts) == n:
            return tuple(cast(p) for p in parts)
    except ValueError:
        pass
    raise ConfigError(f"{what} needs {n} {'integers' if cast is int else 'numbers'}, "
                      f"got {text!r}")


def _scalar(cfg: dict, key: str, cast, default):
    """cfg[key] read as an int or a float, or `default` when key is absent."""
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} needs {'an integer' if cast is int else 'a number'}, "
                          f"got {cfg[key]!r}") from None


def _given(cfg: dict, **casts) -> dict:
    """The keys of `casts` that cfg sets, each read with its cast, so a
    library function keeps its own default for every key left out."""
    return {key: _scalar(cfg, key, cast, None) for key, cast in casts.items() if key in cfg}


def _lattice_from(cfg: dict) -> TorusLattice:
    if "dims" not in cfg:
        raise ConfigError("config needs dims = N1,N2,N3")
    dims = _as_numbers(cfg["dims"], 3, "dims", int)
    lengths = _as_numbers(cfg.get("lengths", "1,1,1"), 3, "lengths", float)
    try:
        return TorusLattice(dims, lengths)
    except ValueError as exc:
        raise ConfigError(f"dims = {cfg['dims']!r}, lengths = {cfg.get('lengths', '1,1,1')!r}: "
                          f"{exc}") from exc


def _options_from(cfg: dict) -> MinimizeOptions:
    opts = MinimizeOptions()
    for key, cast in _OPTION_CASTS.items():
        if key in cfg:
            setattr(opts, key, _scalar(cfg, key, cast, None))
            try:
                opts.__post_init__()
            except ValueError as exc:
                raise ConfigError(f"{key} = {cfg[key]!r}: {exc}") from exc
    return opts


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_constants(args) -> int:
    lines, ok = certification_report()
    for line in lines:
        print(line)
    if not ok:
        raise CertificationError("normalizing constants disagree with the closed forms")
    return 0


def cmd_gen(args) -> int:
    cfg = _parse_config(args.config, _gen_keys)
    if args.out is None:
        raise ConfigError("gen needs --out PATH")
    alg = parse_algebra(cfg.get("group", "su2"))
    lattice = _lattice_from(cfg)
    kind = cfg.get("kind", "hedgehog")
    if kind == "hedgehog":
        radius = _scalar(cfg, "radius", float, 0.45 * min(lattice.lengths))
        u = make_hedgehog(lattice, alg, radius, **_given(cfg, charge=int))
    elif kind == "winding":
        m = _as_numbers(cfg.get("winding", "0,0,0"), 3, "winding", int)
        u = make_winding(lattice, alg, m)
    else:  # random, the last kind `_gen_keys` admits
        u = make_random(lattice, alg, seed=_scalar(cfg, "seed", int, 0),
                        **_given(cfg, smoothness=float, amplitude=float))
    fileio.write_field(args.out, u)
    print(f"wrote {args.out} kind={kind} group={alg.name} dims={lattice.dims}")
    return 0


def cmd_energy(args) -> int:
    u = fileio.read_field(args.field)
    print(f"E={skyrme_energy_map(u):.12g}")
    return 0


def cmd_invariants(args) -> int:
    u = fileio.read_field(args.field)
    print(sector_of(u).report_line())
    return 0


def _print_holonomy(rep) -> None:
    for ell in range(3):
        g = rep.elements[ell]
        tr = g.trace()
        print(f"loop={ell + 1} trace={tr.real:.10g}{tr.imag:+.10g}j")
        for row in g:
            print("  " + " ".join(f"{z.real:+.10f}{z.imag:+.10f}j" for z in row))


def cmd_holonomy(args) -> int:
    if not 0.0 < args.tol < float("inf"):
        raise ConfigError(f"--tol {args.tol}: must be finite and positive")
    a = fileio.read_one_form(args.form)
    try:
        cover = CubicalCover.for_lattice(a.lattice, args.spacing)
    except ValueError as exc:
        spacing = "default" if args.spacing is None else args.spacing
        raise ConfigError(f"--spacing {spacing}: {exc}") from exc
    rep = holonomy_rep(a, cover, tol=args.tol)
    _print_holonomy(rep)
    if args.compare is not None:
        b = fileio.read_one_form(args.compare)
        try:
            gauge_from_holonomy(a, b, cover, tol=args.tol)
        except ValueError as exc:
            raise ConfigError(f"--compare {args.compare}: {exc}") from exc
        print("holonomy=equal")
    return 0


def cmd_develop(args) -> int:
    if args.out is None:
        raise ConfigError("develop needs --out PATH")
    corner = _as_numbers(args.corner, 3, "corner", int)
    shape = _as_numbers(args.shape, 3, "shape", int)
    if min(shape) < 3:
        raise ConfigError(f"--shape {args.shape}: the chart is written as a lattice, "
                          "which needs at least 3 sites per axis")
    a = fileio.read_one_form(args.form)
    chart = develop_cube(a, corner, shape)
    # a chart is not periodic; store it as a standalone block with the
    # physical extents of the cube
    h = a.lattice.spacings
    sub = TorusLattice(shape, tuple(shape[i] * h[i] for i in range(3)))
    fileio.write_field(args.out, GroupField(sub, a.algebra, chart))
    print(f"wrote {args.out} corner={corner} shape={shape}")
    return 0


def cmd_minimize(args) -> int:
    # the sector keys seed the field, so a --field run reads only the options
    read = set(_OPTION_CASTS) | (_SEED_KEYS if args.field is None else set())
    cfg = _parse_config(args.config, lambda cfg: read)
    if args.out is None:
        raise ConfigError("minimize needs --out PATH")
    opts = _options_from(cfg)
    if args.field is not None:
        u0 = fileio.read_field(args.field)
        final, trace = minimize_map(u0, opts)
        fileio.write_field(args.out, final)
    else:
        alg = parse_algebra(cfg.get("group", "su2"))
        fileio.group_id(alg)  # the result must be writable before any descent
        lattice = _lattice_from(cfg)
        alpha = _as_numbers(cfg.get("alpha", "0,0,0"), 3, "alpha", int)
        nfac = len(alg.factors)
        charges = _as_numbers(cfg.get("charges", ",".join(["0"] * nfac)), nfac, "charges", int)
        sector = SectorInvariants(alpha=alpha, alpha_orders=pi1_orders(alg),
                                  charges_raw=tuple(float(c) for c in charges),
                                  charges=charges, residuals=(0.0,) * nfac)
        b = zero_one_form(lattice, alg)
        a_final, trace = minimize_connection(b, sector, opts)
        fileio.write_one_form(args.out, a_final)
    trace_path = args.trace or (args.out + ".trace.csv")
    with open(trace_path, "w") as fh:
        fh.write(trace.to_csv())
    print(f"iters={len(trace.energies)} E={trace.energies[-1]:.12g} "
          f"termination={trace.termination} trace={trace_path}")
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skyrme",
        description="Skyrme energies, topological sectors, and holonomy on a lattice 3-torus.",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", help="certify normalizing constants against the closed forms")

    p = sub.add_parser("gen", help="generate a field file (hedgehog | winding | random)",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=_keys_help([("every kind", _GEN_KEYS)] + [
                           (f"kind = {kind}", keys) for kind, keys in _GEN_KIND_KEYS.items()]))
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("energy", help="Skyrme energy of a field file")
    p.add_argument("field")

    p = sub.add_parser("invariants", help="sector invariants of a field file")
    p.add_argument("field")

    p = sub.add_parser("holonomy", help="generator-loop holonomy of a flat SKYA connection")
    p.add_argument("form")
    p.add_argument("--compare", help="second SKYA connection; exit 0 only if gauge equivalent")
    p.add_argument("--spacing", type=int, default=None,
                   help="cover spacing s in sites: the flatness gate sums the curvature over "
                        "stars of 2s+1 sites, and the holonomy is based at the anchor site "
                        "-s mod n on each axis")
    p.add_argument("--tol", type=float, default=DEFAULT_ATLAS_TOL,
                   help="bound on each residual link of the tree gauge, entrywise: within tol "
                        "of 1 off the seam and of the base seam link on it; with --compare, "
                        "also on each aligned link of the second form")

    p = sub.add_parser("develop", help="develop an SKYA connection over a cube")
    p.add_argument("form")
    p.add_argument("--corner", default="0,0,0")
    p.add_argument("--shape", required=True)
    p.add_argument("--out")

    p = sub.add_parser("minimize", help="sector-preserving energy descent",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=_keys_help([("descent", _OPTION_CASTS),
                                          ("seeding, without --field", _SEED_KEYS)]))
    p.add_argument("--config", required=True)
    p.add_argument("--field", help="SKYF input; omit to seed from the config's sector")
    p.add_argument("--out")
    p.add_argument("--trace", help="CSV trace path (default: OUT.trace.csv)")

    return ap


_COMMANDS = {
    "constants": cmd_constants,
    "gen": cmd_gen,
    "energy": cmd_energy,
    "invariants": cmd_invariants,
    "holonomy": cmd_holonomy,
    "develop": cmd_develop,
    "minimize": cmd_minimize,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SkyrmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
