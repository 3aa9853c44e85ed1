"""Command-line surface.

Subcommands::

    ergochan verify <spec.json> [--tol ...]
    ergochan analyze <spec.json> [--adjoint] [--out report.json]
    ergochan iterate <spec.json> --n N [--state state.json]
    ergochan fixed-space <spec.json> [--adjoint]
    ergochan catalog <entry> --param p=0.5 [--param dim=8] [--out spec.json]

Each subcommand takes only the flags :func:`build_parser` gives it, checked
here; :mod:`ergochan.io` reads the files, runs the pipeline and writes the
document.  Exit codes: 0 success, 1 invariant failure, 2 format error (an
input or ``--out`` file that cannot be read, decoded or written),
3 validation/domain error, 4 numeric error, 5 decomposition failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__, catalog, io
from .ergodic import DEFAULT_CESARO_N, DEFAULT_PERIPHERAL_TOL
from .errors import (
    CatalogLookupError,
    DecompositionFailureError,
    DimensionError,
    DomainError,
    IllConditionedDecompositionError,
    NumericError,
    SpecFormatError,
    SpecValidationError,
    SplittingViolationError,
)
from .linalg import DEFAULT_TOL, check_tol

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_FORMAT = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_DECOMPOSITION = 5

#: The exit code of each error a command reports; any other escapes.
_EXIT_CODES = {
    SpecFormatError: EXIT_FORMAT,
    SpecValidationError: EXIT_VALIDATION,
    DomainError: EXIT_VALIDATION,
    DimensionError: EXIT_VALIDATION,
    CatalogLookupError: EXIT_VALIDATION,
    NumericError: EXIT_NUMERIC,
    IllConditionedDecompositionError: EXIT_NUMERIC,
    DecompositionFailureError: EXIT_DECOMPOSITION,
    SplittingViolationError: EXIT_DECOMPOSITION,
}


def _emit(doc: dict, out: str | None, ok: bool = True) -> int:
    io.save_json(doc, out)
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_verify(args) -> int:
    doc = io.verify_channel(io.load_spec(args.spec), args.tol)
    return _emit(doc, args.out, io.all_ok(doc))


def _cmd_analyze(args) -> int:
    ch = io.load_spec(args.spec)
    doc = io.analyze_channel(
        ch, args.tol, args.peripheral_tol, args.cesaro_n, args.seed, args.adjoint
    )
    return _emit(doc, args.out, io.all_ok(doc["verification"]))


def _cmd_iterate(args) -> int:
    ch = io.load_spec(args.spec)
    state = io.load_state(args.state, ch.dim) if args.state else None
    doc = io.iterate_channel(
        ch, args.n, state, args.peripheral_tol, args.cesaro_n, args.adjoint
    )
    return _emit(doc, args.out)


def _cmd_fixed_space(args) -> int:
    ch = io.load_spec(args.spec)
    return _emit(io.fixed_space_channel(ch, args.tol, args.adjoint), args.out)


def _parse_params(pairs) -> dict:
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise DomainError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            raise DomainError(
                f"--param {key} must be a number, got {value!r}"
            ) from None
    return params


def _cmd_catalog(args) -> int:
    return _emit(io.catalog_spec(args.entry, _parse_params(args.param)), args.out)


_FLAGS = {
    "--tol": dict(type=float, default=DEFAULT_TOL),
    "--peripheral-tol": dict(type=float, default=DEFAULT_PERIPHERAL_TOL),
    "--cesaro-n": dict(type=int, default=DEFAULT_CESARO_N),
    "--adjoint": dict(action="store_true"),
    "--seed": dict(type=int, default=0),
    "--out": dict(type=str, default=None),
}


def _check_flags(args) -> None:
    """Refuse a bad flag value before any file is read.  A tolerance must
    be finite and > 0 (``linalg.check_tol``), ``--cesaro-n`` >= 0 (0
    skips the Cesaro check) and ``--n`` >= 1."""
    for flag in ("--tol", "--peripheral-tol"):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            check_tol(value, flag)
    if getattr(args, "cesaro_n", 0) < 0:
        raise DomainError(f"--cesaro-n must be >= 0, got {args.cesaro_n}")
    if getattr(args, "n", 1) < 1:
        raise DomainError(f"n must be >= 1, got {args.n}")


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """Give one subcommand ``--out`` and the named flags, no others."""
    for flag in (*flags, "--out"):
        p.add_argument(flag, **_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process (it costs
    about as much as a small ``verify``) and shared by every caller,
    which must not change it: parsing does not."""
    parser = argparse.ArgumentParser(
        prog="ergochan", description="Analyze iterates of quantum operations."
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the channel axioms")
    p.add_argument("spec")
    _add_flags(p, "--tol", "--seed")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="full ergodic analysis report")
    p.add_argument("spec")
    _add_flags(p, "--tol", "--peripheral-tol", "--cesaro-n", "--adjoint", "--seed")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("iterate", help="n-th iterate, direct vs reconstructed")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--state", type=str, default=None)
    _add_flags(p, "--tol", "--peripheral-tol", "--cesaro-n", "--adjoint", "--seed")
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("fixed-space", help="orthonormal fixed-space basis")
    p.add_argument("spec")
    _add_flags(p, "--tol", "--adjoint", "--seed")
    p.set_defaults(func=_cmd_fixed_space)

    p = sub.add_parser("catalog", help="emit a spec file for a catalog entry")
    p.add_argument("entry", choices=sorted(catalog.CATALOG))
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    _add_flags(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
