"""Command-line surface.

Subcommands::

    ergochan verify <spec.json> [--tol ...]
    ergochan analyze <spec.json> [--adjoint] [--out report.json]
    ergochan iterate <spec.json> --n N [--state state.json]
    ergochan fixed-space <spec.json> [--adjoint]
    ergochan catalog <entry> --param p=0.5 [--param dim=8] [--out spec.json]

Each subcommand takes only the flags :func:`build_parser` gives it.

Exit codes: 0 success, 1 invariant failure, 2 format error,
3 validation/domain error, 4 numeric error, 5 decomposition failure.
The seed defaults to the ``ERGOCHAN_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, catalog, channel, ergodic, io, linalg
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

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_FORMAT = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_DECOMPOSITION = 5


def _default_seed() -> int:
    value = os.environ.get("ERGOCHAN_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise DomainError(
            f"environment variable ERGOCHAN_SEED must be an integer, got {value!r}"
        ) from None


def _emit(doc: dict, out: str | None) -> None:
    if out:
        io.save_json(doc, out)
    else:
        print(io.dumps(doc))


def _cmd_verify(args) -> int:
    ch = io.load_spec(args.spec)
    report = channel.verify(ch, tol=args.tol)
    from dataclasses import asdict

    _emit(asdict(report), args.out)
    return EXIT_OK if report.all_ok else EXIT_INVARIANT


def _cmd_analyze(args) -> int:
    ch = io.load_spec(args.spec)
    report = io.analyze_channel(
        ch,
        tol=args.tol,
        peripheral_tol=args.peripheral_tol,
        cesaro_n=args.cesaro_n,
        seed=args.seed,
        adjoint=args.adjoint,
    )
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.verification["cp_ok"] else EXIT_INVARIANT


def _cmd_iterate(args) -> int:
    """``direct`` is L^n vec(X) by the binary powering of
    :func:`ergodic.power_iterate`, O(log n) products and independent of
    the decomposition; ``reconstructed`` is the spectral sum of
    :func:`ergodic.reconstruct_iterate`.  ``disagreement_hs`` is the HS
    norm of their difference, within the drift bound of ``power_iterate``
    (linear in n)."""
    if args.n < 1:  # before the decomposition, which costs far more
        raise DomainError(f"n must be >= 1, got {args.n}")
    ch = io.load_spec(args.spec)
    if args.state:
        try:
            with open(args.state, "r", encoding="utf-8") as fh:
                rows = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecFormatError(f"cannot read state file {args.state}: {exc}")
        X = io.pairs_to_matrix(rows, context="state")
        if X.shape != (ch.dim, ch.dim):
            raise SpecValidationError(
                f"state has shape {X.shape}, channel dim is {ch.dim}"
            )
    else:
        X = np.eye(ch.dim, dtype=complex) / ch.dim  # maximally mixed default

    side = channel.ADJOINT if args.adjoint else channel.FORWARD
    L = channel.superoperator(ch, side)
    decomp = ergodic.peripheral_decomposition(
        L, peripheral_tol=args.peripheral_tol, cesaro_check_n=args.cesaro_n
    )
    recon = ergodic.reconstruct_iterate(decomp, args.n, X)
    direct = ergodic.power_iterate(L, args.n, X)
    _emit(
        {
            "tool_version": __version__,
            "n": args.n,
            "side": side,
            "direct": io.matrix_to_pairs(direct),
            "reconstructed": io.matrix_to_pairs(recon),
            "disagreement_hs": linalg.hs_norm(direct - recon),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_fixed_space(args) -> int:
    ch = io.load_spec(args.spec)
    side = channel.ADJOINT if args.adjoint else channel.FORWARD
    fs = ergodic.fixed_space(channel.superoperator(ch, side), args.tol)
    _emit(
        {
            "tool_version": __version__,
            "side": side,
            "dimension": fs.dimension,
            "basis": [io.matrix_to_pairs(B) for B in fs.basis],
        },
        args.out,
    )
    return EXIT_OK


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
    doc = io.catalog_spec(args.entry, _parse_params(args.param))
    _emit(doc, args.out)
    return EXIT_OK


_FLAGS = {
    "--tol": dict(type=float, default=linalg.DEFAULT_TOL),
    "--peripheral-tol": dict(type=float, default=ergodic.DEFAULT_PERIPHERAL_TOL),
    "--cesaro-n": dict(type=int, default=ergodic.DEFAULT_CESARO_N),
    "--adjoint": dict(action="store_true"),
    "--seed": dict(type=int),  # default: ERGOCHAN_SEED, read in _add_flags
    "--out": dict(type=str, default=None),
}


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """Give one subcommand ``--out`` and the named flags, no others."""
    for flag in (*flags, "--out"):
        p.add_argument(flag, **_FLAGS[flag])
    if "--seed" in flags:
        p.set_defaults(seed=_default_seed())


def build_parser() -> argparse.ArgumentParser:
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
        # inside the try: building the parser reads ERGOCHAN_SEED
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (
        SpecValidationError,
        DomainError,
        DimensionError,
        CatalogLookupError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, IllConditionedDecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DecompositionFailureError, SplittingViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DECOMPOSITION


if __name__ == "__main__":
    sys.exit(main())
