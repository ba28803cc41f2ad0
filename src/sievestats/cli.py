"""Command-line orchestration: sieve tables, sums, statistics and checks.

Subcommands: table, sum, stats, dependence, normality, ergodic, deviation,
riemann-check, oeis-check.  Flags use long names only.  Integers are printed
exactly; reals with 17 significant digits.  Identical configurations
(including seeds) produce byte-identical output files.  The exit status is 0
when every requested check passes and nonzero otherwise.

Each handler imports the modules it runs, so a fresh process compiles only
those: `table` loads kinds and sieves, `riemann-check` adds deviation.
"""

from __future__ import annotations

import argparse
import dataclasses  # loaded with kinds
import os
import sys

# OpenBLAS reads this once, when numpy loads it; every entry point imports this module
# before numpy.  No hot path calls BLAS, but a pool of nproc - 1 threads would start and
# busy-wait in every process (about 0.1 s of CPU per process on 2 vCPUs), whatever a user set.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from .kinds import FunctionKind, check_cdf_range, parse_kind, validate_checkpoints


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _emit(text, output: str) -> None:
    """Write `text`, one str or an iterable of str pieces, to `output` ("-" for stdout)."""
    pieces = [text] if isinstance(text, str) else text
    if output == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(output, "w", newline="\n") as fh:
            fh.writelines(pieces)


def _csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_fields(obj):
    """`json.dumps`'s hook for what it cannot encode: a kind as its name, a dataclass as the dict
    of its fields (their values are encoded in turn)."""
    if isinstance(obj, FunctionKind):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    import json

    return json.dumps(obj, default=_json_fields, sort_keys=True, indent=2) + "\n"


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, with 'a..b' expanding to the inclusive range."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            a, _, b = part.partition("..")
            out.extend(range(int(a), int(b) + 1))
        elif part:
            out.append(int(part))
    return tuple(out)


def _parse_atoms(text: str) -> tuple[tuple[float, float], ...]:
    """Atoms as 'freq:variance' pairs, comma separated, e.g. '0:2,1.0471:1'."""
    atoms = []
    for part in text.split(","):
        lam, _, sig2 = part.strip().partition(":")
        atoms.append((float(lam), float(sig2)))
    return tuple(atoms)


def _geometric_grid(n_max: int, option: str, points: int = 50) -> list[int]:
    """Geometrically spaced checkpoints in [1, n_max]; an n_max below 1 is refused by `option`'s name."""
    if n_max < 1:
        raise ValueError(f"{option} must be >= 1, got {n_max}")
    return validate_checkpoints(np.unique(np.geomspace(1, n_max, points).astype(np.int64)), n_max)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_table(args) -> int:
    import functools
    from pathlib import Path

    from . import sieves

    kind, lo, hi = parse_kind(args.kind), args.lo, args.hi
    sieves.validate_range(lo, hi)
    cache = None if args.cache_dir is None else Path(args.cache_dir) / f"{kind}_{lo}_{hi}.csv"
    pieces = sieves.table_pieces(kind, lo, hi, sieves.iter_segments(kind, lo, hi))
    if cache is None:
        _emit(pieces, args.output)
    elif cache.exists():
        with open(cache, newline="") as fh:
            for _ in sieves.checked_pieces(fh, pieces):  # the whole file, before any output
                pass
            fh.seek(0)
            _emit(iter(functools.partial(fh.read, sieves.CHUNK_CHARS), ""), args.output)
    else:
        cache.parent.mkdir(parents=True, exist_ok=True)
        with sieves.atomic_writer(cache) as fh:
            _emit((piece for piece in pieces if fh.write(piece)), args.output)  # to the cache, then out
    return 0


def _cmd_sum(args) -> int:
    from .sums import accumulate

    kind = parse_kind(args.kind)
    series = accumulate(kind, args.n_max, _parse_int_list(args.checkpoints))
    rows = list(zip(series.checkpoints, series.sums))
    _emit(_csv_text("n,S", rows), args.output)
    return 0


def _cmd_stats(args) -> int:
    from . import empirical, sieves

    kind = parse_kind(args.kind)
    check_cdf_range(kind, args.n)
    counts = empirical.value_counts(kind, sieves.iter_segments(kind, 1, args.n))
    mom = empirical.moments_from_counts(kind, args.n, *counts)
    cdf = empirical.cdf_from_counts(args.n, *counts)
    _emit(_json_text({"cdf": cdf, "moments": mom}), args.output)
    return 0


def _cmd_dependence(args) -> int:
    from . import mixing, sieves

    kind = parse_kind(args.kind)
    lags = mixing.validate_lags(_parse_int_list(args.lags), args.n, minimum=1)
    if args.report is not None:
        checkpoints = (
            validate_checkpoints(_parse_int_list(args.checkpoints), args.n)
            if args.checkpoints
            else _geometric_grid(args.n, "--n")
        )
    elif args.checkpoints is not None:
        raise ValueError("--checkpoints is only read with --report")
    check_cdf_range(kind, args.n)
    segments = sieves.iter_segments(kind, 1, args.n)
    pairs = mixing.PairCounts(args.n, segments, kind.alphabet())  # for the CSV rows and the report
    alpha = [pairs.alpha(h) if kind.alphabet() else float("nan") for h in lags]
    _emit(_csv_text("lag,r_hat,alpha_hat", zip(lags, pairs.covariances(lags), alpha)), args.output)
    if args.report is not None:
        report = mixing.report_from_pairs(kind, checkpoints, pairs)
        _emit(_json_text(report), args.report)
    return 0


def _cmd_normality(args) -> int:
    from . import normality, sieves

    kind = parse_kind(args.kind)
    segments = sieves.iter_segments(kind, 1, args.n)
    blocks = normality.block_sample(kind, args.n, args.block_size, segments)
    report = normality.normality_report(str(kind), args.n, blocks)
    _emit(_json_text(report), args.output)
    if args.blocks_csv is not None:
        rows = zip(
            range(1, blocks.block_count + 1), blocks.block_sums, blocks.standardized
        )
        _emit(_csv_text("block,T,z", rows), args.blocks_csv)
    return 0


def _cmd_ergodic(args) -> int:
    from . import spectral

    if args.n_list is not None and args.mse_output is None:
        raise ValueError("--n-list is only read with --mse-output")
    spec = spectral.SpectralSpec(_parse_atoms(args.atoms))
    grid = _geometric_grid(args.n, "--n")
    rows = [(n, spectral.covariance_average(spec, n)) for n in grid]
    outputs = [(_csv_text("n,covariance_average", rows), args.output)]  # all computed before any write
    if args.mse_output is not None:
        study = spectral.mse_study(spec, _parse_int_list(args.n_list) if args.n_list else grid)
        outputs.append((_csv_text("n,mse", zip(study.n_values, study.mse)), args.mse_output))
    if args.autocov_output is not None:
        lags = _parse_int_list(args.lags)
        z = spectral._draw_amplitudes(spec, np.random.default_rng(np.random.SeedSequence(args.seed)))
        measured = spectral.realized_autocovariance(spec, z, args.n, lags)
        theory = [spectral.theoretical_covariance(spec, h) for h in lags]
        rows = [(h, t.real, t.imag, r.real, r.imag) for h, t, r in zip(lags, theory, measured)]
        header = "h,r_theoretical_re,r_theoretical_im,r_empirical_re,r_empirical_im"
        outputs.append((_csv_text(header, rows), args.autocov_output))
    for text, output in outputs:
        _emit(text, output)
    return 0


def _cmd_deviation(args) -> int:
    from . import deviation as dev

    kind = parse_kind(args.kind)
    if args.mode == "variance-growth":
        if args.checkpoints is not None:
            raise ValueError("--checkpoints is not read in --mode variance-growth")
        if args.trajectory is not None:
            raise ValueError("--trajectory is not written in --mode variance-growth")
        growth = dev.variance_growth(kind, args.n_max, args.block_size)
        _emit(_json_text(growth), args.output)
        return 0
    from .sums import accumulate

    if args.mode == "counting":
        check, ratio = dev.counting_deviation_check, dev.counting_ratio
        spec = dev.counting_psi(kind, args.trend_c, args.psi)
    else:
        check, ratio, spec = dev.exponent_check, dev.exponent_ratio, dev.check_xi(args.xi)
    checkpoints = (
        _parse_int_list(args.checkpoints) if args.checkpoints else _geometric_grid(args.n_max, "--n-max")
    )
    series = accumulate(kind, args.n_max, checkpoints)
    report = check(series, args.trend_c, spec)
    _emit(_json_text(report), args.output)
    if args.trajectory is not None:
        rows = []
        for n, s in zip(series.checkpoints, series.sums):
            r = ratio(n, s, args.trend_c, spec)
            rows.append((n, abs(s - n * args.trend_c), float("nan") if r is None else r))
        _emit(_csv_text("n,deviation,ratio", rows), args.trajectory)
    return 0 if report.passed else 1


def _cmd_riemann_check(args) -> int:
    from . import deviation as dev

    report = dev.mertens_riemann_check(args.n_max, args.xi)
    _emit(_json_text(report), args.output)
    return 0 if report.passed else 1


def _cmd_oeis_check(args) -> int:
    from . import oeis
    from .sums import accumulate

    bfile = oeis.read_bfile(args.bfile)
    kind = parse_kind(args.kind)
    indices = [i for i, _ in bfile.entries if i >= 1]
    if args.n_max is not None:
        indices = [i for i in indices if i <= args.n_max]
    if not indices:
        raise ValueError("no usable b-file indices at or below n_max")
    series = accumulate(kind, indices[-1], indices)
    mismatches = oeis.oeis_check(series, bfile)
    result = {
        "kind": str(kind),
        "mismatches": [
            {"expected": e, "got": g, "n": n} for n, g, e in mismatches
        ],
        "overlap": len(indices),
        "sequence_id": bfile.sequence_id,
    }
    _emit(_json_text(result), args.output)
    return 0 if not mismatches else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(parser, *, workers=True):
    if workers:
        parser.add_argument(
            "--workers", type=int, default=1, help="accepted and ignored: segments are sieved one at a time"
        )
    parser.add_argument("--output", default="-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievestats",
        description="Sieve-backed statistics for summation arithmetic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="sieve one function over a range (CSV cache format)")
    p.add_argument("--kind", required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--cache-dir", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sum", help="exact prefix sums at checkpoints (CSV)")
    p.add_argument("--kind", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--checkpoints", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("stats", help="empirical moments and distribution function (JSON)")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("dependence", help="autocovariance and mixing estimates (CSV, JSON report)")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lags", default="1..20")
    p.add_argument("--checkpoints", default=None)
    p.add_argument("--report", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_dependence)

    p = sub.add_parser("normality", help="block-sum KS test against the normal (JSON)")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--block-size", type=int, default=1000)
    p.add_argument("--blocks-csv", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_normality)

    p = sub.add_parser("ergodic", help="atomic-spectrum averaging diagnostics (CSV)")
    p.add_argument("--atoms", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-list", default=None)
    p.add_argument("--mse-output", default=None)
    p.add_argument("--autocov-output", default=None)
    p.add_argument("--lags", default="0..10")
    _add_common(p, workers=False)
    p.set_defaults(func=_cmd_ergodic)

    p = sub.add_parser("deviation", help="square-root / exponent deviation checks (JSON)")
    p.add_argument("--kind", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", choices=("counting", "exponent", "variance-growth"), default="counting")
    p.add_argument("--trend-c", type=float, default=0.0)
    p.add_argument("--psi", default="const:2")
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--checkpoints", default=None)
    p.add_argument("--block-size", type=int, default=1000)
    p.add_argument("--trajectory", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_deviation)

    p = sub.add_parser("riemann-check", help="exhaustive |M(n)| <= n^(1/2+xi) scan (JSON)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--xi", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=_cmd_riemann_check)

    p = sub.add_parser("oeis-check", help="compare prefix sums against a local b-file (JSON)")
    p.add_argument("--bfile", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--n-max", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_oeis_check)

    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--atoms" in argv[:-1]:  # bind the value, which starts with "-" at a negative frequency
        i = argv.index("--atoms")
        argv[i : i + 2] = [f"--atoms={argv[i + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    import gc

    # What the imports made lives until exit; frozen, it is skipped by the full collections
    # that interpreter shutdown runs, about 20 ms per process once numpy is loaded.
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
