#!/usr/bin/env python3
"""Run a fixed matrix of 116 CLI commands and keep every output.

The matrix covers all 8 kinds at n = 10^6 with table, sum, stats, dependence
(with the stationarity report) and normality (with the blocks CSV); `sum` at
sparse checkpoints to 2*10^7 for the 5 kinds with prefix-sum identities; the
counting, exponent and variance-growth deviation modes (with trajectories
where the mode has one); von Mangoldt `sum` and variance growth to 3*10^6,
across 2^20-value segment boundaries; `stats` and `normality` (with the
blocks CSV, 977-value blocks straddling segments) on moebius and von
Mangoldt at 3*10^6; von Mangoldt `sum`, `stats` and `normality` (1024-value
blocks) to 2^21 + 1, where the prime powers 2^20 and 2^21 are the last values
of the first two segments; twin-prime and omega = 2 `sum` to 2^21 + 1 with
checkpoints on the edges of 2^16-value pieces and of segments, and Liouville
`normality` there with 100-value blocks (with the blocks CSV); prime `sum` to
10^9 on the identity route with checkpoints at 11^3 and 29^3 and beside them;
twin-prime `sum` with `--n-max` 10^9 and one checkpoint at 1000, which sieves
only the first segment;
`dependence` with its report at 3*10^6, at lags that
shift the joint counts by whole and partial 64-bit words, and at
n = 3000001 on von Mangoldt and twin primes, whose report windows start and
end inside 64-bit words, and on moebius and the parity weight with report
checkpoints on word and segment edges; riemann-check at 10^6 (one
segment), at 2*10^7, where the chunks of later segments are pruned, at
2^20 + 1 (a one-value last segment), at 4*10^5 with xi = 0.3, and at
n = 3 and n = 5, where the worst ratio is 0 or set at n_max;
ergodic at n = 10^5 and, with its MSE and autocovariance outputs, at
n = 10^9, and at n = 10^6 on atoms at -pi, pi and 10^-9; oeis-check on both vendored
b-files; `table` over 3*10^6 values from an unaligned lo on
moebius, von Mangoldt, the parity weight, Liouville, omega = 3 and the prime
indicator; a table of the one value 2^20 and one of [1, 2^20 + 1], whose last
segment holds one value; a moebius table cache miss followed by a hit, and
the same over 3*10^6 von Mangoldt values; and 19 inputs that
must be refused (exit status 2, one error line, no output file).  Each
command writes its outputs under OUTDIR, and `exit_codes.txt` records every
exit status and error line, so running this on two checkouts and comparing

    python3 tools/cli_outputs.py /tmp/before   # on the old checkout
    python3 tools/cli_outputs.py /tmp/after    # on the new checkout
    diff -r /tmp/before /tmp/after

checks that a change leaves every output byte-identical.  Commands run in
this process against the checkout's own `src/`.  No output goes through
BLAS, so the host's core count changes no byte.

`tests/data/cli_outputs.sha256` holds the sha256 of every output whose name
does not contain `von_mangoldt`, `exit_codes.txt` included, and
`tests/test_cli_outputs.py` checks them.  Von Mangoldt outputs are left out:
their weights come from numpy's `np.log`, whose loop, and so whose last bits,
depend on the CPU features numpy dispatches to.  A change that moves an
output regenerates the manifest, from the repository root, with

    python3 tools/cli_outputs.py /tmp/out
    (cd /tmp/out && find . -type f ! -name '*von_mangoldt*' | cut -c3- | LC_ALL=C sort |
     xargs sha256sum) > tests/data/cli_outputs.sha256
"""

import contextlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sievestats.cli import run  # noqa: E402

N = 10**6
KINDS = (
    "prime_indicator",
    "twin_prime_indicator",
    "squarefree_indicator",
    "moebius",
    "liouville",
    "squarefree_parity_weight",
    "omega_equals:2",
    "von_mangoldt",
)
CHECKPOINTS = "1,2,3,10,97,100,1000,4099,10000,65536,100000,524287,1000000"
#: Few enough checkpoints to 2*10^7 that `accumulate` takes the identities.
SPARSE_N = 20_000_000
SPARSE_KINDS = (
    "prime_indicator",
    "squarefree_indicator",
    "moebius",
    "liouville",
    "squarefree_parity_weight",
)
SPARSE_CHECKPOINTS = "1,2,10,1000,65536,1000000,4194304,10000000,19999999,20000000"
#: Report checkpoints on 64-bit word and 2^20-value segment edges, to n = 3000001.
EDGE_CHECKPOINTS = "1,63,64,65,1048575,1048576,1048577,2097152,3000000,3000001"
#: Checkpoints on the edges of 2^16-value pieces and 2^20-value segments, to n = 2^21 + 1.
PIECE_CHECKPOINTS = "1,65535,65536,65537,1048575,1048576,1048577,2097152,2097153"
#: 3*10^6 values from a lo inside a 64-bit word, across 2^20-value segments.
TABLE_LO = 10**8 - 1_234_567
TABLE_HI = TABLE_LO + 2_999_999


def matrix(out: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(name, argv) for every command; each name is also its output file stem."""
    n = str(N)
    cmds = []
    for kind in KINDS:
        tag = kind.replace(":", "_")
        cmds += [
            (f"table_{tag}", ["table", "--kind", kind, "--lo", "1", "--hi", n]),
            (f"sum_{tag}", ["sum", "--kind", kind, "--n-max", n, "--checkpoints", CHECKPOINTS]),
            (f"stats_{tag}", ["stats", "--kind", kind, "--n", n]),
            (f"dependence_{tag}", ["dependence", "--kind", kind, "--n", n, "--workers", "2",
                                   "--report", str(out / f"dependence_{tag}.report.json")]),
            (f"normality_{tag}", ["normality", "--kind", kind, "--n", n,
                                  "--blocks-csv", str(out / f"normality_{tag}.blocks.csv")]),
        ]
    for kind in SPARSE_KINDS:
        cmds.append((f"sum_sparse_{kind}", ["sum", "--kind", kind, "--n-max", str(SPARSE_N),
                                            "--checkpoints", SPARSE_CHECKPOINTS]))
    deviation = [
        ("counting", "prime_indicator", ["--trend-c", "0.0725", "--psi", "log"]),
        ("counting", "twin_prime_indicator", ["--trend-c", "0.0", "--psi", "loglog"]),
        ("counting", "squarefree_indicator", ["--trend-c", "0.6079271018540267"]),
        ("counting", "omega_equals:2", ["--trend-c", "0.3", "--psi", "const:5"]),
        ("exponent", "moebius", ["--xi", "0.0"]),
        ("exponent", "liouville", ["--xi", "0.05"]),
        ("exponent", "von_mangoldt", ["--trend-c", "1.0", "--xi", "0.0"]),
    ]
    for mode, kind, extra in deviation:
        name = f"deviation_{mode}_{kind.replace(':', '_')}"
        cmds.append((name, ["deviation", "--kind", kind, "--n-max", n, "--mode", mode, *extra,
                            "--trajectory", str(out / f"{name}.trajectory.csv")]))
    cmds += [
        ("sum_von_mangoldt_multi_segment",
         ["sum", "--kind", "von_mangoldt", "--n-max", "3000000",
          "--checkpoints", "1000000,2500000,3000000"]),
        ("deviation_variance-growth_von_mangoldt_multi_segment",
         ["deviation", "--kind", "von_mangoldt", "--n-max", "3000000", "--mode", "variance-growth",
          "--workers", "2"]),
        ("dependence_squarefree_parity_weight_multi_word",
         ["dependence", "--kind", "squarefree_parity_weight", "--n", "3000000",
          "--lags", "1..5,63,64,65,127,128,1000", "--workers", "2", "--report",
          str(out / "dependence_squarefree_parity_weight_multi_word.report.json")]),
        ("deviation_variance-growth_moebius",
         ["deviation", "--kind", "moebius", "--n-max", n, "--mode", "variance-growth",
          "--block-size", "1000", "--workers", "2"]),
        ("riemann-check_xi0", ["riemann-check", "--n-max", n]),
        ("riemann-check_xi0.1", ["riemann-check", "--n-max", n, "--xi", "0.1", "--workers", "2"]),
        ("riemann-check_n2e7_xi0", ["riemann-check", "--n-max", str(SPARSE_N)]),
        ("riemann-check_n2e7_xi0.02", ["riemann-check", "--n-max", str(SPARSE_N), "--xi", "0.02"]),
        ("riemann-check_one_value_last_segment", ["riemann-check", "--n-max", "1048577"]),
        ("riemann-check_n4e5_xi0.3", ["riemann-check", "--n-max", "400000", "--xi", "0.3"]),
        ("riemann-check_n3", ["riemann-check", "--n-max", "3"]),
        ("riemann-check_n5", ["riemann-check", "--n-max", "5"]),
        ("ergodic", ["ergodic", "--atoms", "0:2,1.0471975511965976:1,-2.5:0.5", "--n", "100000",
                     "--seed", "7", "--n-list", "10,100,1000,10000",
                     "--mse-output", str(out / "ergodic.mse.csv"),
                     "--autocov-output", str(out / "ergodic.autocov.csv")]),
        ("ergodic_n_1e9", ["ergodic", "--atoms", "0:2,1.0471975511965976:1,-2.5:0.5",
                           "--n", "1000000000", "--seed", "7",
                           "--mse-output", str(out / "ergodic_n_1e9.mse.csv"),
                           "--autocov-output", str(out / "ergodic_n_1e9.autocov.csv")]),
        ("ergodic_edge_atoms", ["ergodic", "--atoms=-3.141592653589793:1,3.141592653589793:0.5,1e-09:0.25",
                                "--n", "1000000",
                                "--mse-output", str(out / "ergodic_edge_atoms.mse.csv"),
                                "--autocov-output", str(out / "ergodic_edge_atoms.autocov.csv")]),
        ("oeis-check_mertens", ["oeis-check", "--bfile", str(ROOT / "tests/data/b002321.txt"),
                                "--kind", "moebius"]),
        ("oeis-check_squarefree", ["oeis-check", "--kind", "squarefree_indicator",
                                   "--bfile", str(ROOT / "tests/data/squarefree_count.txt")]),
    ]
    for kind in ("von_mangoldt", "twin_prime_indicator"):
        name = f"dependence_{kind}_multi_segment"
        cmds.append((name, ["dependence", "--kind", kind, "--n", "3000001",
                            "--lags", "1..5,63,64,65,1000", "--workers", "2",
                            "--report", str(out / f"{name}.report.json")]))
    for kind in ("moebius", "squarefree_parity_weight"):
        name = f"dependence_{kind}_edge_checkpoints"
        cmds.append((name, ["dependence", "--kind", kind, "--n", "3000001", "--workers", "2",
                            "--report", str(out / f"{name}.report.json"),
                            "--checkpoints", EDGE_CHECKPOINTS]))
    edges = "sum_von_mangoldt_segment_edges"  # 2^20 and 2^21, prime powers, end the first two segments
    cmds += [
        (edges, ["sum", "--kind", "von_mangoldt", "--n-max", "2097153",
                 "--checkpoints", "1048575,1048576,1048577,2097152"]),
        ("stats_von_mangoldt_segment_edges", ["stats", "--kind", "von_mangoldt", "--n", "2097153"]),
        ("normality_von_mangoldt_segment_edges",
         ["normality", "--kind", "von_mangoldt", "--n", "2097153", "--block-size", "1024",
          "--blocks-csv", str(out / "normality_von_mangoldt_segment_edges.blocks.csv")]),
    ]
    for kind in ("twin_prime_indicator", "omega_equals:2"):
        cmds.append((f"sum_{kind.replace(':', '_')}_piece_edges",
                     ["sum", "--kind", kind, "--n-max", "2097153", "--checkpoints", PIECE_CHECKPOINTS]))
    cmds += [
        ("normality_liouville_piece_edges",
         ["normality", "--kind", "liouville", "--n", "2097153", "--block-size", "100",
          "--blocks-csv", str(out / "normality_liouville_piece_edges.blocks.csv")]),
        ("sum_prime_indicator_cubes",  # 11^3 and 29^3 on the identity route
         ["sum", "--kind", "prime_indicator", "--n-max", "1000000000",
          "--checkpoints", "1330,1331,1332,24388,24389,24390,1000000000"]),
        ("sum_twin_prime_indicator_first_segment",  # the stream stops after its first segment
         ["sum", "--kind", "twin_prime_indicator", "--n-max", "1000000000", "--checkpoints", "1000"]),
    ]
    for kind in ("moebius", "von_mangoldt"):
        name = f"normality_{kind}_multi_segment"
        cmds += [
            (f"stats_{kind}_multi_segment", ["stats", "--kind", kind, "--n", "3000000"]),
            (name, ["normality", "--kind", kind, "--n", "3000000", "--block-size", "977",
                    "--blocks-csv", str(out / f"{name}.blocks.csv")]),
        ]
    cache = ["table", "--kind", "moebius", "--lo", str(N - 99_999), "--hi", n,
             "--workers", "2", "--cache-dir", str(out / "cache")]
    cmds += [("table_cache_miss", cache), ("table_cache_hit", cache)]
    for kind in ("moebius", "von_mangoldt", "squarefree_parity_weight", "liouville", "omega_equals:3",
                 "prime_indicator"):
        cmds.append((f"table_{kind.replace(':', '_')}_multi_segment",
                     ["table", "--kind", kind, "--lo", str(TABLE_LO), "--hi", str(TABLE_HI)]))
    cmds += [
        ("table_one_value", ["table", "--kind", "moebius", "--lo", "1048576", "--hi", "1048576"]),
        ("table_one_value_last_segment",
         ["table", "--kind", "squarefree_parity_weight", "--lo", "1", "--hi", "1048577"]),
    ]
    cache = ["table", "--kind", "von_mangoldt", "--lo", str(TABLE_LO), "--hi", str(TABLE_HI),
             "--workers", "2", "--cache-dir", str(out / "cache")]
    cmds += [("table_cache_miss_von_mangoldt", cache), ("table_cache_hit_von_mangoldt", cache)]
    cmds += [
        ("refuse_sum_n-max_zero", ["sum", "--kind", "moebius", "--n-max", "0", "--checkpoints", "1"]),
        ("refuse_sum_checkpoint_above_n-max",
         ["sum", "--kind", "moebius", "--n-max", "10", "--checkpoints", "20"]),
        ("refuse_sum_checkpoint_zero",
         ["sum", "--kind", "moebius", "--n-max", "10", "--checkpoints", "0,5"]),
        ("refuse_stats_n_zero", ["stats", "--kind", "moebius", "--n", "0"]),
        ("refuse_dependence_lag_zero", ["dependence", "--kind", "moebius", "--n", n, "--lags", "0..3"]),
        ("refuse_dependence_report_checkpoints",
         ["dependence", "--kind", "moebius", "--n", n, "--checkpoints", "5,3",
          "--report", str(out / "refuse_dependence_report_checkpoints.report.json")]),
        ("refuse_normality_block-size_zero",
         ["normality", "--kind", "moebius", "--n", n, "--block-size", "0"]),
        ("refuse_variance-growth_block-size_zero",
         ["deviation", "--kind", "moebius", "--n-max", n, "--mode", "variance-growth",
          "--block-size", "0"]),
        ("refuse_deviation_n-max_zero",
         ["deviation", "--kind", "moebius", "--n-max", "0", "--mode", "exponent"]),
        ("refuse_deviation_counting_n-max_zero", ["deviation", "--kind", "prime_indicator", "--n-max", "0"]),
        ("refuse_ergodic_n_zero", ["ergodic", "--atoms", "0:1", "--n", "0"]),
        ("refuse_dependence_checkpoints_without_report",
         ["dependence", "--kind", "moebius", "--n", "1000", "--lags", "1", "--checkpoints", "5,3"]),
        ("refuse_variance-growth_checkpoints",
         ["deviation", "--kind", "moebius", "--n-max", "100000", "--mode", "variance-growth",
          "--checkpoints", "5,3"]),
        ("refuse_deviation_counting_kind",
         ["deviation", "--kind", "von_mangoldt", "--n-max", n, "--mode", "counting"]),
        ("refuse_deviation_psi_form",
         ["deviation", "--kind", "prime_indicator", "--n-max", n, "--psi", "sqrt"]),
        ("refuse_deviation_xi_negative",
         ["deviation", "--kind", "moebius", "--n-max", n, "--mode", "exponent", "--xi", "-1"]),
        ("refuse_riemann-check_xi_nan", ["riemann-check", "--n-max", "100000", "--xi", "nan"]),
        ("refuse_riemann-check_all_skipped", ["riemann-check", "--n-max", "2"]),
        ("refuse_dependence_von_mangoldt_above_limit",
         ["dependence", "--kind", "von_mangoldt", "--n", "10000001"]),
    ]
    return cmds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, args in matrix(out):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run([*args, "--output", str(out / f"{name}.out")])
        lines.append(f"{name} {code} {stderr.getvalue().strip()}".rstrip())
    (out / "exit_codes.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} commands, outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
