import json
import math
import tracemalloc
from pathlib import Path

import pytest

from sievestats import sieves
from sievestats.cli import run
from sievestats.kinds import MOEBIUS, parse_kind
from sievestats.sieves import oracle_value, sieve_table, write_table_csv

DATA = Path(__file__).parent / "data"


def test_table_command(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["table", "--kind", "moebius", "--lo", "1", "--hi", "10",
                "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "moebius,1,10"
    assert [int(v) for v in lines[1:]] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_table_cache_dir(tmp_path):
    out = tmp_path / "t.csv"
    cache = tmp_path / "cache"
    args = ["table", "--kind", "squarefree_indicator", "--lo", "1", "--hi", "50",
            "--cache-dir", str(cache), "--output", str(out)]
    assert run(args) == 0
    cached = cache / "squarefree_indicator_1_50.csv"
    assert cached.exists()
    first = out.read_bytes()
    assert run(args) == 0  # second run reads the cache
    assert out.read_bytes() == first


@pytest.mark.parametrize("header", ["liouville,1,10", "moebius,2,10", "moebius,1,9"])
def test_table_cache_refuses_a_mismatched_header(header, tmp_path, capsys):
    kind, lo, hi = header.split(",")
    cache = tmp_path / "cache"
    cache.mkdir()
    write_table_csv(sieve_table(parse_kind(kind), int(lo), int(hi)), cache / "moebius_1_10.csv")
    out = tmp_path / "t.csv"
    code = run(["table", "--kind", "moebius", "--lo", "1", "--hi", "10",
                "--cache-dir", str(cache), "--output", str(out)])
    assert code == 2
    assert f"line 1 holds '{header}\\n', where table writes 'moebius,1,10\\n'" in capsys.readouterr().err
    assert not out.exists()


#: Two 2^20-line segments, the second three lines long.
MULTI_SEGMENT_HI = 2**20 + 3


def _bad_value(lines):
    lines[-2] = "5\n"


def _wrong_value(lines):
    lines[-3] = "1\n" if lines[-3] != "1\n" else "-1\n"


def _non_canonical_value(lines):
    lines[-1] = "01\n"


def _missing_line(lines):
    del lines[-1]


def _extra_line(lines):
    lines.append("0\n")


@pytest.mark.parametrize("corrupt", [_bad_value, _wrong_value, _non_canonical_value, _missing_line, _extra_line],
                         ids=lambda f: f.__name__.strip("_"))
def test_table_cache_checks_every_line_before_any_output(corrupt, tmp_path, capsys):
    """A hit reads the whole cache file before writing: a fault in its last
    segment exits 2 and leaves no output file."""
    cache = tmp_path / "cache"
    args = ["table", "--kind", "moebius", "--lo", "1", "--hi", str(MULTI_SEGMENT_HI),
            "--cache-dir", str(cache), "--output"]
    assert run([*args, str(tmp_path / "miss.csv")]) == 0
    assert run([*args, str(tmp_path / "hit.csv")]) == 0
    assert (tmp_path / "hit.csv").read_bytes() == (tmp_path / "miss.csv").read_bytes()
    path = cache / f"moebius_1_{MULTI_SEGMENT_HI}.csv"
    lines = path.read_text().splitlines(keepends=True)
    corrupt(lines)
    path.write_text("".join(lines))
    capsys.readouterr()
    assert run([*args, str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cache file {path} ")
    assert not (tmp_path / "out.csv").exists()


def test_table_cache_miss_that_fails_midway_leaves_no_cache_file(tmp_path, monkeypatch):
    """A miss writes the cache file segment by segment, renamed into place only once complete."""
    sieve = sieves._segment_values

    def fail_on_the_second_segment(kind, lo, hi, primes):
        if lo > 1:
            raise OSError("disk full")
        return sieve(kind, lo, hi, primes)

    monkeypatch.setattr(sieves, "_segment_values", fail_on_the_second_segment)
    cache = tmp_path / "cache"
    assert run(["table", "--kind", "moebius", "--lo", "1", "--hi", str(MULTI_SEGMENT_HI),
                "--cache-dir", str(cache), "--output", str(tmp_path / "out.csv")]) == 2
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("cached", [None, "miss", "hit"])
def test_table_peak_memory(cached, tmp_path):
    """`table` holds about one 2^20-value segment and its text at a time.

    Rendering a moebius segment peaks at 4.7 MiB: the texts of its 2^14-value
    slices and their join.  One `np.take` of all 2^20 byte indices, which it
    first widens to 8-byte intp, peaked at 11 MiB.  At 2^23 the whole command
    peaks at 0.78, 1.01 and 1.21 B per value (no cache, miss, hit), and less
    beyond; one take read 1.55, 1.80 and 1.88.  Rendering one Python str per
    value peaked at 2.18, 2.43 and 2.51; a text of the whole table would take
    near 20 B per value.
    """
    n = 2**23
    argv = ["table", "--kind", "moebius", "--lo", "1", "--hi", str(n)]
    if cached:
        argv += ["--cache-dir", str(tmp_path / "cache")]
    if cached == "hit":
        assert run([*argv, "--output", str(tmp_path / "miss.csv")]) == 0
    tracemalloc.start()
    try:
        assert run([*argv, "--output", str(tmp_path / "out.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * n, f"{peak / n:.2f} bytes per value"


def test_sum_command(tmp_path):
    out = tmp_path / "sums.csv"
    assert run(["sum", "--kind", "moebius", "--n-max", "10",
                "--checkpoints", "1,2,10", "--output", str(out)]) == 0
    assert out.read_text() == "n,S\n1,1\n2,0\n10,-1\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["stats", "--kind", "von_mangoldt", "--n", "20000000"],
         "exact distribution tables for von_mangoldt are unsupported beyond n=10000000"),
        (["dependence", "--kind", "von_mangoldt", "--n", "10000001"],
         "exact distribution tables for von_mangoldt are unsupported beyond n=10000000"),
        (["dependence", "--kind", "moebius", "--n", "1000", "--lags", "3,2"],
         "lags must be strictly increasing"),
        (["dependence", "--kind", "liouville", "--n", "1000", "--lags", "1,500"],
         "max lag 500 must be below n/2 = 500.0"),
        (["normality", "--kind", "moebius", "--n", "20000000", "--block-size", "10000000"],
         "too few blocks (2); need >= 30"),
        (["normality", "--kind", "moebius", "--n", "100000", "--block-size", "99"],
         "block size must be >= 100"),
        (["dependence", "--kind", "moebius", "--n", "100000", "--checkpoints", "5,3",
          "--report", "report.json"],
         "checkpoints must be strictly increasing"),
        (["sum", "--kind", "moebius", "--n-max", "0", "--checkpoints", "1"],
         "checkpoint 1 exceeds n_max=0"),
        (["sum", "--kind", "moebius", "--n-max", "10", "--checkpoints", "20"],
         "checkpoint 20 exceeds n_max=10"),
        (["sum", "--kind", "moebius", "--n-max", "10", "--checkpoints", "0,5"],
         "checkpoints must be >= 1"),
        (["stats", "--kind", "moebius", "--n", "0"], "n must be >= 1"),
        (["dependence", "--kind", "moebius", "--n", "1000", "--lags", "0..3"],
         "lags must be >= 1"),
        (["normality", "--kind", "moebius", "--n", "100000", "--block-size", "0"],
         "block size must be >= 100"),
        (["deviation", "--kind", "moebius", "--n-max", "100000", "--mode", "variance-growth",
          "--block-size", "0"],
         "block size must be >= 100"),
        (["deviation", "--kind", "moebius", "--n-max", "0", "--mode", "exponent"],
         "--n-max must be >= 1, got 0"),
        (["deviation", "--kind", "prime_indicator", "--n-max", "-5"], "--n-max must be >= 1, got -5"),
        (["ergodic", "--atoms", "0:1", "--n", "0"], "--n must be >= 1, got 0"),
        (["dependence", "--kind", "moebius", "--n", "1000", "--lags", "1", "--checkpoints", "5,3"],
         "--checkpoints is only read with --report"),
        (["deviation", "--kind", "moebius", "--n-max", "100000", "--mode", "variance-growth",
          "--checkpoints", "5,3"],
         "--checkpoints is not read in --mode variance-growth"),
        (["deviation", "--kind", "von_mangoldt", "--n-max", "100000", "--mode", "counting"],
         "counting deviation check requires an indicator kind"),
        (["deviation", "--kind", "prime_indicator", "--n-max", "100000", "--psi", "sqrt"],
         "unknown psi form 'sqrt'"),
        (["deviation", "--kind", "prime_indicator", "--n-max", "100000", "--psi", "const:0"],
         "const psi requires a positive constant"),
        (["deviation", "--kind", "prime_indicator", "--n-max", "100000", "--trend-c", "2"],
         "trend constant must lie in [0, 1]"),
        (["deviation", "--kind", "moebius", "--n-max", "100000", "--mode", "exponent",
          "--xi", "-1"],
         "xi must be >= 0"),
        (["riemann-check", "--n-max", "100000", "--xi", "nan"], "xi must be finite, got nan"),
        (["deviation", "--kind", "moebius", "--n-max", "100000", "--mode", "exponent",
          "--xi", "inf"],
         "xi must be finite, got inf"),
        (["table", "--kind", "moebius", "--lo", "1", "--hi", "1000000001", "--cache-dir", "cache"],
         "hi=1000000001 exceeds the configured maximum 1000000000"),
        (["ergodic", "--atoms", "0:2,1:1", "--n", "100", "--lags", "0..200",
          "--mse-output", "mse", "--autocov-output", "autocov"],
         "lag 100 outside [0, 100)"),
        (["ergodic", "--atoms", "0:2,1:1", "--n", "100", "--n-list", "0,10",
          "--mse-output", "mse", "--autocov-output", "autocov"],
         "n values must be positive"),
        (["deviation", "--kind", "moebius", "--n-max", "100000", "--mode", "variance-growth",
          "--trajectory", "trajectory"],
         "--trajectory is not written in --mode variance-growth"),
        (["ergodic", "--atoms", "0:2,1:1", "--n", "100", "--n-list", "10,100"],
         "--n-list is only read with --mse-output"),
    ],
    ids=["stats-cdf-limit", "dependence-von-mangoldt-limit", "dependence-order",
         "dependence-max-lag", "normality-count", "normality-size", "dependence-report-checkpoints", "sum-n-max-zero",
         "sum-checkpoint-above-n-max", "sum-checkpoint-zero", "stats-n-zero", "dependence-lag-zero",
         "normality-block-size-zero", "variance-growth-block-size-zero",
         "deviation-n-max-zero", "deviation-n-max-negative", "ergodic-n-zero",
         "dependence-checkpoints-without-report",
         "variance-growth-checkpoints", "deviation-counting-kind", "deviation-psi-form",
         "deviation-psi-const-zero", "deviation-trend-c", "deviation-xi-negative",
         "riemann-check-xi-nan", "deviation-xi-inf", "table-hi",
         "ergodic-lags", "ergodic-n-list", "variance-growth-trajectory", "ergodic-n-list-without-mse-output"],
)
def test_refused_before_sieving(argv, message, monkeypatch, capsys, tmp_path):
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(sieves, "_segment_values", no_sieve)
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--output", "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_stats_command(tmp_path):
    out = tmp_path / "stats.json"
    assert run(["stats", "--kind", "prime_indicator", "--n", "10",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["moments"]["mean"] == 0.4
    assert doc["moments"]["variance"] == 0.24
    assert doc["cdf"]["support"] == [0, 1]


def test_dependence_command(tmp_path):
    out = tmp_path / "dep.csv"
    report = tmp_path / "report.json"
    assert run(["dependence", "--kind", "moebius", "--n", "20000",
                "--lags", "1..5", "--output", str(out),
                "--report", str(report)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lag,r_hat,alpha_hat"
    assert len(lines) == 6
    doc = json.loads(report.read_text())
    assert set(doc["thresholds"]) == {"covariance_bound", "covariance_min_lag", "mean_tolerance"}


def test_normality_command(tmp_path):
    out = tmp_path / "norm.json"
    blocks = tmp_path / "blocks.csv"
    assert run(["normality", "--kind", "moebius", "--n", "100000",
                "--block-size", "1000", "--output", str(out),
                "--blocks-csv", str(blocks)]) == 0
    doc = json.loads(out.read_text())
    assert doc["block_count"] == 100
    assert 0.0 <= doc["ks_statistic"] <= 1.0
    lines = blocks.read_text().splitlines()
    assert lines[0] == "block,T,z"
    assert len(lines) == 101


def test_ergodic_command(tmp_path):
    out = tmp_path / "cov.csv"
    mse = tmp_path / "mse.csv"
    autocov = tmp_path / "autocov.csv"
    assert run(["ergodic", "--atoms", "0:2,1.0471:1", "--n", "10000",
                "--seed", "7", "--n-list", "100,1000,10000",
                "--output", str(out), "--mse-output", str(mse),
                "--autocov-output", str(autocov), "--lags", "0..5"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,covariance_average"
    assert lines[-1].startswith("10000,")
    assert mse.read_text().splitlines()[0] == "n,mse"
    cov_lines = autocov.read_text().splitlines()
    assert cov_lines[0] == "h,r_theoretical_re,r_theoretical_im,r_empirical_re,r_empirical_im"
    assert len(cov_lines) == 7
    assert cov_lines[1].startswith("0,3,")  # R(0) = 2 + 1 = 3


def test_ergodic_negative_first_atom_in_either_spelling(tmp_path):
    # argparse reads a separate value starting with "-" as an option; `run` binds it to --atoms.
    atoms = "-3.141592653589793:1,3.141592653589793:0.5,1e-09:0.25"
    outputs = []
    for i, spelling in enumerate([["--atoms", atoms], [f"--atoms={atoms}"]]):
        out = tmp_path / f"{i}"
        out.mkdir()
        assert run(["ergodic", *spelling, "--n", "1000", "--output", str(out / "cov.csv"),
                    "--mse-output", str(out / "mse.csv"),
                    "--autocov-output", str(out / "autocov.csv")]) == 0
        outputs.append([(out / name).read_bytes() for name in ("cov.csv", "mse.csv", "autocov.csv")])
    assert outputs[0] == outputs[1]


def test_deviation_command_counting(tmp_path):
    out = tmp_path / "dev.json"
    traj = tmp_path / "traj.csv"
    code = run(["deviation", "--kind", "squarefree_indicator", "--n-max", "100000",
                "--mode", "counting", "--trend-c", "0.6079271018540267",
                "--psi", "const:2", "--output", str(out),
                "--trajectory", str(traj)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert traj.read_text().splitlines()[0] == "n,deviation,ratio"


def test_deviation_command_failing_exit_code(tmp_path):
    out = tmp_path / "dev.json"
    code = run(["deviation", "--kind", "prime_indicator", "--n-max", "100000",
                "--mode", "counting", "--trend-c", "0", "--psi", "const:2",
                "--output", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["passed"] is False


def test_riemann_check_command(tmp_path):
    out = tmp_path / "riemann.json"
    assert run(["riemann-check", "--n-max", "100000", "--xi", "0",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["argmax_n"] == 5


def test_oeis_check_command(tmp_path):
    out = tmp_path / "oeis.json"
    assert run(["oeis-check", "--bfile", str(DATA / "b002321.txt"),
                "--kind", "moebius", "--n-max", "500",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["sequence_id"] == "A002321"
    assert doc["mismatches"] == []
    assert doc["overlap"] == 500


def test_oeis_check_index_above_ten_million(tmp_path):
    c = 20_000_000
    # Q(c) = sum_{d <= sqrt(c)} mu(d) floor(c / d^2), with mu from the oracle.
    q = sum(oracle_value(MOEBIUS, d) * (c // (d * d)) for d in range(1, math.isqrt(c) + 1))
    assert q == 12158575
    bfile = tmp_path / "squarefree.txt"
    bfile.write_text(f"1 1\n10 7\n{c} {q}\n")
    out = tmp_path / "oeis.json"
    assert run(["oeis-check", "--bfile", str(bfile), "--kind", "squarefree_indicator",
                "--workers", "2", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mismatches"] == []
    assert doc["overlap"] == 3


def test_oeis_check_detects_mismatch(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 0\n3 7\n")
    out = tmp_path / "oeis.json"
    code = run(["oeis-check", "--bfile", str(bad), "--kind", "moebius",
                "--output", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["mismatches"] == [{"expected": 7, "got": -1, "n": 3}]


def test_invalid_config_exits_with_error(capsys, tmp_path):
    code = run(["sum", "--kind", "moebius", "--n-max", "10",
                "--checkpoints", "20", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_kind_exits_with_error(capsys):
    assert run(["table", "--kind", "nope", "--lo", "1", "--hi", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "sievestats", "sum", "--kind", "moebius",
         "--n-max", "10", "--checkpoints", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n,S\n10,-1\n"


def test_byte_identical_reruns(tmp_path):
    for name, args in {
        "riemann.json": ["riemann-check", "--n-max", "20000", "--xi", "0"],
        "mse.csv": ["ergodic", "--atoms", "1.0:1,2.2:0.5", "--n", "1000",
                     "--seed", "13", "--mse-output"],
    }.items():
        a = tmp_path / f"a_{name}"
        b = tmp_path / f"b_{name}"
        if name == "mse.csv":
            assert run(args + [str(a), "--output", str(tmp_path / "cov_a.csv")]) == 0
            assert run(args + [str(b), "--output", str(tmp_path / "cov_b.csv")]) == 0
            assert (tmp_path / "cov_a.csv").read_bytes() == (tmp_path / "cov_b.csv").read_bytes()
        else:
            assert run(args + ["--output", str(a)]) == 0
            assert run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "kind, command, n, bytes_per_value",
    [
        ("moebius", "stats", 2**25, 0.5),
        ("moebius", "normality", 2**25, 0.25),
        ("von_mangoldt", "normality", 2**23, 4),
        ("moebius", "dependence", 2**25, 1),
        ("von_mangoldt", "dependence", 2**23, 5),
    ],
)
def test_streamed_subcommands_peak_memory(tmp_path, kind, command, n, bytes_per_value):
    """`stats`, `normality` and `dependence --report` read the segment stream.

    A table costs 1 B per moebius value and 8 B per von Mangoldt value.
    `stats` and `normality` hold no table, only a few 2^20-value segments:
    for von Mangoldt's float64 ones, the segment being read and the one being
    sieved, about 2 B per value at 2^23.  Moebius `dependence` holds 2/8 B of
    bitsets, none for its last value, and counts a lag with two more
    bitset-sized words.  Von Mangoldt `dependence` holds its sparse form, the
    int64 positions and float64 weights of its prime powers (1.1 B per value,
    2.2 B while the segments' parts are joined), and one bool flag per value:
    4.36 B per value measured.
    """
    argv = [command, "--kind", kind, "--n", str(n), "--output", str(tmp_path / "out.json")]
    if command == "dependence":
        argv += ["--report", str(tmp_path / "report.json")]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bytes_per_value * n, f"{peak / n:.2f} bytes per value"


def test_ergodic_peak_memory(tmp_path):
    """Every `ergodic` row comes from the atoms and the drawn amplitudes: no
    realization and no array of length n.  At n = 10^7 that is a few MiB,
    the first call's lazy imports included, where one length-n complex
    realization alone takes 160 MB."""
    argv = ["ergodic", "--atoms", "0:2,1.0471975511965976:1,-2.5:0.5", "--n", str(10**7),
            "--seed", "7", "--output", str(tmp_path / "cov.csv"),
            "--mse-output", str(tmp_path / "mse.csv"), "--autocov-output", str(tmp_path / "autocov.csv")]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"
