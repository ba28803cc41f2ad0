"""Each subcommand imports only the modules it runs, the CLI runs BLAS on one thread and starts
no sieve pool, no output depends on BLAS, and the package exports load on access and have callers."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievestats as ss
from sievestats.cli import run

SRC = Path(ss.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

#: `python -m sievestats ARGS` that also prints, at exit, the sievestats submodules it loaded.
RUN_AND_LIST = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith('sievestats.')),"
    " file=sys.stderr))\n"
    "runpy.run_module('sievestats', run_name='__main__')\n"
)

#: `python -m sievestats ARGS` that also prints, at exit, how many OS threads the process has.
RUN_AND_COUNT_THREADS = (
    "import atexit, os, runpy, sys\n"
    "atexit.register(lambda: print(len(os.listdir('/proc/self/task')), file=sys.stderr))\n"
    "runpy.run_module('sievestats', run_name='__main__')\n"
)

#: `python -m sievestats ARGS` that also prints, at exit, whether `concurrent.futures` was loaded.
RUN_AND_CHECK_POOL = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('concurrent.futures' in sys.modules, file=sys.stderr))\n"
    "runpy.run_module('sievestats', run_name='__main__')\n"
)


#: Imports numpy before `sievestats.cli`, then runs the CLI on ARGS.
NUMPY_FIRST = "import sys, numpy\nfrom sievestats import cli\nsys.exit(cli.run(sys.argv[1:]))\n"


def _fresh(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """`code` run in a new interpreter with this checkout's sievestats first on the path,
    and `env` added to its environment."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env={**ENV, **env})


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["table", "--kind", "moebius", "--lo", "1", "--hi", "30"], {"cli", "kinds", "sieves"}),
        (["sum", "--kind", "moebius", "--n-max", "1000", "--checkpoints", "10,100,1000"],
         {"cli", "kinds", "sieves", "sums", "identities"}),
        (["riemann-check", "--n-max", "1000"], {"cli", "kinds", "sieves", "deviation"}),
        (["ergodic", "--atoms", "0:2,1.0471975511965976:1", "--n", "1000"], {"cli", "kinds", "spectral"}),
        (["dependence", "--kind", "moebius", "--n", "1000", "--lags", "1..3"], {"cli", "kinds", "sieves", "mixing"}),
        (["normality", "--kind", "moebius", "--n", "3000", "--block-size", "100"],
         {"cli", "kinds", "sieves", "normality"}),
        (["deviation", "--kind", "moebius", "--n-max", "3000", "--mode", "variance-growth", "--block-size", "100"],
         {"cli", "kinds", "sieves", "deviation", "normality"}),
        *((["dependence", "--kind", kind, "--n", "1000", "--lags", "1..3", "--report", "-"],
           {"cli", "kinds", "sieves", "mixing"}) for kind in ("moebius", "von_mangoldt")),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_subcommand_loads_only_the_modules_it_runs(argv, modules, capsys):
    child = _fresh(RUN_AND_LIST, *argv)
    assert child.returncode == 0, child.stderr
    assert set(child.stderr.splitlines()[-1].split()) == {f"sievestats.{m}" for m in modules}
    assert run(argv) == 0
    assert child.stdout == capsys.readouterr().out


def test_von_mangoldt_dependence_bytes_do_not_depend_on_blas_threads():
    # numpy loads first, so OpenBLAS keeps the environment's thread count; no output goes through
    # BLAS, which would split a dot product over more than 10^4 values across its threads.
    argv = ["dependence", "--kind", "von_mangoldt", "--n", "100000", "--lags", "1..5", "--output", "-"]
    one, two = (_fresh(NUMPY_FIRST, *argv, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout.count("\n") == 6
    assert one.stdout == two.stdout


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task to count threads")
def test_cli_process_runs_one_thread():
    # A user's OPENBLAS_NUM_THREADS is overridden too: no BLAS pool starts beside the main thread.
    argv = ["riemann-check", "--n-max", "1000", "--workers", "1"]
    child = _fresh(RUN_AND_COUNT_THREADS, *argv, OPENBLAS_NUM_THREADS="2")
    assert child.returncode == 0, child.stderr
    assert child.stderr.splitlines()[-1] == "1"


def test_workers_flag_is_accepted_and_starts_no_pool():
    # Every stream is sieved on the calling thread: `--workers 2` prints what `--workers 1` does.
    argv = ["sum", "--kind", "twin_prime_indicator", "--n-max", "3000000", "--checkpoints", "3000000"]
    one, two = (_fresh(RUN_AND_CHECK_POOL, *argv, "--workers", w) for w in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout.startswith("n,S\n3000000,")
    assert two.stdout == one.stdout
    assert two.stderr.splitlines()[-1] == "False"


def test_plain_import_loads_no_submodule():
    child = _fresh("import sys, sievestats\nprint(*sorted(m for m in sys.modules if 'sievestats' in m))")
    assert child.returncode == 0, child.stderr
    assert child.stdout == "sievestats\n"


def test_exports_resolve_on_first_access():
    """In a new interpreter every name of `__all__` resolves, `dir` lists it, and
    submodules still import by name from the package."""
    child = _fresh(
        "import json, sievestats as ss\n"
        "resolved = [name for name in ss.__all__ if getattr(ss, name) is not None]\n"
        "from sievestats import cli, identities, mixing\n"
        "print(json.dumps({'all': ss.__all__, 'resolved': resolved, 'dir': dir(ss),\n"
        "                  'modules': [cli.__name__, identities.__name__, mixing.__name__, ss.sieves.__name__]}))\n"
    )
    assert child.returncode == 0, child.stderr
    found = json.loads(child.stdout)
    assert len(found["all"]) == 47
    assert found["resolved"] == found["all"]
    assert set(found["all"]) <= set(found["dir"])
    assert found["modules"] == ["sievestats.cli", "sievestats.identities", "sievestats.mixing", "sievestats.sieves"]


def test_export_is_the_defining_modules_object():
    from sievestats import mixing, sieves, sums

    assert ss.accumulate is sums.accumulate
    assert ss.ValueTable is sieves.ValueTable
    assert ss.alpha_hat is mixing.alpha_hat


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'sievestats' has no attribute 'no_such_name'"):
        ss.no_such_name
    assert not hasattr(ss, "iter_segments")  # a submodule's name, not exported


#: Exports that no module of the package calls, each kept for a reason the package's code does not show.
UNCALLED_EXPORTS = {
    # the in-process names of kinds that `parse_kind` reads from text
    "PRIME", "TWIN_PRIME", "SQUAREFREE", "LIOUVILLE", "PARITY_WEIGHT", "omega_equals",
    # the trial-division check, independent of the sieves, that tools/ and perfbench/ compare against
    "oracle_value",
    # `sieve_table` and the statistics that take its table, which perfbench/ pins; they go with
    # ROADMAP items 1 and 6
    "sieve_table", "autocovariance", "alpha_hat", "stationarity_report", "moments", "empirical_cdf",
    "block_standardize",
}


def test_every_export_has_a_caller():
    """Each name of `__all__` is loaded, read as an attribute or imported somewhere in the
    package's modules other than `__init__`, or is one of `UNCALLED_EXPORTS`."""
    read = set()
    for path in Path(ss.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
    assert UNCALLED_EXPORTS <= set(ss.__all__)
    assert sorted(set(ss.__all__) - read - UNCALLED_EXPORTS) == []
