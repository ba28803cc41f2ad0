"""The outputs of `tools/cli_outputs.py` hash to `tests/data/cli_outputs.sha256`.

The manifest holds one sha256 per output file whose name does not contain `von_mangoldt`,
`exit_codes.txt` included.  Von Mangoldt files are left out: their log weights come from
numpy's `np.log`, whose last bits follow the loop numpy dispatches to on the host's CPU.  Their
S(c) and T_j are checked against `math.fsum` in `test_sums.py` instead.  A change that moves an
output regenerates the manifest as the `tools/cli_outputs.py` docstring shows, and says why.
"""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "cli_outputs.sha256"


def test_cli_outputs_match_the_manifest(tmp_path):
    out = tmp_path / "out"
    child = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_outputs.py"), str(out)],
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    try:
        got = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.rglob("*") if path.is_file() and "von_mangoldt" not in path.name}
    finally:
        shutil.rmtree(out)  # about 113 MB
    wanted = dict(reversed(line.split("  ", 1)) for line in MANIFEST.read_text().splitlines())
    assert sorted(got) == sorted(wanted)
    assert [name for name in sorted(got) if got[name] != wanted[name]] == []
