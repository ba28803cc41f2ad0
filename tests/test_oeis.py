import importlib.util
from pathlib import Path

import pytest

import sievestats as ss
from reference import format_bfile
from sievestats.oeis import BFile, parse_bfile, read_bfile

DATA = Path(__file__).parent / "data"


def test_parse_basic():
    bfile = parse_bfile("1 1\n2 0\n3 -1\n")
    assert bfile.entries == ((1, 1), (2, 0), (3, -1))


def test_parse_skips_comments_and_blanks():
    bfile = parse_bfile("# comment\n\n1 1\n  # more\n2 5\n")
    assert bfile.entries == ((1, 1), (2, 5))


def test_parse_duplicate_index():
    with pytest.raises(ValueError, match="line 2.*strictly increasing"):
        parse_bfile("1 1\n1 2\n")


def test_parse_out_of_order_index():
    with pytest.raises(ValueError, match="strictly increasing"):
        parse_bfile("5 1\n3 2\n")


def test_parse_malformed_line_reports_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_bfile("1 1\n2 2\nthree 3\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_bfile("1 2 3\n")


def test_parse_overflow():
    with pytest.raises(ValueError, match="64-bit"):
        parse_bfile(f"1 {2**63}\n")
    assert parse_bfile(f"1 {2**63 - 1}\n").entries == ((1, 2**63 - 1),)


def test_round_trip():
    bfile = BFile("A000000", ((1, 5), (2, -7), (10, 0)))
    assert parse_bfile(format_bfile(bfile), "A000000") == bfile


def test_read_bfile_derives_sequence_id():
    bfile = read_bfile(DATA / "b002321.txt")
    assert bfile.sequence_id == "A002321"
    assert bfile.entries[0] == (1, 1)
    assert len(bfile.entries) == 2000


def test_oeis_check_agreement():
    bfile = read_bfile(DATA / "b002321.txt")
    series = ss.accumulate(ss.MOEBIUS, 2000, [i for i, _ in bfile.entries])
    assert ss.oeis_check(series, bfile) == []


def test_oeis_check_reports_corruption():
    bfile = read_bfile(DATA / "b002321.txt")
    corrupted = BFile(
        bfile.sequence_id,
        tuple((i, v + 1 if i == 5 else v) for i, v in bfile.entries),
    )
    series = ss.accumulate(ss.MOEBIUS, 2000, [i for i, _ in bfile.entries])
    mismatches = ss.oeis_check(series, corrupted)
    assert mismatches == [(5, -2, -1)]


def test_oeis_check_disjoint_ranges():
    bfile = BFile("X", ((100, 1), (200, 2)))
    series = ss.accumulate(ss.MOEBIUS, 10, [1, 2, 10])
    with pytest.raises(ValueError, match="no overlapping"):
        ss.oeis_check(series, bfile)


def test_oeis_check_accepts_mapping():
    bfile = BFile("X", ((1, 1), (2, 0)))
    assert ss.oeis_check({1: 1, 2: 0, 3: 9}, bfile) == []
    with pytest.raises(TypeError):
        ss.oeis_check([1, 0], bfile)


def test_squarefree_count_vendored_prefix():
    bfile = read_bfile(DATA / "squarefree_count.txt")
    indices = [i for i, _ in bfile.entries]
    series = ss.accumulate(ss.SQUAREFREE, 2000, indices)
    assert ss.oeis_check(series, bfile) == []


def test_make_bfiles_writes_the_vendored_files(tmp_path):
    """`tools/make_bfiles.py` rewrites both vendored b-files byte for byte from the oracle."""
    spec = importlib.util.spec_from_file_location("make_bfiles", DATA.parents[1] / "tools" / "make_bfiles.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for sequence_id, kind, name in (("A002321", ss.MOEBIUS, "b002321.txt"),
                                    ("squarefree_count", ss.SQUAREFREE, "squarefree_count.txt")):
        tool.write_bfile(BFile(sequence_id, tool.prefix_entries(kind, 2000)), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()
