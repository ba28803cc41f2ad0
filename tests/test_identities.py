"""Floor-quotient prefix-sum identities against the sieve route and published values."""

import functools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievestats as ss
from sievestats import cli, deviation, identities, sieves, sums
from sievestats.identities import identity_sums, prefers_identities

IDENTITY_KINDS = [ss.PRIME, ss.SQUAREFREE, ss.MOEBIUS, ss.LIOUVILLE, ss.PARITY_WEIGHT]
IDS = [str(k) for k in IDENTITY_KINDS]


def sieved(kind, cps, n_max=None, **kwargs):
    """The sieve route of `accumulate`, taken whatever the cost model says."""
    segments = sieves.iter_segments(kind, 1, n_max or cps[-1], **kwargs)
    return sums.checkpoint_sums(kind, cps, segments)


def test_identity_tags_are_the_five_kinds():
    assert identities.IDENTITY_TAGS == {k.tag for k in IDENTITY_KINDS}


@pytest.mark.parametrize("kind", IDENTITY_KINDS, ids=IDS)
def test_every_n_up_to_300(kind):
    cps = list(range(1, 301))
    assert identity_sums(kind, cps) == sieved(kind, cps)


@pytest.mark.parametrize("kind", IDENTITY_KINDS, ids=IDS)
def test_random_checkpoints_up_to_three_million(kind):
    cps = sorted(random.Random(20261018).sample(range(1, 3 * 10**6 + 1), 40))
    assert identity_sums(kind, cps) == sieved(kind, cps, 3 * 10**6, workers=2)


@settings(max_examples=40, deadline=None, database=None)
@given(
    kind=st.sampled_from(IDENTITY_KINDS),
    cps=st.lists(st.integers(1, 2 * 10**5), min_size=1, max_size=6, unique=True).map(sorted),
    segment_size=st.integers(1000, 1 << 16),
)
def test_identities_match_the_sieve(kind, cps, segment_size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "iter_segments", functools.partial(sieves.iter_segments, segment_size=segment_size))
        got = identity_sums(kind, cps)
    assert got == sieved(kind, cps, segment_size=segment_size)


def test_prime_count_across_the_cube_root():
    """The primes above c^(1/3) are applied in one batch; c <= 3000 and p^3 - 1, p^3 and p^3 + 1
    for the primes p <= 300 move primes across that bound, all checkpoints of one sieve pass."""
    cubes = {p**3 + d for p in sieves.base_primes(300).tolist() for d in (-1, 0, 1)}
    cps = sorted(cubes.union(range(1, 3001)))
    assert [identities.prime_count(c) for c in cps] == sieved(ss.PRIME, cps)


@pytest.mark.parametrize("pairs", [1, 7, 1000])
def test_prime_count_batches_do_not_depend_on_their_size(pairs, monkeypatch):
    expected = [identities.prime_count(c) for c in (10**6, 2 * 10**7 + 1)]
    monkeypatch.setattr(identities, "PAIRS", pairs)
    assert [identities.prime_count(c) for c in (10**6, 2 * 10**7 + 1)] == expected


def test_prime_count_at_ten_to_the_ten():
    assert identities.prime_count(10**10) == 455052511  # OEIS A006880


@pytest.mark.parametrize("kind", [ss.PRIME, ss.MOEBIUS], ids=str)
def test_routes_agree_at_ten_to_the_eight(kind):
    cps = [99_999_989, 10**8]
    assert identity_sums(kind, cps) == sieved(kind, cps, workers=2)


# pi(10^9) (OEIS A006880), Q(10^9) (A071172), M(10^9) (A084237).
@pytest.mark.parametrize(
    "kind,value",
    [(ss.PRIME, 50847534), (ss.SQUAREFREE, 607927124), (ss.MOEBIUS, -222)],
    ids=["pi", "Q", "M"],
)
def test_published_values_at_ten_to_the_nine(kind, value):
    assert ss.accumulate(kind, 10**9, [10**9]).sums == (value,)


def test_published_liouville_sums():
    # L(10^k) for k = 0..7 (OEIS A090410).
    cps = [10**k for k in range(8)]
    assert ss.accumulate(ss.LIOUVILLE, 10**7, cps).sums == (1, 0, -2, -14, -94, -288, -530, -842)


def test_parity_weight_is_three_mertens_plus_squarefree_over_two():
    cps = [10**6, 123_456_789]
    mertens = identity_sums(ss.MOEBIUS, cps)
    squarefree = identity_sums(ss.SQUAREFREE, cps)
    assert identity_sums(ss.PARITY_WEIGHT, cps) == [
        (3 * m + q) // 2 for m, q in zip(mertens, squarefree)
    ]


@pytest.mark.parametrize(
    "n,segment_size,message",
    [
        (sieves.DEFAULT_MAX_HI + 1, sieves.DEFAULT_SEGMENT_SIZE, "exceeds the configured maximum"),
        (10**6, 0, "segment_size must be positive"),
    ],
    ids=["above-max-hi", "segment-size-zero"],
)
def test_identity_route_refuses_what_the_sieve_refuses(n, segment_size, message):
    """The identity route's mu table is read from the same stream, so a stream it is handed
    refuses there as it does on its own."""
    assert prefers_identities(ss.MOEBIUS, [n], n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "iter_segments", functools.partial(sieves.iter_segments, segment_size=segment_size))
        with pytest.raises(ValueError, match=message):
            ss.accumulate(ss.MOEBIUS, n, [n])
    with pytest.raises(ValueError, match=message):
        list(sieves.iter_segments(ss.MOEBIUS, 1, n, segment_size=segment_size))


class _SieveRoute(Exception):
    pass


@pytest.fixture
def segment_calls(monkeypatch):
    """Records (kind, lo, hi) of every `iter_segments` call.

    A call that sieves [1, n] up to at least 10^7 raises _SieveRoute instead
    of running, so the sieve route is seen without being paid for.
    """
    calls = []
    real = sieves.iter_segments

    def spy(kind, lo, hi, **kwargs):
        calls.append((str(kind), lo, hi))
        if hi >= 10**7:
            raise _SieveRoute
        return real(kind, lo, hi, **kwargs)

    for module in (sieves, sums, deviation, identities):
        monkeypatch.setattr(module, "iter_segments", spy)
    return calls


def test_sparse_sum_checkpoints_take_the_identities(segment_calls):
    cps = sorted([10**k for k in range(1, 10)] + [123_456_789, 555_555_555, 987_654_321])
    series = ss.accumulate(ss.MOEBIUS, 10**9, cps, workers=2)
    assert series.as_map()[10**9] == -222
    assert segment_calls == [("moebius", 1, round(1e9 ** (2 / 3)))]
    segment_calls.clear()
    assert ss.accumulate(ss.PRIME, 10**9, cps).as_map()[10**9] == 50847534
    assert segment_calls == []


def test_single_checkpoint_takes_the_identities(segment_calls):
    assert ss.mertens(10**8) == 1928
    assert segment_calls == [("moebius", 1, round(1e8 ** (2 / 3)))]


def test_variance_growth_takes_the_sieve(segment_calls):
    with pytest.raises(_SieveRoute):
        deviation.variance_growth(ss.MOEBIUS, 2 * 10**7, 1000)
    assert segment_calls == [("moebius", 1, 2 * 10**7)]


def test_oeis_check_takes_the_sieve(segment_calls, tmp_path):
    out = tmp_path / "oeis.json"
    bfile = str(Path(__file__).parent / "data" / "b002321.txt")
    assert cli.run(["oeis-check", "--bfile", bfile, "--kind", "moebius", "--output", str(out)]) == 0
    assert segment_calls == [("moebius", 1, 2000)]


def test_sieve_only_kinds_never_take_the_identities():
    for kind in (ss.TWIN_PRIME, ss.omega_equals(2), ss.VON_MANGOLDT):
        assert not prefers_identities(kind, [10**9], 10**9)
