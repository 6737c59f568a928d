"""Tests for fixtures, worst-case families, and the large constructions."""

from fractions import Fraction
from math import comb

import pytest

from fairmix import core, generators, rules
from fairmix.core import Mixture, parse_problem, format_problem
from fairmix.generators import (
    APPENDIX_860_Z,
    APPENDIX_860_Z_MISREPORT,
    SP0_Z_REPORTED,
    SP0_Z_TRUTHFUL,
    CutWorstCaseParams,
    RpWorstCaseParams,
    appendix_36,
    appendix_860,
    appendix_sp0,
    cut_bound,
    cut_worstcase,
    fixture,
    fixture_names,
    rp_family_ratio,
    rp_worstcase,
)

F = Fraction


# ---------------------------------------------------------------- fixtures


def test_fixture_registry():
    names = fixture_names()
    for required in ("ex3", "ex5", "egal-true", "egal-misreport",
                     "afs-example", "cfs-example", "dec-m", "dec-mprime"):
        assert required in names
    with pytest.raises(ValueError):
        fixture("no-such-fixture")


def test_fixture_shapes():
    assert (fixture("ex3").n, fixture("ex3").m) == (5, 5)
    assert (fixture("ex5").n, fixture("ex5").m) == (6, 5)
    assert (fixture("afs-example").n, fixture("afs-example").m) == (5, 4)
    assert (fixture("cfs-example").n, fixture("cfs-example").m) == (4, 3)


def test_every_fixture_round_trips():
    for name in fixture_names():
        P = fixture(name)
        assert parse_problem(format_problem(P)) == P


# ---------------------------------------------------------------- CUT family


def test_cut_worstcase_params_validation():
    with pytest.raises(ValueError):
        CutWorstCaseParams(n1=5, n2=5, p=6)  # p >= n2
    with pytest.raises(ValueError):
        CutWorstCaseParams(n1=7, n2=5, p=4)  # n1 does not divide (p-1)n2
    params = CutWorstCaseParams(n1=5, n2=5, p=4)
    assert params.q == 3


def test_cut_worstcase_size_cap():
    # with p = 1 every n1 divides (p - 1) * n2 = 0, so only the cap bounds n1
    for n1, n2 in ((2, 99999999), (99999999, 3)):
        with pytest.raises(ValueError, match="cells"):
            CutWorstCaseParams(n1=n1, n2=n2, p=1)
    CutWorstCaseParams(n1=2, n2=1000, p=1)  # the N = 1000 instance, 2.0M cells


def test_cut_worstcase_example_instance():
    P = cut_worstcase(CutWorstCaseParams(n1=5, n2=5, p=4))
    # bit a is outcome a: a = bit 0, the ring B bits 1-5, the ring C bits
    # 6-10; agent i's window of q = 3 in B starts at 3i mod 5, agent j's
    # window of p - 1 = 3 in C at j
    assert P.m == 11 and P.entries == tuple((1, mask) for mask in (
        0b00000001111, 0b00000110011, 0b00000011101, 0b00000100111,
        0b00000111001, 0b00111000010, 0b01110000100, 0b11100001000,
        0b11001010000, 0b10011100000))
    # CUT output as in the construction: half on a, 1/10 per b, zero on C
    U, z = rules.cut_rule(P)
    assert z.z[0] == F(1, 2)
    assert z.z[1:6] == (F(1, 10),) * 5
    assert z.z[6:] == (F(0),) * 5


def test_cut_worstcase_column_supports():
    # every valid parameter triple with n <= 60: supports are exactly
    # n1 (outcome a), p (B outcomes), p-1 (C outcomes)
    tested = 0
    for n1 in range(2, 20):
        for n2 in range(2, 20):
            if n1 + n2 > 60:
                continue
            for p in range(2, min(n1, n2)):
                if ((p - 1) * n2) % n1:
                    continue
                P = cut_worstcase(CutWorstCaseParams(n1=n1, n2=n2, p=p))
                assert P.column_sum(0) == n1
                for j in range(n2):
                    assert P.column_sum(1 + j) == p
                    assert P.column_sum(1 + n2 + j) == p - 1
                tested += 1
    assert tested > 20


def test_cut_bound_values():
    # the printed inefficiency row, within one percentage point
    printed = {6: F(91, 100), 8: F(87, 100), 12: F(82, 100), 32: F(68, 100),
               64: F(58, 100), 1024: F(27, 100), 16384: F(11, 100)}
    for n, want in printed.items():
        assert abs(cut_bound(n) - want) <= F(1, 100)
    with pytest.raises(ValueError):
        cut_bound(4)


def _bound_at_safe_root(n):
    """The CUT bound 1/n + 3/c - 3/c^2 at c = n^(1/3) rounded to 10^-15
    toward the side that lowers the bound (down for n <= 8, up above,
    where the bound falls as c grows): a float first guess, made exact by
    integer cube comparisons."""
    scale = 10**15
    target = n * scale**3
    c = round(n ** (1 / 3) * scale)
    while c**3 > target:
        c -= 1
    while (c + 1) ** 3 <= target:
        c += 1
    if n > 8 and c**3 < target:
        c += 1
    return F(1, n) + F(3 * scale, c) - F(3 * scale * scale, c * c)


def test_cut_bound_is_a_guarantee():
    # the returned bound must not exceed the bound at the true cube root;
    # the finer, safely rounded root sits between the true root and the
    # 10^-9 one, so it bounds cut_bound from above
    for n in list(range(5, 13)) + [27, 100, 1000, 1024, 4096, 12345, 2**20]:
        assert cut_bound(n) <= _bound_at_safe_root(n), n


def test_cut_bound_is_exact_at_perfect_cubes():
    for c in (3, 4, 10):
        assert cut_bound(c**3) == F(1, c**3) + (1 - F(1, c)) * F(3, c)


def test_cut_bound_eventually_decreasing():
    values = [cut_bound(n) for n in (8, 16, 64, 512, 4096, 2**20)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- RP family


def test_rp_worstcase_params_validation():
    with pytest.raises(ValueError):
        RpWorstCaseParams(k=3, d=2, ell=1)
    with pytest.raises(ValueError):
        RpWorstCaseParams(k=3, d=2, ell=3)


def test_rp_worstcase_shape():
    P = rp_worstcase(RpWorstCaseParams(k=3, d=2, ell=2))
    assert P.n == 6
    assert P.m == 2 + comb(6, 2)  # d block outcomes + one per ell-subset
    # each block outcome liked by exactly k agents, each subset outcome by ell
    assert P.column_sum(0) == 3 and P.column_sum(1) == 3
    for a in range(2, P.m):
        assert P.column_sum(a) == 2


def test_rp_worstcase_round_trips_through_both_formats():
    P = rp_worstcase(RpWorstCaseParams(k=10, d=3, ell=5))
    assert parse_problem(format_problem(P)) == P
    assert parse_problem(core.format_typed_profile(P)) == P


def test_rp_worstcase_exact_masks():
    # bits 0-1 are the blocks {0, 1, 2} and {3, 4, 5}; bits 2-16 are the
    # pairs (0, 1), (0, 2), ..., (4, 5) in lexicographic order
    P = rp_worstcase(RpWorstCaseParams(k=3, d=2, ell=2))
    assert P.entries == tuple((1, mask) for mask in (
        0b00000000001111101, 0b00000011110000101, 0b00011100010001001,
        0b01100100100010010, 0b10101001000100010, 0b11010010001000010))


def test_rp_worstcase_size_refusal():
    with pytest.raises(ValueError):
        rp_worstcase(RpWorstCaseParams(k=30, d=1, ell=10))


def test_rp_family_ratio_values():
    assert rp_family_ratio(RpWorstCaseParams(k=3, d=2, ell=2)) == F(4, 5)
    # (1 - 3/4) * ((3*2)/(7*6)) + 3/4 = 11/14
    small = rp_family_ratio(RpWorstCaseParams(k=4, d=2, ell=3))
    assert small == F(11, 14)
    # with a single block (n = k) the ratio degenerates to 1
    assert rp_family_ratio(RpWorstCaseParams(k=4, d=1, ell=3)) == 1


def test_rp_family_ratio_realized():
    params = RpWorstCaseParams(k=3, d=2, ell=2)
    P = rp_worstcase(params)
    U, _ = rules.rp_exact(P)
    # egalitarian benchmark: uniform over block outcomes gives everyone 1/d
    n, d = P.n, 2
    benchmark = F(n, d)
    assert U.total() / benchmark == rp_family_ratio(params)


# ---------------------------------------------------------------- appendices


def test_appendix_36_counts():
    truthful = appendix_36(misreport=False)
    assert sum(c for c, _ in truthful.entries) == 36
    misreported = appendix_36(misreport=True)
    assert sum(c for c, _ in misreported.entries) == 36
    assert truthful.entries[0][0] == 4
    assert misreported.entries[0][0] == 3
    assert misreported.entries[1] == (1, 0b11)


def test_appendix_36_nmp_manipulation_gain():
    truthful = nmp = rules.nmp_rule(appendix_36(misreport=False))
    misreported = rules.nmp_rule(appendix_36(misreport=True))
    assert truthful.converged and misreported.converged
    # symmetric in c and d
    assert abs(truthful.z.z[2] - truthful.z.z[3]) < F(1, 10**9)
    gain = misreported.z.z[0] - truthful.z.z[0]
    assert gain > F(1, 1000)


def test_appendix_860_counts_and_certificates():
    truthful = appendix_860(misreport=False)
    misreported = appendix_860(misreport=True)
    assert sum(c for c, _ in truthful.entries) == 860
    assert sum(c for c, _ in misreported.entries) == 860
    assert rules.kkt_residual(truthful, APPENDIX_860_Z) == 0
    assert rules.kkt_residual(misreported, APPENDIX_860_Z_MISREPORT) == 0
    # the manipulation pays: weight on a strictly increases
    assert APPENDIX_860_Z_MISREPORT.z[0] > APPENDIX_860_Z.z[0]


def test_appendix_sp0_certificates():
    truthful, misreported = appendix_sp0()
    n = sum(c for c, _ in truthful.entries)
    assert n == sum(c for c, _ in misreported.entries)
    assert rules.kkt_residual(truthful, SP0_Z_TRUTHFUL) == 0
    assert rules.kkt_residual(misreported, SP0_Z_REPORTED) == 0
    # symmetry across the three a-outcomes
    assert SP0_Z_REPORTED.z[0] == SP0_Z_REPORTED.z[1] == SP0_Z_REPORTED.z[2]
    assert SP0_Z_TRUTHFUL.z[0] == SP0_Z_TRUTHFUL.z[1] == SP0_Z_TRUTHFUL.z[2]


def test_appendix_sp0_drop_manipulation_pays():
    # truthful consumption of the switching type {a,a',a'',b} at the
    # truthful optimum vs what it consumes (on its true like-set) after
    # reporting only the a-outcomes
    before = sum(SP0_Z_TRUTHFUL.z[a] for a in (0, 1, 2, 3))
    # after the switch, consumption is capped at the intersection {a,a',a''}
    after = sum(SP0_Z_REPORTED.z[a] for a in (0, 1, 2))
    assert before == F(7, 16)
    assert after == F(1, 2)
    assert after > before
