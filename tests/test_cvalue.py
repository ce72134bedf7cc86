import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qdd.cvalue import (DEFAULT_TOL, ComplexTable, ComplexValue,
                        magnitude_squared)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                   allow_infinity=False)


@pytest.fixture
def table():
    return ComplexTable()


def test_preinterned_constants(table):
    assert table.zero.real == 0.0 and table.zero.imag == 0.0
    assert table.one.real == 1.0
    assert table.sqrt2_inv.real == pytest.approx(1 / math.sqrt(2), abs=0)
    assert table.neg_sqrt2_inv.real == -table.sqrt2_inv.real
    assert table.intern(complex(0.0, 0.0)) is table.zero
    assert table.intern(complex(1.0, 0.0)) is table.one


def test_nearby_values_unify(table):
    a = table.intern(complex(0.7071067811865476, 0.0))
    b = table.intern(complex(0.70710678118654766, 0.0))
    assert a is b is table.sqrt2_inv


def test_distinct_values_stay_distinct(table):
    half = table.intern(complex(0.5, 0.0))
    assert half is not table.intern(complex(-1 / math.sqrt(2), 0.0))


def test_non_finite_rejected(table):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            table.intern(complex(bad, 0.0))
        with pytest.raises(ValueError):
            table.intern(complex(0.0, bad))


def test_too_large_to_bucket_rejected(table):
    # the cell index re / DEFAULT_TOL overflows a float from about 1.8e298
    for big in (1e299, -1.7e308):
        with pytest.raises(ValueError, match="too large"):
            table.intern(complex(big, 0.0))
        with pytest.raises(ValueError, match="too large"):
            table.intern(complex(0.0, big))
    assert len(table) == 4
    assert table.intern(1e298).real == 1e298


def test_near_zero_snaps_to_canonical_zero(table):
    assert table.intern(complex(4e-11, -3e-11)) is table.zero


def test_cmul_half_by_neg_sqrt2(table):
    half = table.intern(complex(0.5, 0.0))
    neg_sqrt2 = table.intern(complex(-math.sqrt(2), 0.0))
    assert table.cmul(half, neg_sqrt2) is table.neg_sqrt2_inv


def test_cmul_identities(table):
    x = table.intern(complex(0.25, -0.75))
    assert table.cmul(x, table.one) is x
    assert table.cmul(table.one, x) is x
    assert table.cmul(x, table.zero) is table.zero


@pytest.mark.parametrize("z", [complex(-0.25, -0.75), complex(-1.5, 0.5),
                               complex(0.5, -2.0), complex(-1.0, 0.0)])
def test_zero_operand_gives_the_zero_handle(table, z):
    # no zero shortcut: a product or quotient with 0 holds -0.0
    # components, which intern onto the 0 handle like any result
    x = table.intern(z)
    assert table.cmul(table.zero, x) is table.zero
    assert table.cmul(x, table.zero) is table.zero
    assert table.cdiv(table.zero, x) is table.zero


def test_cadd_doubles_to_sqrt2(table):
    s = table.sqrt2_inv
    r = table.intern(s + s)
    assert r.real == pytest.approx(math.sqrt(2), abs=1e-15)
    assert r.imag == 0.0


def test_cdiv_by_near_zero_raises(table):
    x = table.intern(complex(1.0, 1.0))
    with pytest.raises(ZeroDivisionError):
        table.cdiv(x, table.zero)
    tiny = table.intern(complex(1e-11, 0.0))  # unifies with zero
    assert tiny is table.zero
    with pytest.raises(ZeroDivisionError):
        table.cdiv(x, tiny)


def test_cdiv_roundtrip(table):
    a = table.intern(complex(0.3, 0.4))
    b = table.intern(complex(-0.6, 0.2))
    assert table.cdiv(table.cmul(a, b), b) is a


def test_magnitude_squared_examples(table):
    assert magnitude_squared(table.neg_sqrt2_inv) == pytest.approx(0.5, abs=1e-15)
    assert magnitude_squared(table.zero) == 0.0
    assert magnitude_squared(table.intern(complex(0.6, 0.8))) == pytest.approx(1.0, abs=1e-15)


@given(re=finite, im=finite)
def test_interning_idempotent(re, im):
    table = ComplexTable()
    h = table.intern(complex(re, im))
    assert table.intern(complex(h.real, h.imag)) is h


@given(re=finite, im=finite, dre=st.floats(-5e-11, 5e-11),
       dim=st.floats(-5e-11, 5e-11))
def test_handle_identity_implies_proximity(re, im, dre, dim):
    # handles are within tolerance of every input that produced them
    table = ComplexTable()
    a = table.intern(complex(re, im))
    assert abs(a.real - re) < DEFAULT_TOL and abs(a.imag - im) < DEFAULT_TOL
    b = table.intern(complex(re + dre, im + dim))
    if a is b:
        assert abs(a.real - (re + dre)) < DEFAULT_TOL
        assert abs(a.imag - (im + dim)) < DEFAULT_TOL


def test_lookup_within_tolerance_of_entry_unifies():
    table = ComplexTable()
    first = table.intern(complex(0.123456789, 0.5))
    assert table.intern(complex(0.123456789 + 9e-11, 0.5 - 9e-11)) is first


def within_component_tol(got, want, tol):
    # interning is per component, so that is the deviation bound too
    return abs(got.real - want.real) <= tol and abs(got.imag - want.imag) <= tol


@given(a=st.tuples(finite, finite), b=st.tuples(finite, finite))
# operands just under the tolerance intern to 0, so the raw inputs' sum,
# product or quotient can miss the interned operands' by twice it
@example(a=(5.235488922391453e-11, 0.0), b=(5.235488922391453e-11, 0.0))
@example(a=(0.0, 5.235488922391453e-11), b=(0.0, 0.5))
@example(a=(0.0, 2.0), b=(0.0, 5.235488922391453e-11))
def test_arithmetic_matches_python_complex(a, b):
    table = ComplexTable()
    ah = table.intern(complex(*a))
    bh = table.intern(complex(*b))
    # the arithmetic is checked on the values the handles hold
    ac, bc = complex(ah), complex(bh)
    assert within_component_tol(table.cmul(ah, bh), ac * bc, DEFAULT_TOL)
    assert within_component_tol(table.intern(ah + bh), ac + bc, DEFAULT_TOL)
    if abs(bc) >= 1e-3:
        assert within_component_tol(table.cdiv(ah, bh), ac / bc, DEFAULT_TOL)


def test_fresh_products_are_exact():
    # away from pre-interned constants, the interned product is bitwise
    # the double-precision result
    table = ComplexTable()
    a = table.intern(complex(0.3125, -0.21))
    b = table.intern(complex(0.77, 0.19))
    prod = table.cmul(a, b)
    assert complex(prod) == complex(0.3125, -0.21) * complex(0.77, 0.19)


wide = st.floats(min_value=-1e100, max_value=1e100)


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@given(a=st.tuples(wide, wide), b=st.tuples(wide, wide))
def test_cmul_and_cadd_round_like_the_component_formulas(a, b):
    # cmul and _add intern Python's complex product and sum, which must
    # round exactly like these formulas; a C complex product that fuses
    # multiply and add (FMA) fails here instead of moving every result
    table = ComplexTable()
    x, y = table.intern(complex(*a)), table.intern(complex(*b))
    prod = complex(x.real * y.real - x.imag * y.imag,
                   x.real * y.imag + x.imag * y.real)
    total = complex(x.real + y.real, x.imag + y.imag)
    assert bits(x * y) == bits(prod) and bits(x + y) == bits(total)
    assert table.cmul(x, y) is table.intern(prod)
    assert table.intern(x + y) is table.intern(total)


def test_handles_are_complex_numbers(table):
    x = table.intern(0.25 - 0.75j)
    assert isinstance(x, complex) and not hasattr(x, "__dict__")
    assert x == 0.25 - 0.75j and hash(x) == hash(0.25 - 0.75j)
    assert type(x * 2j) is complex and x * 2j == 1.5 + 0.5j
    assert 1 + x == 1.25 - 0.75j and complex(x) - x == 0
    assert table.intern(x) is x
    assert table.intern(0.25) is not x


def test_idx_is_the_creation_rank(table):
    assert [table.zero.idx, table.one.idx, table.sqrt2_inv.idx,
            table.neg_sqrt2_inv.idx] == [0, 1, 2, 3]
    for k in range(5):
        rank = len(table)
        assert table.intern(complex(k + 2, 0.5)).idx == rank
        assert len(table) == rank + 1
    assert table.intern(complex(2, 0.5 + 5e-11)).idx == 4  # a hit adds none
    assert len(table) == 9


class NineProbeTable:
    """The reference lookup: scan the input's 3x3 neighbour cells in a
    fixed order and return the first entry within tolerance."""

    OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1),
               (-1, -1), (-1, 1), (1, -1), (1, 1))

    def __init__(self):
        self.cells = {}
        self.ranked_lookups = 0  # lookups with two or more candidates
        for z in (0.0, 1.0, 1 / math.sqrt(2), -1 / math.sqrt(2)):
            self.intern(z)

    def intern(self, z):
        re, im = z.real, z.imag
        cr = math.floor(re / DEFAULT_TOL)
        ci = math.floor(im / DEFAULT_TOL)
        found = []
        for dr, di in self.OFFSETS:
            hit = self.cells.get((cr + dr, ci + di))
            if (hit is not None and abs(hit.real - re) < DEFAULT_TOL
                    and abs(hit.imag - im) < DEFAULT_TOL):
                found.append(hit)
        if found:
            self.ranked_lookups += len(found) > 1
            return found[0]
        value = self.cells[cr, ci] = ComplexValue(z)
        value.idx = len(self.cells) - 1
        return value


def clustered_inputs(seed: int, clusters: int) -> list[complex]:
    """Clusters of values a few cells wide, packed densely enough that
    many inputs are within tolerance of entries in two or more cells."""
    rng = random.Random(seed)
    far = 1 << 44  # cells from here on have block coordinates past 2^39
    out = []
    for _ in range(clusters):
        block_r = rng.choice((0, -1, 3, -7, far >> 5, -(far >> 5) - 2))
        block_i = rng.choice((0, -1, 5, -2, far >> 5, (far >> 4) + 1))
        # a cell on a block border (offset 0 or 31) or next to one
        cr = (block_r << 5) + rng.choice((0, 31, 1, 30, 16))
        ci = (block_i << 5) + rng.choice((0, 31, 1, 30, 16))
        for _ in range(12):
            # positions within a cell: either edge, or anywhere
            u, v = (rng.choice((0.0, 1e-7, 0.5, 1 - 1e-7, rng.random()))
                    for _ in range(2))
            out.append(complex((cr + rng.randint(-2, 2) + u) * DEFAULT_TOL,
                               (ci + rng.randint(-2, 2) + v) * DEFAULT_TOL))
    # two values whose blocks (0, 2^40) and (1, 0) share a packed key
    out += [complex(0.0, (1 << 45) * DEFAULT_TOL), complex(32 * DEFAULT_TOL)]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_table_matches_nine_probe_scan(seed):
    inputs = clustered_inputs(seed, 300)
    table, ref = ComplexTable(), NineProbeTable()
    by_idx = {}
    for z in inputs:
        got, want = table.intern(z), ref.intern(z)
        assert got.idx == want.idx and bits(got) == bits(want)
        assert by_idx.setdefault(got.idx, got) is got
    assert len(table) == len(ref.cells)
    # the inputs reach the cases the block table must get right
    assert ref.ranked_lookups > 100
    cells = [(math.floor(z.real / DEFAULT_TOL),
              math.floor(z.imag / DEFAULT_TOL)) for z in inputs]
    assert {cr % 32 for cr, _ in cells} >= {0, 31}
    assert min(cr for cr, _ in cells) < 0 and min(ci for _, ci in cells) < 0
    assert max(max(map(abs, cell)) for cell in cells) >= 1 << 44
