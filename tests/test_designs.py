import itertools

import pytest

from kernelgraphs.designs import (
    MAX_FIELD_ORDER,
    FiniteField,
    LatinSquare,
    OrthogonalArray,
    are_orthogonal,
    cyclic_square,
    max_mols_available,
    mols_complete,
    oa_extendible,
    oa_from_mols,
    oa_graph,
    _check_field,
    _prime_power,
)
from kernelgraphs.errors import UnsupportedParameterError
from kernelgraphs.graphs import are_isomorphic, cycle, paley, square_lattice


# --------------------------------------------------------------------- fields


def test_field_orders_construct():
    # the constructor checks the field axioms (see test_field_check_*)
    for q in [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]:
        f = FiniteField.of_order(q)
        assert f.q == q
        assert len(list(f.elements)) == q


def test_field_known_values():
    f4 = FiniteField.of_order(4)
    assert f4.p == 2 and f4.e == 2
    assert f4.mul(2, 2) == 3  # x * x = x + 1
    assert f4.add(2, 3) == 1
    f5 = FiniteField.of_order(5)
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.sub(1, 3) == 3
    f9 = FiniteField.of_order(9)
    assert f9.p == 3 and f9.e == 2
    assert f9.mul(3, 3) == 2  # x * x = -1


def test_field_inverses():
    for q in [7, 8, 9]:
        f = FiniteField.of_order(q)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_field_caching_and_rejections():
    assert FiniteField.of_order(25) is FiniteField.of_order(25)
    for bad in [6, 10, 12, 1, 0]:
        with pytest.raises(UnsupportedParameterError):
            FiniteField.of_order(bad)
    with pytest.raises(UnsupportedParameterError):
        FiniteField.of_order(121)  # prime power, but past the table limit


def satisfies_field_axioms(q, add, mul):
    """The q^3 check: identities, inverses, commutativity, associativity, distributivity."""
    if any(sorted(add[a]) != list(range(q)) or add[a][0] != a or mul[a][1] != a for a in range(q)):
        return False
    if any(1 not in mul[a] for a in range(1, q)):
        return False
    return all(
        add[a][b] == add[b][a]
        and mul[a][b] == mul[b][a]
        and add[add[a][b]][c] == add[a][add[b][c]]
        and mul[mul[a][b]][c] == mul[a][mul[b][c]]
        and mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a, b, c in itertools.product(range(q), repeat=3)
    )


def test_field_check_passes_every_field():
    orders = [q for q in range(2, MAX_FIELD_ORDER + 1) if _prime_power(q)]
    assert len(orders) == 23
    for q in orders:
        f = FiniteField.of_order(q)
        _check_field(q, f.p, f.e, f._add, f._mul)
    for q in [4, 8, 9]:
        f = FiniteField.of_order(q)
        assert satisfies_field_axioms(q, f._add, f._mul)


def broken_tables(q):
    """(what, add, mul) for copies of the GF(q) tables with one defect each."""
    f = FiniteField.of_order(q)
    add = [list(row) for row in f._add]
    mul = [list(row) for row in f._mul]
    a, b, c = 2, 3, q - 1
    swapped = [row[:] for row in mul]  # two entries of row a swapped
    swapped[a][b], swapped[a][c] = mul[a][c], mul[a][b]
    mirrored = [row[:] for row in swapped]  # and their mirrors, so * still commutes
    mirrored[b][a], mirrored[c][a] = mul[c][a], mul[b][a]
    changed = [row[:] for row in add]  # one sum replaced by another of its row
    changed[a][b] = add[a][c]
    s = list(range(q))  # relabel 2 <-> 3: (F, *) stays a monoid with cyclic units
    s[2], s[3] = 3, 2
    relabelled = [[s[mul[s[x]][s[y]]] for y in range(q)] for x in range(q)]
    return [
        ("mul row", add, swapped),
        ("mul mirrored", add, mirrored),
        ("mul relabelled", add, relabelled),
        ("add entry", changed, mul),
    ]


@pytest.mark.parametrize("q", [8, 9])
def test_field_check_rejects_broken_tables(q):
    f = FiniteField.of_order(q)
    for what, add, mul in broken_tables(q):
        assert not satisfies_field_axioms(q, add, mul), what
        with pytest.raises(ValueError, match=f"GF\\({q}\\)"):
            _check_field(q, f.p, f.e, add, mul)


# -------------------------------------------------------------- latin squares


def test_latin_square_validation():
    LatinSquare([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        LatinSquare([[1, 2], [1, 2]])  # bad column
    with pytest.raises(ValueError):
        LatinSquare([[1, 1], [2, 2]])  # bad row
    with pytest.raises(ValueError, match=r"^row \(3,\) is not a permutation of 1\.\.3$"):
        LatinSquare([[1, 2, 3], [3], [2, 3, 1]])  # ragged
    with pytest.raises(ValueError, match=r"^row \(1, 2, 3, 4\) is not a permutation of 1\.\.3$"):
        LatinSquare([[1, 2, 3, 4], [2, 3, 1], [3, 1, 2]])  # too long
    with pytest.raises(ValueError, match=r"^row \(2, 2, 1\) is not a permutation of 1\.\.3$"):
        LatinSquare([[1, 2, 3], [2, 2, 1], [3, 1, 2]])  # repeated symbol in a row
    with pytest.raises(ValueError, match=r"^column 2 is not a permutation of 1\.\.3$"):
        LatinSquare([[1, 2, 3], [2, 3, 1], [3, 2, 1]])  # repeated symbol in a column


def test_cyclic_square():
    for n in [1, 2, 3, 5, 6, 10]:
        sq = cyclic_square(n)
        assert sq.n == n
    assert cyclic_square(3).rows == ((1, 2, 3), (3, 1, 2), (2, 3, 1))


def test_symbol_partition():
    sq = cyclic_square(4)
    part = sq.symbol_partition()
    assert part.n == 16
    assert len(part.blocks) == 4
    for block in part.blocks:
        assert len(block) == 4
        rows = {c // 4 for c in block}
        cols = {c % 4 for c in block}
        assert len(rows) == 4 and len(cols) == 4  # each block is a transversal


def test_mols_complete():
    for q in [3, 4, 5, 7, 8, 9]:
        squares = mols_complete(q)
        assert len(squares) == q - 1
        for a, b in itertools.combinations(squares, 2):
            assert are_orthogonal(a, b)


def test_are_orthogonal_negative():
    sq = cyclic_square(4)
    assert not are_orthogonal(sq, sq)
    with pytest.raises(ValueError):
        are_orthogonal(cyclic_square(3), cyclic_square(4))


# ---------------------------------------------------------- orthogonal arrays


def test_oa_from_mols_trivial():
    oa = oa_from_mols([], n=4)
    assert oa.k == 2 and oa.n == 4
    assert oa_graph(oa) == square_lattice(4)


def test_oa_from_mols_with_squares():
    oa = oa_from_mols(mols_complete(5)[:1])
    assert oa.k == 3
    g = oa_graph(oa)
    assert g.n == 25
    assert g.degree_sequence() == (12,) * 25
    full = oa_from_mols(mols_complete(4))
    assert full.k == 5  # complete: rows can pairwise carry every symbol pair


def test_oa_validation():
    with pytest.raises(ValueError):
        OrthogonalArray(2, [(1, 1, 2, 2), (1, 1, 2, 2)])  # repeated pairs
    with pytest.raises(ValueError):
        OrthogonalArray(2, [(1, 1, 2, 2), (1, 2, 1)])  # wrong length
    with pytest.raises(ValueError):
        OrthogonalArray(2, [(1, 1, 1, 2), (1, 2, 1, 2)])  # symbol counts off
    oa = OrthogonalArray(2, [(1, 1, 2, 2), (1, 2, 1, 2)])
    assert oa.columns == 4


def test_oa_extendible_small():
    oa = oa_from_mols([], n=3)
    row = oa_extendible(oa)
    assert row is not None
    extended = oa.with_row(row)
    assert extended.k == 3
    # the new row is a latin square in disguise
    square = LatinSquare([list(row[i * 3 : (i + 1) * 3]) for i in range(3)])
    assert square.n == 3


def test_oa_extendible_rejects_complete_array():
    full = oa_from_mols(mols_complete(4))
    assert oa_extendible(full) is None


def test_oa_extendible_order_six_trivial_step():
    # two constraints always extend to three: any latin square of order 6 works
    oa = oa_from_mols([], n=6)
    row = oa_extendible(oa)
    assert row is not None
    oa.with_row(row)


def test_oa_not_extendible_from_cyclic_six():
    # the cyclic square of order 6 has no orthogonal mate
    oa = oa_from_mols([cyclic_square(6)])
    assert oa.k == 3
    assert oa_extendible(oa) is None


def test_oa_extendible_deterministic():
    oa = oa_from_mols([], n=4)
    assert oa_extendible(oa) == oa_extendible(oa)


def test_max_mols_available():
    assert max_mols_available(7) == 6
    assert max_mols_available(8) == 7
    assert max_mols_available(9) == 8
    for bad in [6, 10, 1]:
        with pytest.raises(UnsupportedParameterError):
            max_mols_available(bad)


# ------------------------------------------------------------- paley crossing


def test_paley_graphs():
    assert are_isomorphic(paley(5), cycle(5))
    assert are_isomorphic(paley(9), square_lattice(3))
    p13 = paley(13)
    assert p13.degree_sequence() == (6,) * 13
    with pytest.raises(UnsupportedParameterError):
        paley(7)  # 3 mod 4
