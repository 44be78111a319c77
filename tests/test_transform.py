"""Transformation and Partition basics.

Expected values come from independent oracles: pointwise function application
for composition, preimage grouping for kernels, block containment for
refinement. The 4-point pair [3,3,4,3], [3,3,2,4] is the running example used
throughout the suite.
"""

import random

import pytest

from kernelgraphs.errors import ParseError
from kernelgraphs.transform import (
    Partition,
    Transformation,
    compose,
    parse_transformation_lines,
)


def oracle_compose(f, g):
    # apply f, then g, one point at a time
    return tuple(g.images[f.images[x]] for x in range(f.n))


def oracle_kernel(t):
    blocks = {}
    for x in range(t.n):
        blocks.setdefault(t.images[x], []).append(x)
    return {frozenset(b) for b in blocks.values()}


def test_parse_format_round_trip():
    t = Transformation.parse("[3,3,4,3]")
    assert t.images == (2, 2, 3, 2)
    assert str(t) == "[3,3,4,3]"
    assert Transformation.parse(str(t)) == t


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError):
        Transformation.parse("[1,5,2,3]")
    with pytest.raises(ParseError):
        Transformation.parse("[0,1,2]")
    with pytest.raises(ParseError):
        Transformation.parse("1,2,3")


def test_parse_error_column_points_at_the_bad_entry():
    cases = {
        "[1,,2]": 4,  # the delimiter ending the empty entry
        "[1,2,]": 6,
        "[2, x]": 5,  # the entry's first non-blank character
        "  [1, 2,y]": 9,
        "[1,  ,2]": 6,
        "[0,1]": 2,  # image values outside 1..n
        "[1,5]": 4,
        "  [1, 9]": 7,
    }
    for text, column in cases.items():
        with pytest.raises(ParseError) as info:
            Transformation.parse(text, line=3)
        assert (info.value.line, info.value.column) == (3, column), text
    assert Transformation.parse(" [ 2 , 1 ] ").images == (1, 0)


def test_compose_worked_example():
    t1 = Transformation.parse("[3,3,4,3]")
    t2 = Transformation.parse("[3,3,2,4]")
    # apply t1 then t2: 1->3->2, 2->3->2, 3->4->4, 4->3->2
    assert str(t1 * t2) == "[2,2,4,2]"
    assert (t1 * t2).images == oracle_compose(t1, t2)


def test_compose_random_against_pointwise_oracle():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 9)
        f = Transformation([rng.randrange(n) for _ in range(n)])
        g = Transformation([rng.randrange(n) for _ in range(n)])
        assert (f * g).images == oracle_compose(f, g)


def test_compose_associative():
    rng = random.Random(102)
    for _ in range(200):
        n = rng.randint(1, 8)
        f, g, h = (Transformation([rng.randrange(n) for _ in range(n)]) for _ in range(3))
        assert (f * g) * h == f * (g * h)


def test_identity_neutral():
    rng = random.Random(103)
    for _ in range(50):
        n = rng.randint(1, 8)
        f = Transformation([rng.randrange(n) for _ in range(n)])
        e = Transformation.identity(n)
        assert e * f == f
        assert f * e == f


def test_kernel_worked_example():
    t1 = Transformation.parse("[3,3,4,3]")
    assert str(t1.kernel()) == "{{1,2,4},{3}}"
    t2 = Transformation.parse("[3,3,2,4]")
    assert str(t2.kernel()) == "{{1,2},{3},{4}}"


def test_kernel_matches_preimage_grouping_oracle():
    rng = random.Random(104)
    for _ in range(300):
        n = rng.randint(1, 9)
        t = Transformation([rng.randrange(n) for _ in range(n)])
        got = {frozenset(b) for b in t.kernel().blocks}
        assert got == oracle_kernel(t)


def test_rank_and_flags():
    t = Transformation.parse("[3,3,4,3]")
    assert t.rank == 2
    # idempotent: fixes its image pointwise
    assert Transformation.parse("[1,1,3,3]").is_idempotent()
    assert not Transformation.parse("[2,1,1]").is_idempotent()


def test_rank_multiplicative_drop():
    # rank can only decrease along composition
    rng = random.Random(105)
    for _ in range(200):
        n = rng.randint(1, 8)
        f = Transformation([rng.randrange(n) for _ in range(n)])
        g = Transformation([rng.randrange(n) for _ in range(n)])
        assert (f * g).rank <= min(f.rank, g.rank)


def test_partition_normalization_and_equality():
    p = Partition([(3,), (0, 1), (2,)])
    q = Partition([(1, 0), (2,), (3,)])
    assert p == q
    assert hash(p) == hash(q)
    assert p.blocks == ((0, 1), (2,), (3,))


def test_partition_parse_format():
    p = Partition.parse("{{1,2,4},{3}}")
    assert p.blocks == ((0, 1, 3), (2,))
    assert str(p) == "{{1,2,4},{3}}"
    with pytest.raises(ParseError):
        Partition.parse("{{1,2},{2,3}}")
    with pytest.raises(ParseError):
        Partition.parse("{1,2}")
    cases = {
        "{{1,2}{3}}": 7,
        "{{1},,{2}}": 6,
        "{{1},x{2}}": 6,
        "  {{1,2}{3}}": 9,
        "{{1, 2,y}}": 8,  # the entry's first non-blank character
        "  {{1},{2,z}}": 11,
        "{{1},{}}": 7,  # the delimiter ending the empty entry
        "{{1,,2}}": 5,
        "  {{1,2}": 8,  # the closing braces are checked at the end of the text
        "  {1,2}}": 4,  # the second opening brace
        "  1,2}}": 3,
    }
    for text, column in cases.items():
        with pytest.raises(ParseError) as info:
            Partition.parse(text)
        assert info.value.column == column, text
    with pytest.raises(ParseError, match=r"cover 1\.\.3 \(missing \[3\]\)"):
        Partition.parse("{{1,2},{4}}")


def test_refines_worked_example():
    fine = Partition.parse("{{1,2},{3},{4}}")
    coarse = Partition.parse("{{1,2,4},{3}}")
    assert fine.refines(coarse)
    assert not coarse.refines(fine)


def test_refines_matches_block_containment_oracle():
    rng = random.Random(106)

    def random_partition(n):
        labels = [rng.randrange(n) for _ in range(n)]
        blocks = {}
        for x, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(x)
        return Partition(blocks.values(), n=n)

    for _ in range(300):
        n = rng.randint(1, 8)
        p, q = random_partition(n), random_partition(n)
        expected = all(
            any(set(bp) <= set(bq) for bq in q.blocks) for bp in p.blocks
        )
        assert p.refines(q) == expected


def test_kernel_refinement_under_composition():
    # kernel(f) always refines kernel(f * g)
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(2, 8)
        f = Transformation([rng.randrange(n) for _ in range(n)])
        g = Transformation([rng.randrange(n) for _ in range(n)])
        assert f.kernel().refines((f * g).kernel())


def test_partition_as_transformation_round_trip():
    p = Partition.parse("{{1,2,4},{3}}")
    t = p.as_transformation()
    assert t.is_idempotent()
    assert t.kernel() == p


def test_parse_transformation_lines():
    ts = parse_transformation_lines(["# generators", "[3,3,4,3]", "", "[3,3,2,4]"])
    assert [str(t) for t in ts] == ["[3,3,4,3]", "[3,3,2,4]"]
    with pytest.raises(ParseError) as err:
        parse_transformation_lines(["[1,2]", "[1,2,3]"])
    assert err.value.line == 2


def test_parse_transformation_lines_columns_count_from_the_line_start():
    cases = {
        ("[1,2]", "    [1,x]"): (2, 8),
        ("\t[1,9]",): (1, 5),  # a tab is one column
        ("  1,2]\n",): (1, 3),  # the missing opening bracket
        ("[2,1]\r\n", "  [1,2  "): (2, 6),  # the last character before the missing "]"
        (" [ ] ",): (1, 3),
    }
    for lines, where in cases.items():
        with pytest.raises(ParseError) as err:
            parse_transformation_lines(lines)
        assert (err.value.line, err.value.column) == where, lines


def test_products_are_checked_at_the_boundary_only():
    # the constructor and compose still refuse bad or mismatched input
    for bad in ([], [0, 2], [-1, 0], ["x", 0]):
        with pytest.raises(ValueError):
            Transformation(bad)
    with pytest.raises(ValueError):
        compose(Transformation([0, 1]), Transformation([0, 1, 2]))
    with pytest.raises(ValueError):
        Transformation([1, 0]) * Transformation([0, 0, 0])
    # the unchecked products equal the pointwise oracle and stay plain int tuples
    rng = random.Random(104)
    for _ in range(200):
        n = rng.randint(1, 7)
        f = Transformation([rng.randrange(n) for _ in range(n)])
        g = Transformation([rng.randrange(n) for _ in range(n)])
        for product in (f * g, compose(f, g)):
            assert type(product.images) is tuple and product.images == oracle_compose(f, g)
            assert Transformation(product.images) == product
            assert hash(product) == hash(Transformation(product.images))
        k = rng.randint(1, 5)
        power = f
        for _ in range(k - 1):
            power = Transformation(oracle_compose(power, f))
        assert f.power(k) == power
