import pytest

from hankelrise import ring
from hankelrise.matgen import MatrixQuery, SquareMatrix, build
from hankelrise.ring import integer
from hankelrise.sequence import preset, symbolic_spec


def test_rising_matrix_entries():
    mat = build(preset("fibonacci"), MatrixQuery(n=0, r=1, d=3))
    assert [[e.value for e in row] for row in mat.rows] == [
        [0, 1, 1],
        [1, 1, 2],
        [1, 2, 3],
    ]


def test_rising_matrix_r2():
    mat = build(preset("fibonacci"), MatrixQuery(n=1, r=2, d=2))
    # entries are F_{n+i+j} * F_{n+i+j+1}
    assert [[e.value for e in row] for row in mat.rows] == [[1 * 1, 1 * 2], [1 * 2, 2 * 3]]


def test_power_matrix():
    mat = build(preset("fibonacci"), MatrixQuery(n=0, r=2, d=3, mode="power"))
    assert [[e.value for e in row] for row in mat.rows] == [
        [0, 1, 1],
        [1, 1, 4],
        [1, 4, 9],
    ]
    ones = build(preset("fibonacci"), MatrixQuery(n=0, r=0, d=2, mode="power"))
    assert [[e.value for e in row] for row in ones.rows] == [[1, 1], [1, 1]]


def test_hankel_structure():
    mat = build(preset("lucas"), MatrixQuery(n=-2, r=3, d=4))
    for i in range(4):
        for j in range(4):
            assert mat.entry(i, j) == mat.entry(j, i)
    for i in range(3):
        for j in range(3):
            assert mat.entry(i + 1, j) == mat.entry(i, j + 1)


def test_symbolic_entries():
    mat = build(symbolic_spec(), MatrixQuery(n=0, r=1, d=2))
    assert str(mat.entry(0, 0)) == "a"
    assert str(mat.entry(1, 1)) == "c1*b + c2*a"


def test_query_validation():
    with pytest.raises(ValueError):
        MatrixQuery(n=0, r=-1, d=2)
    with pytest.raises(ValueError):
        MatrixQuery(n=0, r=1, d=0)
    with pytest.raises(ValueError):
        MatrixQuery(n=0, r=1, d=2, mode="log")


def test_square_matrix_validation():
    with pytest.raises(ValueError):
        SquareMatrix([[integer(1), integer(2)]])
    with pytest.raises(ValueError):
        SquareMatrix([[integer(1), ring.rational(1, 2)], [integer(0), integer(1)]])
    with pytest.raises(ValueError):
        SquareMatrix([])


def test_submatrix_helpers():
    mat = SquareMatrix([[integer(v) for v in row] for row in ((1, 2, 3), (4, 5, 6), (7, 8, 9))])
    dropped = mat.drop_row_col(1, 1)
    assert [[e.value for e in row] for row in dropped.rows] == [[1, 3], [7, 9]]
    assert dropped == SquareMatrix([[integer(v) for v in row] for row in ((1, 3), (7, 9))])
    assert dropped != mat and dropped != dropped.rows
    inner = mat.interior()
    assert [[e.value for e in row] for row in inner.rows] == [[5]]
    with pytest.raises(ValueError):
        dropped.interior()


def test_poly_and_matrix_reprs():
    assert repr(ring.Poly.variable("a")) == "Poly(a)"
    matrix = SquareMatrix([[integer(v) for v in row] for row in ((1, 2), (2, 3))])
    assert repr(matrix) == "SquareMatrix[1, 2; 2, 3]"
