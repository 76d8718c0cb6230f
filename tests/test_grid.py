import numpy as np
import pytest

from irrev import BC, Grid, norm_h1
from irrev.grid import forward_jumps, full_values, laplacian_diagonals

from reference import grad_inner, inner_l2, neg_laplacian

BC_COMBOS = [("dirichlet", "dirichlet"), ("dirichlet", "neumann"),
             ("neumann", "dirichlet"), ("neumann", "neumann")]


def test_grid_geometry():
    g = Grid(0.0, 1.0, 3)
    assert g.h == pytest.approx(0.25)
    np.testing.assert_allclose(g.nodes, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(g.nodes_full, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > g.a and g.nodes[-1] < g.b


def test_full_nodes_end_exactly_at_the_endpoints():
    # a + (n+1)*h misses b on 432 of these grids, n = 48 on [-1, 1] among them
    for a, b in ((0.0, 1.0), (-1.0, 1.0)):
        for n in range(1, 2001):
            g = Grid(a, b, n)
            full = g.nodes_full
            assert full[0] == a and full[-1] == b, (a, b, n)
            assert full[1:-1].tobytes() == g.nodes.tobytes(), (a, b, n)


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 3)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0)


def test_neg_laplacian_zero():
    g = Grid(0.0, 1.0, 5)
    w = neg_laplacian(g, np.zeros(5))
    np.testing.assert_array_equal(w, np.zeros(5))


def test_neg_laplacian_scalar_stencil():
    # n=1, Dirichlet ends, h=1: (-0 + 2*1 - 0)/1
    g = Grid(0.0, 2.0, 1)
    w = neg_laplacian(g, [1.0])
    assert w[0] == pytest.approx(2.0, abs=1e-15)


def test_neg_laplacian_mirror_stencil():
    # constant field: interior rows vanish, the Dirichlet end sees the ghost 0
    g = Grid(0.0, 1.0, 3, BC.NEUMANN, BC.DIRICHLET)
    w = neg_laplacian(g, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(w, [0.0, 0.0, 1.0 / g.h ** 2], atol=1e-12)


def test_inner_l2_values():
    g = Grid(0.0, 1.0, 5)
    assert inner_l2(g, np.zeros(5), np.ones(5)) == 0.0
    g4 = Grid(0.0, 2.5, 4)  # h = 0.5
    assert inner_l2(g4, np.ones(4), np.ones(4)) == pytest.approx(2.0)
    g2 = Grid(0.0, 3.0, 2)  # h = 1
    assert inner_l2(g2, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)


def test_norm_h1_values():
    g = Grid(0.0, 2.0, 1)  # h = 1
    assert norm_h1(g, [0.0]) == 0.0
    # two unit jumps plus the unit nodal value
    assert norm_h1(g, [1.0]) == pytest.approx(np.sqrt(3.0))


@pytest.mark.parametrize("bcs", BC_COMBOS)
def test_norm_h1_homogeneity(bcs):
    rng = np.random.default_rng(7)
    g = Grid(0.0, 1.3, 9, *bcs)
    u = rng.normal(size=9)
    assert norm_h1(g, 2.5 * u) == pytest.approx(2.5 * norm_h1(g, u), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 41])
@pytest.mark.parametrize("bcs", BC_COMBOS)
def test_norm_h1_of_a_stack_equals_its_rows(bcs, n):
    g = Grid(0.0, 1.3, n, *bcs)
    u = np.random.default_rng(n).normal(size=(6, 2 * n))
    # contiguous rows, then every other column: rows that are strided views
    for rows in (u[:, :n], u[:, ::2]):
        np.testing.assert_array_equal(norm_h1(g, rows),
                                      [norm_h1(g, rows[k]) for k in range(6)])
    assert type(norm_h1(g, u[0, :n])) is float


@pytest.mark.parametrize("bcs", BC_COMBOS)
def test_operator_symmetry(bcs):
    rng = np.random.default_rng(11)
    g = Grid(-0.4, 1.0, 13, *bcs)
    for _ in range(20):
        u = rng.normal(size=13)
        v = rng.normal(size=13)
        lhs = inner_l2(g, neg_laplacian(g, u), v)
        rhs = inner_l2(g, u, neg_laplacian(g, v))
        bound = 1e-12 * max(norm_h1(g, u) * norm_h1(g, v), 1.0)
        assert abs(lhs - rhs) <= bound


@pytest.mark.parametrize("bcs", BC_COMBOS)
def test_operator_positive_semidefinite(bcs):
    rng = np.random.default_rng(3)
    g = Grid(0.0, 1.0, 10, *bcs)
    for _ in range(20):
        u = rng.normal(size=10)
        q = inner_l2(g, neg_laplacian(g, u), u)
        assert q >= -1e-12
        if BC.DIRICHLET in (g.bc_left, g.bc_right):
            assert q > 0.0


@pytest.mark.parametrize("bcs", BC_COMBOS)
def test_summation_by_parts(bcs):
    # the Dirichlet form of the jumps equals the operator pairing exactly
    rng = np.random.default_rng(5)
    g = Grid(0.0, 0.9, 11, *bcs)
    for _ in range(10):
        u = rng.normal(size=11)
        v = rng.normal(size=11)
        assert grad_inner(g, u, v) == pytest.approx(
            inner_l2(g, neg_laplacian(g, u), v), abs=1e-10)


def test_diagonals_are_built_once_per_grid_and_read_only():
    g = Grid(0.0, 1.0, 8, BC.NEUMANN, BC.DIRICHLET)
    first = laplacian_diagonals(g)
    again = laplacian_diagonals(Grid(0.0, 1.0, 8, BC.NEUMANN, BC.DIRICHLET))
    assert all(a is b for a, b in zip(first, again))
    for band in first:
        with pytest.raises(ValueError):
            band[0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("bcs", BC_COMBOS)
def test_diagonals_match_operator(bcs, n):
    rng = np.random.default_rng(17)
    g = Grid(0.0, 1.0, n, *bcs)
    sub, diag, sup = laplacian_diagonals(g)
    u = rng.normal(size=n)
    w = diag * u
    if n > 1:
        w[:-1] += sup * u[1:]
        w[1:] += sub * u[:-1]
    np.testing.assert_allclose(w, neg_laplacian(g, u), rtol=1e-14, atol=1e-14)


def test_rayleigh_quotient_second_order():
    # discrete sine mode on [0,1]: quotient -> pi^2 at O(h^2)
    errors = []
    for n in (25, 51, 103):
        g = Grid(0.0, 1.0, n)
        u = np.sin(np.pi * g.nodes)
        q = inner_l2(g, neg_laplacian(g, u), u) / inner_l2(g, u, u)
        errors.append(abs(q - np.pi ** 2))
    # n -> 2n+1 doubles the resolution: error ratio ~ 4
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)
    assert errors[-1] < 1e-2


def test_neumann_jumps_vanish_at_end():
    g = Grid(0.0, 1.0, 4, BC.NEUMANN, BC.DIRICHLET)
    d = forward_jumps(g, [1.0, 2.0, 3.0, 4.0])
    assert d.shape == (5,)
    assert d[0] == 0.0                      # mirror ghost
    assert d[-1] == pytest.approx(-4.0 / g.h)  # zero ghost


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("bcs", BC_COMBOS)
def test_full_values_of_a_stack_equals_its_rows(bcs, n):
    g = Grid(0.0, 1.0, n, *bcs)
    u = np.random.default_rng(5).normal(size=(4, n))
    np.testing.assert_array_equal(full_values(g, u),
                                  np.array([full_values(g, row) for row in u]))
    with pytest.raises(ValueError):
        full_values(g, np.zeros((4, n + 1)))
