import tracemalloc

import numpy as np
import pytest

from rcsurf import expr, scenes
from rcsurf.errors import DegenerateParameterization, NotIsothermal, OutsideChart
from rcsurf.surface import Surface, cross_metric_batch, induced_connection, isothermal_factor

import fd_oracles
from ambient_oracle import tangent_frame
from test_ambient import identity_frame
from rcsurf import ambient as ambient_mod


def euclidean_ambient():
    return ambient_mod.frame_ambient(identity_frame())


def exact_K(surf, U, V):
    """Surface.intrinsic_curvature at U, V, with the composition table
    d_gammaS evaluated there."""
    U, V = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (U, V))
    base = surf.base_fields(U, V)
    d_gammaS = surf.composition_at(U, V, ("d_gammaS",))["d_gammaS"]
    return surf.intrinsic_curvature(base, d_gammaS)


def sample(surf, u, v):
    """base_fields at one (u, v): a batch of one."""
    return {k: a[0] for k, a in surf.base_fields([u], [v]).items()}


def test_euclidean_plane_sample():
    sc = scenes.builtin("euclidean_plane")
    b = sc.surface.base_fields([0.3], [0.6])
    s = {k: a[0] for k, a in b.items()}
    assert np.allclose(s["N"], [0, 0, 1], atol=1e-15)
    assert np.allclose(s["G_S"], np.eye(2), atol=1e-15)
    assert np.allclose(cross_metric_batch(b["g"], b["N"], b["Xu"])[0], s["Xv"], atol=1e-15)
    assert np.allclose(cross_metric_batch(b["g"], b["N"], b["Xv"])[0], -s["Xu"], atol=1e-15)
    assert s["area"] == pytest.approx(1.0)
    assert np.max(np.abs(induced_connection(b))) == 0.0


def test_round_sphere_chart():
    sc = scenes.builtin("round_sphere_standard")
    for (th, ph) in [(0.4, 1.0), (1.2, 4.2), (2.8, 0.3)]:
        s = sample(sc.surface, th, ph)
        assert s["area"] == pytest.approx(np.sin(th), rel=1e-12)
        # outward radial normal
        assert np.allclose(s["N"], s["p"], atol=1e-12)


def test_catenoid_frame_plane_normal_is_d3():
    sc = scenes.builtin("catenoid_frame_plane")
    s = sample(sc.surface, 1.0, 0.5)
    assert np.allclose(s["N"], [0, 0, 1], atol=1e-14)


def test_normal_is_unit_and_orthogonal(rng):
    for name in ("catenoid_frame_cylinder", "torus_standard", "cartan_schouten_sphere"):
        sc = scenes.builtin(name)
        g = scenes.make_grid(sc, 12, 12)
        b = g.base
        nn = np.einsum("nab,na,nb->n", b["g"], b["N"], b["N"])
        assert np.max(np.abs(nn - 1.0)) <= 1e-10
        for t in ("Xu", "Xv"):
            dot = np.einsum("nab,na,nb->n", b["g"], b["N"], b[t])
            assert np.max(np.abs(dot)) <= 1e-10


def test_orthonormal_tangent_frame(rng):
    sc = scenes.builtin("torus_standard")
    g = scenes.make_grid(sc, 10, 10)
    b = g.base
    e = dict(zip(("E1bar", "E2bar"), tangent_frame(b)))
    for va, vb, want in (("E1bar", "E1bar", 1.0), ("E2bar", "E2bar", 1.0),
                         ("E1bar", "E2bar", 0.0)):
        dot = np.einsum("nab,na,nb->n", b["g"], e[va], e[vb])
        assert np.max(np.abs(dot - want)) <= 1e-12
    # J maps E1bar to E2bar and E2bar to -E1bar
    J1 = cross_metric_batch(b["g"], b["N"], e["E1bar"])
    J2 = cross_metric_batch(b["g"], b["N"], e["E2bar"])
    assert np.max(np.abs(J1 - e["E2bar"])) <= 1e-10
    assert np.max(np.abs(J2 + e["E1bar"])) <= 1e-10


def test_oriented_triple(rng):
    # det[E1bar | E2bar | N] scaled by sqrt(det g) is +1
    for name in ("catenoid_frame_plane", "round_sphere_standard", "torus_standard"):
        sc = scenes.builtin(name)
        g = scenes.make_grid(sc, 8, 8)
        b = g.base
        M = np.stack([*tangent_frame(b), b["N"]], axis=-1)
        vol = np.sqrt(np.linalg.det(b["g"])) * np.linalg.det(M)
        assert np.max(np.abs(vol - 1.0)) <= 1e-10


def test_j_squared_is_minus_identity():
    sc = scenes.builtin("catenoid_frame_cylinder")
    g = scenes.make_grid(sc, 10, 10)
    b = g.base
    JXu = cross_metric_batch(b["g"], b["N"], b["Xu"])
    JJXu = cross_metric_batch(b["g"], b["N"], JXu)
    assert np.max(np.abs(JJXu + b["Xu"])) <= 1e-10


def test_induced_connection_metric_compatible():
    # FD oracle: d_a (G_S)_bc = GammaS^d_ab (G_S)_dc + GammaS^d_ac (G_S)_bd
    sc = scenes.builtin("cartan_schouten_sphere", lam=0.4)
    surf = sc.surface
    g = scenes.make_grid(sc, 10, 10)
    U, V = g.U[g.interior_mask], g.V[g.interior_mask]
    b = surf.base_fields(U, V)
    h = 1e-6
    GS = lambda uu, vv: surf.base_fields(uu, vv)["G_S"]
    dG = np.stack([
        (GS(U + h, V) - GS(U - h, V)) / (2 * h),
        (GS(U, V + h) - GS(U, V - h)) / (2 * h),
    ], axis=1)                                        # (n, a, b, c)
    gS, gamS = b["G_S"], induced_connection(b)
    t1 = np.einsum("ndab,ndc->nabc", gamS, gS)
    t2 = np.einsum("ndac,nbd->nabc", gamS, gS)
    res = dG - t1 - t2
    assert np.max(np.abs(res)) <= 1e-6


def test_induced_torsion_is_tangential_ambient_torsion():
    # (GammaS^c_uv - GammaS^c_vu) X_c = ambient T(Xu, Xv) - tau N
    for name in ("catenoid_frame_plane", "cartan_schouten_sphere"):
        sc = scenes.builtin(name)
        g = scenes.make_grid(sc, 10, 10)
        b = g.base
        gam = induced_connection(b)
        lhs = ((gam[:, 0, 0, 1] - gam[:, 0, 1, 0])[:, None] * b["Xu"]
               + (gam[:, 1, 0, 1] - gam[:, 1, 1, 0])[:, None] * b["Xv"])
        assert np.max(np.abs(lhs - b["T_S"])) <= 1e-8


def test_isothermal_factor_euclidean_plane():
    sc = scenes.builtin("euclidean_plane")
    lam = isothermal_factor(sc.surface.base_fields([0.5], [0.5]))
    assert lam[0] == pytest.approx(1.0)


def test_isothermal_factor_actual_catenoid():
    # catenoid in the standard Euclidean frame: E = G = cosh(v)^2, F = 0
    amb = euclidean_ambient()
    X = [expr.parse(t, {"u", "v"}) for t in
         ("cosh(v)*cos(u)", "cosh(v)*sin(u)", "v")]
    surf = Surface(amb, X, ((0.0, 2 * np.pi), (-1.5, 1.5)), (True, False), True)
    for (u, v) in [(0.3, 0.2), (2.0, -1.0)]:
        lam = isothermal_factor(surf.base_fields([u], [v]))
        assert lam[0] == pytest.approx(np.cosh(v), rel=1e-12)


def test_isothermal_rejects_round_sphere():
    sc = scenes.builtin("round_sphere_standard")
    with pytest.raises(NotIsothermal) as err:
        isothermal_factor(sc.surface.base_fields([1.0], [2.0]))
    assert err.value.E == pytest.approx(1.0)


def test_intrinsic_curvature_plane_zero():
    sc = scenes.builtin("euclidean_plane")
    K = exact_K(sc.surface, [0.4], [0.5])
    assert abs(K[0]) <= 1e-12


def test_intrinsic_curvature_cartan_schouten_sphere():
    sc = scenes.builtin("cartan_schouten_sphere", lam=1.0)
    g = scenes.make_grid(sc, 12, 12)
    K = exact_K(sc.surface, g.U[g.interior_mask], g.V[g.interior_mask])
    assert np.max(np.abs(K - 1.0)) <= 1e-4


def test_degenerate_parameterization_raises():
    amb = euclidean_ambient()
    X = [expr.parse(t, {"u", "v"}) for t in ("u", "u", "0")]
    surf = Surface(amb, X, ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(DegenerateParameterization):
        sample(surf, 0.5, 0.5)


def test_base_fields_outside_chart_raises():
    # the ambient chart domain holds on every sample of the batch path
    amb = ambient_mod.frame_ambient(identity_frame(), chart_domain={"x": (-1.0, 1.0)})
    X = [expr.parse(t, {"u", "v"}) for t in ("u", "v", "0")]
    surf = Surface(amb, X, ((0.0, 3.0), (0.0, 1.0)))
    surf.base_fields([0.2, 0.9], [0.5, 0.5])
    with pytest.raises(OutsideChart, match="chart_domain.x"):
        surf.base_fields([0.2, 3.0], [0.5, 0.5])


def test_exact_curvature_at_boundary_sample():
    # u = 0 is the edge of a non-periodic axis: exact K needs no stencil
    sc = scenes.builtin("euclidean_plane")
    K = exact_K(sc.surface, [0.0], [0.5])
    assert K[0] == 0.0


@pytest.mark.parametrize("name", scenes.builtin_names())
def test_exact_curvature_matches_fd_oracle(name):
    sc = scenes.builtin(name)
    g = scenes.make_grid(sc, 12, 12)
    m = g.interior_mask
    oracle = fd_oracles.intrinsic_curvature(sc.surface, g.U[m], g.V[m])
    assert np.max(np.abs(g.intrinsic_K[m] - oracle)) <= 1e-9


def test_periodic_axis_wraps_stencils():
    # u = 0 sits on the periodic seam of the catenoid-frame plane; fine
    sc = scenes.builtin("catenoid_frame_plane")
    K = exact_K(sc.surface, [0.0], [0.3])
    assert abs(K[0] + 1 / np.cosh(0.3) ** 2) <= 1e-5


def test_grid_parallel_determinism():
    sc = scenes.builtin("torus_standard")
    g1 = scenes.make_grid(sc, 12, 12)
    g2 = scenes.make_grid(sc, 12, 12)
    assert np.array_equal(g1.base["N"], g2.base["N"])
    assert np.array_equal(g1.ext["bold_H"], g2.ext["bold_H"])


def test_curvature_block_repeats_no_chart_or_frame_check(monkeypatch):
    """curvature_fields evaluates dGamma at the points base_fields already
    checked: building it runs neither the chart nor the frame check."""
    sc = scenes.builtin("catenoid_frame_cylinder")
    g = scenes.make_grid(sc, 8, 8)
    g.base
    calls = []
    for name in ("_check_inside", "check_frame"):
        monkeypatch.setattr(ambient_mod.Ambient, name,
                            lambda self, bindings, name=name: calls.append(name))
    assert np.all(np.isfinite(g.curvature["r4"]))
    assert calls == []


def curvature_from(G, D, g):
    """(rm, r4) from stacked Gamma, dGamma and g as four einsum terms summed
    in one expression: the reference the curvature block is checked
    against."""
    term1 = D.transpose(0, 2, 4, 1, 3)
    term2 = D.transpose(0, 2, 4, 3, 1)
    term3 = np.einsum("nlim,nmjk->nlkij", G, G)
    term4 = np.einsum("nljm,nmik->nlkij", G, G)
    rm = term1 - term2 + term3 - term4
    return rm, np.einsum("nlkij,nlm->nijkm", rm, g)


@pytest.mark.parametrize("name", scenes.builtin_names())
def test_curvature_block_equals_four_term_formula(name):
    """The block holds r4 and r_uvvu only, bit for bit those of the
    four-term formula, and Ambient.curvature_at gives its rm at the same
    points bit for bit."""
    sc = scenes.builtin(name)
    g = scenes.make_grid(sc, 12, 12)
    base, amb = g.base, sc.ambient
    pb = amb.bindings(base["p"])
    rm, r4 = curvature_from(base["gamma"], expr.eval_table(amb.dgamma, pb), base["g"])
    Xu, Xv = base["Xu"], base["Xv"]
    r_uvvu = np.einsum("nijkm,ni,nj,nk,nm->n", r4, Xu, Xv, Xv, Xu)
    assert sorted(g.curvature) == ["r4", "r_uvvu"]
    assert np.array_equal(g.curvature["r4"], r4)
    assert np.array_equal(g.curvature["r_uvvu"], r_uvvu)
    assert np.array_equal(amb.curvature_at(pb)["rm"], rm)


@pytest.mark.parametrize("name", scenes.builtin_names())
def test_base_carries_the_frame(name):
    """In a frame ambient the base block holds the frame and its inverse,
    bit for bit those of a program of their own at the block's points; a
    coefficient ambient's block holds neither."""
    sc = scenes.builtin(name)
    base, amb = scenes.make_grid(sc, 12, 12).base, sc.ambient
    if amb.kind != "frame":
        assert "frame" not in base and "frame_inv" not in base
        return
    pb = amb.bindings(base["p"])
    for key in ("frame", "frame_inv"):
        want = expr.eval_table(getattr(amb, key), pb)
        assert base[key].shape == want.shape and base[key].tobytes() == want.tobytes(), key


@pytest.mark.parametrize("name", ["cartan_schouten_sphere", "rotated_frame_plane"])
def test_curvature_block_working_set(name):
    """Building the curvature block raises the traced memory by at most 2.5
    arrays of 81 doubles per sample: dGamma is dropped once rm is formed
    and rm once it is lowered to r4.  (The intermediates of the dGamma
    program are the expression layer's, bounded by the chunk; on these
    scenes they are small.)"""
    sc = scenes.builtin(name)
    scenes.make_grid(sc, 8, 8).curvature        # compile the programs first
    g = scenes.make_grid(sc, 48, 48)
    g.base
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert np.all(np.isfinite(g.curvature["r4"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 2.5 * 81 * 8 * g.U.size, (peak - held) / (81 * 8 * g.U.size)
