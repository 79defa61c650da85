"""Band frames, projections, commutator inversion and connections."""

import numpy as np
import pytest

from semiband.fields import GaussianField, LinearField, UniformField
from semiband.models import (
    DiracElectric,
    Model,
    NeutrinoMetric,
    PhasePoint,
    TwoLevel,
    BETA,
    make_model,
    random_points,
)
from semiband.frames import (
    BandFrame,
    Tolerances,
    berry_connections,
    classical_frame,
    conjugate,
    connections_fd,
    invert_band_commutator,
    project,
    _align_to,
)
from tests.test_models import p_cross_sigma


def dirac(field=None, e=1.0):
    return DiracElectric(m=1.0, e=e, field=field or UniformField(0.0))


def test_classical_frame_dirac_free():
    model = dirac()
    x = PhasePoint.of([0.1, 0.2, 0.3], [0.4, -0.5, 0.6])
    frame = classical_frame(model, x)
    E = model.energy_scale(x)
    assert np.allclose(frame.eps0, [E, E, -E, -E])
    rot = frame.U0 @ model.hamiltonian(x) @ frame.U0.conj().T
    assert np.allclose(rot, BETA * E, atol=1e-13)


def test_classical_frame_unitarity_tolerance():
    model = dirac()
    x = PhasePoint.of([0.1, 0.2, 0.3], [0.4, -0.5, 0.6])
    eps0, U0 = model.analytic_frame(x)
    model.analytic_frame = lambda _x: (eps0, (1 + 5e-12) * U0)
    with pytest.raises(ValueError, match="unitarity"):
        classical_frame(model, x)
    frame = classical_frame(model, x, Tolerances(unitarity=1e-9))
    assert np.allclose(frame.U0, U0)


def test_classical_frame_neutrino_flat():
    model = NeutrinoMetric(profile=UniformField(1.0))
    frame = classical_frame(model, PhasePoint.of([0, 0, 0], [0, 0, 1]))
    assert np.allclose(frame.eps0, [1, 1, -1, -1])
    rot = frame.U0 @ model.hamiltonian(frame.point) @ frame.U0.conj().T
    assert np.allclose(rot, np.diag([1, 1, -1, -1]), atol=1e-13)


def test_classical_frame_two_level_diagonal():
    model = TwoLevel()
    x = PhasePoint.of([0.2, 0.0, 0.0], [0.0, 0.3, 0.5])
    frame = classical_frame(model, x)
    assert np.allclose(frame.U0, np.eye(2))
    assert frame.eps0[0] > frame.eps0[1]


class _NoFrame(Model):
    """Two-level wrapper that hides the analytic frame (numerical path)."""

    name = "no_frame"
    n = 2
    band_groups = (1, 1)
    groups = np.array([0, 1])

    def __init__(self):
        self.inner = make_model({
            "model": "two_level",
            "h0": [],
            "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
                  [{"coef": "1/5", "r_exp": [0, 1, 0]}],
                  [{"coef": "1"}]],
        })

    def hamiltonian(self, x):
        return self.inner.hamiltonian(x)

    def d_hamiltonian(self, x, axis):
        return self.inner.d_hamiltonian(x, axis)


class _BadGroups(Model):
    """Declares non-degenerate groups for a degenerate Hamiltonian."""

    name = "bad_groups"
    n = 2
    band_groups = (1, 1)
    groups = np.array([0, 1])

    def hamiltonian(self, x):
        return np.eye(2, dtype=complex)

    def d_hamiltonian(self, x, axis):
        return np.zeros((2, 2), dtype=complex)


def test_numerical_frame_matches_spectrum():
    model = _NoFrame()
    x = PhasePoint.of([0.3, -0.2, 0.1], [0.6, 0.4, -0.5])
    frame = classical_frame(model, x)
    vals = np.sort(np.linalg.eigvalsh(model.hamiltonian(x)))
    assert np.allclose(frame.eps0, vals)  # ascending layout
    rot = frame.U0 @ model.hamiltonian(x) @ frame.U0.conj().T
    assert np.max(np.abs(rot - np.diag(np.diag(rot)))) <= 1e-12


def test_grouping_inconsistency_raises():
    with pytest.raises(ValueError, match="gap|degenerac"):
        classical_frame(_BadGroups(), PhasePoint.of([0, 0, 0], [1, 0, 0]))


def test_project_small_examples():
    groups = np.array([0, 1])
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(project(M, groups, "diag"), [[1, 0], [0, 4]])
    assert np.allclose(project(M, groups, "offdiag"), [[0, 2], [3, 0]])
    groups22 = np.array([0, 0, 1, 1])
    Q = np.arange(16.0).reshape(4, 4)
    diag = project(Q, groups22, "diag")
    assert np.allclose(diag[:2, :2], Q[:2, :2])
    assert np.max(np.abs(diag[:2, 2:])) == 0.0
    # P+ and P- are complementary projectors
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    assert np.max(np.abs(project(project(M, groups22, "offdiag"),
                                 groups22, "diag"))) == 0.0
    assert np.allclose(project(M, groups22, "diag")
                       + project(M, groups22, "offdiag"), M)
    with pytest.raises(ValueError):
        project(M, groups22, "upper")


def test_invert_band_commutator_two_level():
    frame = BandFrame(np.array([1.0, -1.0]), np.eye(2, dtype=complex),
                      np.array([0, 1]), PhasePoint.of([0, 0, 0], [1, 0, 0]))
    M = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
    V = invert_band_commutator(M, frame)
    assert np.allclose(V, [[0, -1], [1, 0]])
    eps = np.diag(frame.eps0)
    assert np.allclose(V @ eps - eps @ V, M)


def test_invert_band_commutator_round_trip():
    frame = BandFrame(np.array([0.7, -1.3]), np.eye(2, dtype=complex),
                      np.array([0, 1]), PhasePoint.of([0, 0, 0], [1, 0, 0]))
    rng = np.random.default_rng(2)
    eps = np.diag(frame.eps0)
    for _ in range(25):
        W = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        W = project(W, frame.groups, "offdiag")
        M = W @ eps - eps @ W
        assert np.allclose(invert_band_commutator(M, frame), W, atol=1e-14)


def test_invert_band_commutator_kernel_zeroed():
    model = dirac()
    frame = classical_frame(model, PhasePoint.of([0, 0, 0], [0.2, 0.5, -0.3]))
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    M = project(M, frame.groups, "offdiag")
    V = invert_band_commutator(M, frame)
    assert np.max(np.abs(project(V, frame.groups, "diag"))) == 0.0
    eps = np.diag(frame.eps0)
    assert np.max(np.abs(V @ eps - eps @ V - M)) <= 1e-12


def test_invert_band_commutator_near_degenerate_raises():
    frame = BandFrame(np.array([1.0, 1.0 + 1e-9]), np.eye(2, dtype=complex),
                      np.array([0, 1]), PhasePoint.of([0, 0, 0], [1, 0, 0]))
    M = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="near-degenerate"):
        invert_band_commutator(M, frame)


def test_connections_fd_matches_analytic_dirac():
    model = DiracElectric(m=1.0, e=1.0,
                          field=GaussianField(0.5, [0.1, 0.0, -0.2], 1.3))
    x = PhasePoint.of([0.3, 0.2, -0.1], [0.0, 0.0, 1.0])
    an = berry_connections(model, x, 0.0)
    fd = connections_fd(model, x, 0.0)
    for l in range(3):
        assert np.max(np.abs(an.A_R[l] - fd.A_R[l])) <= 1e-6
        assert np.max(np.abs(an.A_P[l] - fd.A_P[l])) <= 1e-10
    # P+ A_R against the closed form at P = (0, 0, 1), m = 1, E = sqrt(2)
    E = np.sqrt(2.0)
    pxs = p_cross_sigma(x.P)
    for l in range(3):
        proj = project(fd.A_R[l], model.groups, "diag")
        assert np.max(np.abs(proj - pxs[l] / (2 * E * (E + 1)))) <= 1e-6


def test_connections_fd_neutrino_momentum_part_zero():
    model = NeutrinoMetric(profile=GaussianField(0.4, [0.3, 0.1, -0.2], 2.0))
    x = PhasePoint.of([0.1, 0.2, 0.3], [0.4, -0.7, 0.5])
    fd = connections_fd(model, x, 0.0)
    assert max(np.max(np.abs(a)) for a in fd.A_P) <= 1e-10


def test_connections_constant_frame_vanish():
    model = TwoLevel()  # h along z everywhere: U0 = identity
    x = PhasePoint.of([0.2, -0.3, 0.4], [0.5, 0.6, -0.7])
    conns = connections_fd(model, x, 0.0)
    assert np.max(np.abs(conns.A)) <= 1e-12


def test_conjugate_pairs_position_with_momentum():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    C = conjugate(S)
    assert np.array_equal(C[:3], S[3:]) and np.array_equal(C[3:], -S[:3])
    # On a connection set with A^P != 0: (A^R, A^P) -> (A^P, -A^R).
    model = make_model(BENCHMARK_CONFIGS["two_level_generic"])
    conns = berry_connections(model, PhasePoint.of([0.3, 0.5, -0.2],
                                                   [0.7, -0.4, 1.1]), 0.0)
    assert np.max(np.abs(conns.A_P)) > 0.05
    C = conjugate(conns.A)
    assert np.array_equal(C[:3], conns.A_P)
    assert np.array_equal(C[3:], -conns.A_R)


def test_connections_hermitian():
    for model in (dirac(GaussianField(0.5, [0.1, 0, 0], 1.3)),
                  NeutrinoMetric(profile=LinearField([0.05, 0, 0], 1.5))):
        x = PhasePoint.of([0.3, 0.2, -0.1], [0.4, 0.5, 0.6])
        conns = berry_connections(model, x, 0.0)
        for a in conns.A:
            assert np.max(np.abs(a - a.conj().T)) <= 1e-12


BENCHMARK_CONFIGS = {
    "dirac_electric": {"model": "dirac_electric", "m": 1.0, "e": 1.0,
                       "field": {"kind": "gaussian", "amplitude": 0.8,
                                 "center": [0.2, -0.1, 0.3], "width": 1.4}},
    "neutrino_metric": {"model": "neutrino_metric",
                        "field": {"kind": "gaussian", "amplitude": 0.4,
                                  "center": [0.3, 0.1, -0.2], "width": 2.0}},
    "two_level_z": {"model": "two_level"},
    "two_level_generic": {
        "model": "two_level",
        "h0": [{"coef": "1/10", "r_exp": [1, 0, 0], "p_exp": [0, 1, 0]}],
        "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
              [{"coef": "1/5", "r_exp": [0, 1, 0]}],
              [{"coef": "1"}, {"coef": "1/10", "r_exp": [0, 0, 2]}]],
    },
}


def max_connection_gap(model, x) -> float:
    """Largest entry of the exact connections minus the stencil ones."""
    an = berry_connections(model, x, 0.0)
    fd = connections_fd(model, x, 0.0)
    return max(float(np.max(np.abs(an.A[k] - fd.A[k]))) for k in range(6))


@pytest.mark.parametrize("name", sorted(BENCHMARK_CONFIGS))
def test_berry_connections_match_fd_on_benchmark_configs(name):
    model = make_model(BENCHMARK_CONFIGS[name])
    rng = np.random.default_rng(31)
    for x in random_points(rng, 4, 0.3, 3.0):
        assert max_connection_gap(model, x) <= 1e-6


def _two_level(h1, h2, h3):
    return TwoLevel(h0_terms=[], h_terms=[h1, h2, h3])


def test_two_level_gauge_term_on_the_h3_axis():
    # h = (P_x, P_y, h3): h1 = h2 = 0 wherever P_x = P_y = 0.
    px = [{"coef": "1", "p_exp": [1, 0, 0]}]
    py = [{"coef": "1", "p_exp": [0, 1, 0]}]
    on_axis = PhasePoint.of([0.1, 0.2, 0.3], [0.0, 0.0, 0.7])
    # h3 > 0: the frame is smooth there and the gauge term is 0.
    model = _two_level(px, py, [{"coef": "1"}])
    A_R, A_P = model.analytic_connections(on_axis)
    assert max(np.max(np.abs(a)) for a in A_R + A_P) == 0.0
    assert max_connection_gap(model, on_axis) <= 1e-6
    # h3 < 0 with grad(h1, h2) != 0: the declared gauge winds there.
    model = _two_level(px, py, [{"coef": "-1"}])
    with pytest.raises(ValueError, match="singular"):
        model.analytic_connections(on_axis)
    # h3 < 0 with grad(h1, h2) = 0: h1 = P_x^2, h2 = 0, so the term is 0.
    model = _two_level([{"coef": "1", "p_exp": [2, 0, 0]}], [],
                       [{"coef": "-1"}])
    A_R, A_P = model.analytic_connections(on_axis)
    assert max(np.max(np.abs(a)) for a in A_R + A_P) == 0.0
    # Off the axis, with h3 of either sign, the term matches the stencil.
    off_axis = PhasePoint.of([0.1, 0.2, 0.3], [0.3, -0.4, 0.7])
    for h3 in ("1", "-1"):
        model = _two_level(px, py, [{"coef": h3}])
        assert max_connection_gap(model, off_axis) <= 1e-6


def test_numerical_path_cross_block_content():
    """The eigensolver path reproduces the gauge-invariant off-block moduli."""
    model = _NoFrame()
    x = PhasePoint.of([0.3, -0.2, 0.1], [0.6, 0.4, -0.5])
    fd = connections_fd(model, x, 0.0)
    inner = model.inner
    an = connections_fd(inner, x, 0.0)   # analytic smooth frame, same layout?
    # Layouts differ (ascending vs analytic); compare |off-diagonal| entries.
    for l in range(3):
        got = sorted(np.abs(project(fd.A_R[l], model.groups, "offdiag")).ravel())
        want = sorted(np.abs(project(an.A_R[l], inner.groups, "offdiag")).ravel())
        assert np.allclose(got, want, atol=1e-6)


def test_alignment_rejects_singular_overlap():
    vecs = np.eye(2, dtype=complex)
    ref = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # swapped bands
    with pytest.raises(ValueError, match="alignment"):
        _align_to(vecs[:, :1] @ np.zeros((1, 1)) + vecs, ref,
                  np.array([0, 1]), Tolerances())
