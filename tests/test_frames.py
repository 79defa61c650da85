"""Band frames, projections, commutator inversion and connections."""

import json

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
    GapError,
    GaugeAlignmentError,
    Tolerances,
    berry_connections,
    classical_frame,
    conjugate,
    connection_gradients,
    invert_band_commutator,
    _anticomm_sum,
    _block_contract,
    _diag,
    _pair_products,
)
from semiband.energy import (
    _D_eps0, _comm_diag_products, _covariant, band_energy,
)
from semiband.dynamics import berry_curvatures
from semiband.cli import main
from semiband.verify import _align_to, connections_fd
from tests.test_models import p_cross_sigma


def band_values(report) -> np.ndarray:
    """The band energies of a report, the real diagonal of its eps."""
    return np.real(np.diagonal(report.eps, 0, -2, -1))


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


@pytest.mark.parametrize("value", [True, "1e-6", None, 0.0, -1.0, np.nan])
def test_tolerances_must_be_positive_real_numbers(value):
    with pytest.raises(ValueError, match="tolerance gap"):
        Tolerances(gap=value)


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

    def d_hamiltonian(self, x):
        return self.inner.d_hamiltonian(x)


class _BadGroups(Model):
    """Declares non-degenerate groups for a degenerate Hamiltonian."""

    name = "bad_groups"
    n = 2
    band_groups = (1, 1)

    def hamiltonian(self, x):
        return np.eye(2, dtype=complex)

    def d_hamiltonian(self, x):
        return np.zeros((6, 2, 2), dtype=complex)


def test_numerical_frame_matches_spectrum():
    model = _NoFrame()
    x = PhasePoint.of([0.3, -0.2, 0.1], [0.6, 0.4, -0.5])
    frame = classical_frame(model, x)
    vals = np.sort(np.linalg.eigvalsh(model.hamiltonian(x)))
    assert np.allclose(frame.eps0, vals)  # ascending layout
    rot = frame.U0 @ model.hamiltonian(x) @ frame.U0.conj().T
    assert np.max(np.abs(rot - np.diag(np.diag(rot)))) <= 1e-12


def test_numerical_frame_evaluates_h_once():
    # A frame-less model's H serves the eigensystem and the frame's checks.
    class Counting(_NoFrame):
        calls = 0

        def hamiltonian(self, x):
            self.calls += 1
            return super().hamiltonian(x)

    x = PhasePoint.of([0.3, -0.2, 0.1], [0.6, 0.4, -0.5])
    y = PhasePoint.of([0.1, 0.2, 0.3], [-0.4, 0.5, 0.2])
    for point in (x, PhasePoint.stack([x, y])):
        model = Counting()
        classical_frame(model, point)
        assert model.calls == 1


def test_grouping_inconsistency_raises():
    # An eigensolver frame whose declared groups split a degenerate pair
    # builds, as an analytic frame does: its order-0 energy returns, and
    # the first band-commutator inversion refuses the closed gap.
    model, x = _BadGroups(), PhasePoint.of([0, 0, 0], [1, 0, 0])
    zeroth = band_values(band_energy(model, x, 0.01, order=0))
    assert zeroth.tolist() == [1.0, 1.0]
    with pytest.raises(ValueError, match="near-degenerate"):
        band_energy(model, x, 0.01, order=1)


class _GivenFrame(Model):
    """A constant H with the analytic frame it is given, right or wrong."""

    name = "given_frame"
    n = 2
    has_analytic_frame = True

    def __init__(self, H, eps0, U0, band_groups=(1, 1)):
        self.H, self.band_groups = np.asarray(H, dtype=complex), band_groups
        self.frame = (np.asarray(eps0, dtype=float),
                      np.asarray(U0, dtype=complex))

    def hamiltonian(self, x):
        return self.H

    def analytic_frame(self, x):
        return self.frame


@pytest.mark.parametrize("H, eps0, U0, band_groups, message", [
    # A unitary that mixes the bands leaves an off-group residual.
    (np.diag([2.0, -1.0]), [2.0, -1.0],
     np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2), (1, 1),
     "does not block-diagonalize H: residual"),
    # The right unitary with a wrong eigenvalue.
    (np.diag([2.0, -1.0]), [2.0, -0.5], np.eye(2), (1, 1),
     "eigenvalues disagree with the rotated Hamiltonian"),
    # Two split eigenvalues declared one degenerate group.
    (np.diag([1.0, 1.5]), [1.0, 1.5], np.eye(2), (2,),
     "group 0 eigenvalues exceed degeneracy tolerance"),
])
def test_wrong_analytic_frame_is_refused(H, eps0, U0, band_groups, message):
    x = PhasePoint.of([0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError, match=message):
        classical_frame(_GivenFrame(H, eps0, U0, band_groups), x)


def test_right_analytic_frame_of_a_given_model_builds():
    # The control of the test above: the same model with its true frame.
    x = PhasePoint.of([0, 0, 0], [1, 0, 0])
    frame = classical_frame(_GivenFrame(np.diag([2.0, -1.0]), [2.0, -1.0],
                                        np.eye(2)), x)
    assert frame.eps0.tolist() == [2.0, -1.0]


class _MiscountedDirac(DiracElectric):
    """Dirac with a group layout of three states for its four."""

    band_groups = (1, 2)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_group_layout_must_cover_the_dimension(order):
    # The layout is checked where the model makes it, for an analytic
    # frame as for an eigensolver one, before any array meets it.
    x = PhasePoint.of([0.1, 0.2, -0.3], [0.4, -0.5, 0.6])
    with pytest.raises(ValueError, match="band group multiplicities do not "
                                         "sum to the dimension"):
        band_energy(_MiscountedDirac(), x, 0.01, order=order)
    with pytest.raises(ValueError, match="do not sum to the dimension"):
        _MiscountedDirac().groups


def test_group_masks_are_made_once_per_frame():
    # The model's group layout is made once, read-only; a frame reads its
    # masks and group sizes from its own groups once, on first use.
    model = make_model(BENCHMARK_CONFIGS["dirac_electric"])
    assert model.groups is model.groups
    assert model.groups.tolist() == [0, 0, 1, 1]
    assert not model.groups.flags.writeable
    x = PhasePoint.of([0.1, 0.2, -0.3], [0.4, -0.5, 0.6])
    frame = classical_frame(model, x)
    same, cross, sizes = frame.same, frame.cross, frame._masks.sizes
    frame.grads
    connection_gradients(frame, berry_connections(frame))
    assert (frame.same is same and frame.cross is cross
            and frame._masks.sizes is sizes)
    assert sizes.tolist() == [2, 2, 2, 2] and (cross == ~same).all()
    own = BandFrame(np.zeros(3), np.eye(3, dtype=complex),
                    np.array([0, 1, 1]), x, model)
    assert own.same.tolist() == [[True, False, False], [False, True, True],
                                 [False, True, True]]
    assert (own.cross == ~own.same).all()
    assert own._masks.sizes.tolist() == [1, 2, 2]


def test_group_masks_are_shared_by_the_frames_of_a_layout():
    # The masks are made once per group layout, read-only, and every frame
    # of that layout reads the same objects.
    model = make_model(BENCHMARK_CONFIGS["dirac_electric"])
    points = [PhasePoint.of([0.1, 0.2, -0.3], [0.4, -0.5, 0.6]),
              PhasePoint.of([-0.2, 0.5, 0.1], [0.9, 0.3, -0.2])]
    one, two = (classical_frame(model, x) for x in points)
    batch = classical_frame(model, PhasePoint.stack(points))
    own = BandFrame(np.zeros(4), np.eye(4, dtype=complex),
                    np.array([0, 0, 1, 1]), points[0])
    names = ("same", "cross", "same_f", "sizes")
    for name in names:
        mask = getattr(one._masks, name)
        assert all(getattr(frame._masks, name) is mask
                   for frame in (two, batch, own))
        assert not mask.flags.writeable
    for frame in (one, two, batch, own):
        assert frame.same is one._masks.same
        assert frame.cross is one._masks.cross
    assert one._masks.same_f.tolist() == one.same.astype(float).tolist()


def test_project_small_examples():
    def frame_of(groups):
        # The projectors read only the frame's groups.
        n = len(groups)
        return BandFrame(np.zeros(n), np.eye(n, dtype=complex),
                         np.array(groups), PhasePoint.of([0, 0, 0], [1, 0, 0]))

    frame = frame_of([0, 1])
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(frame.project(M, "diag"), [[1, 0], [0, 4]])
    assert np.allclose(frame.project(M, "offdiag"), [[0, 2], [3, 0]])
    frame22 = frame_of([0, 0, 1, 1])
    Q = np.arange(16.0).reshape(4, 4)
    diag = frame22.project(Q, "diag")
    assert np.allclose(diag[:2, :2], Q[:2, :2])
    assert np.max(np.abs(diag[:2, 2:])) == 0.0
    # P+ and P- are complementary projectors
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    assert np.max(np.abs(frame22.project(frame22.project(M, "offdiag"),
                                         "diag"))) == 0.0
    assert np.allclose(frame22.project(M, "diag")
                       + frame22.project(M, "offdiag"), M)
    with pytest.raises(ValueError):
        frame22.project(M, "upper")


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
        W = frame.project(W, "offdiag")
        M = W @ eps - eps @ W
        assert np.allclose(invert_band_commutator(M, frame), W, atol=1e-14)


def test_invert_band_commutator_kernel_zeroed():
    model = dirac()
    frame = classical_frame(model, PhasePoint.of([0, 0, 0], [0.2, 0.5, -0.3]))
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    M = frame.project(M, "offdiag")
    V = invert_band_commutator(M, frame)
    assert np.max(np.abs(frame.project(V, "diag"))) == 0.0
    eps = np.diag(frame.eps0)
    assert np.max(np.abs(V @ eps - eps @ V - M)) <= 1e-12


def test_invert_band_commutator_near_degenerate_raises():
    frame = BandFrame(np.array([1.0, 1.0 + 1e-9]), np.eye(2, dtype=complex),
                      np.array([0, 1]), PhasePoint.of([0, 0, 0], [1, 0, 0]))
    M = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="near-degenerate"):
        invert_band_commutator(M, frame)


def test_configured_gap_tolerance_reaches_the_inversion(tmp_path):
    # Gap 3.0 is wider than any two_level gap relative to its energies, so
    # every band-commutator inversion raises, while order 0 inverts nothing
    # and returns.  A frame that lost its tolerances would invert silently.
    model = make_model({"model": "two_level"})
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    tol = Tolerances(gap=3.0)
    assert band_energy(model, x, 0.01, order=0, tol=tol).eps.shape == (2, 2)
    for order in (1, 2):
        with pytest.raises(GapError, match="near-degenerate"):
            band_energy(model, x, 0.01, order=order, tol=tol)
    with pytest.raises(GapError, match="near-degenerate"):
        berry_curvatures(model, x, 0.01, tol)

    points = [{"R": [0.3, 0.5, -0.2], "P": [0.7, -0.4, 1.1]},
              {"R": [-0.1, 0.2, 0.4], "P": [0.5, 0.9, -0.3]}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"model": "two_level"},
                               "tolerances": {"gap": 3.0}, "points": points}))
    for order, code in (("0", 0), ("1", 2)):
        out = tmp_path / f"order{order}"
        assert main(["--config", str(cfg), "--order", order, "--out", str(out),
                     "diagonalize"]) == code
        report = json.loads((out / "energies.json").read_text())
        errors = [(e["index"], e["error"]) for e in report["errors"]]
        if code == 0:
            assert errors == [] and len(report["records"]) == 2
        else:
            assert errors == [(i, "GapError: near-degenerate bands: "
                                  "cross-group gap below tolerance")
                              for i in range(2)]


def test_invert_band_commutator_is_one_masked_divide():
    # Cross-group entries are M_nm / (eps_m - eps_n) bit for bit and
    # within-group entries +0.0, for one point, a batch and a
    # (6, 6, 6, n, n) stack at either.
    model = make_model(BENCHMARK_CONFIGS["dirac_electric"])
    points = random_points(np.random.default_rng(15), 3, 0.3, 3.0)
    rng = np.random.default_rng(16)
    for x in (points[0], PhasePoint.stack(points)):
        frame = classical_frame(model, x)
        eps = frame.eps0
        for phase in ((), (6, 6, 6)):
            lead = eps.shape[:-1]
            M = (rng.normal(size=lead + phase + (4, 4))
                 + 1j * rng.normal(size=lead + phase + (4, 4)))
            gap = (eps[..., None, :] - eps[..., :, None]).reshape(
                lead + (1,) * len(phase) + (4, 4))
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(frame.cross, M / gap, 0.0)
            got = invert_band_commutator(M, frame)
            assert got.shape == M.shape
            assert got.tobytes() == want.tobytes()


def test_connections_fd_matches_analytic_dirac():
    model = DiracElectric(m=1.0, e=1.0,
                          field=GaussianField(0.5, [0.1, 0.0, -0.2], 1.3))
    x = PhasePoint.of([0.3, 0.2, -0.1], [0.0, 0.0, 1.0])
    frame = classical_frame(model, x)
    an, fd = berry_connections(frame), connections_fd(frame)
    for l in range(3):
        assert np.max(np.abs(an.A_R[l] - fd.A_R[l])) <= 1e-6
        assert np.max(np.abs(an.A_P[l] - fd.A_P[l])) <= 1e-10
    # P+ A_R against the closed form at P = (0, 0, 1), m = 1, E = sqrt(2)
    E = np.sqrt(2.0)
    pxs = p_cross_sigma(x.P)
    for l in range(3):
        proj = frame.project(fd.A_R[l], "diag")
        assert np.max(np.abs(proj - pxs[l] / (2 * E * (E + 1)))) <= 1e-6


def test_connections_fd_neutrino_momentum_part_zero():
    model = NeutrinoMetric(profile=GaussianField(0.4, [0.3, 0.1, -0.2], 2.0))
    x = PhasePoint.of([0.1, 0.2, 0.3], [0.4, -0.7, 0.5])
    fd = connections_fd(classical_frame(model, x))
    assert max(np.max(np.abs(a)) for a in fd.A_P) <= 1e-10


def test_connections_constant_frame_vanish():
    model = TwoLevel()  # h along z everywhere: U0 = identity
    x = PhasePoint.of([0.2, -0.3, 0.4], [0.5, 0.6, -0.7])
    conns = connections_fd(classical_frame(model, x))
    assert np.max(np.abs(conns.A)) <= 1e-12


def test_conjugate_pairs_position_with_momentum():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    C = conjugate(S)
    assert np.array_equal(C[:3], S[3:]) and np.array_equal(C[3:], -S[:3])
    # On a connection set with A^P != 0: (A^R, A^P) -> (A^P, -A^R).
    model = make_model(BENCHMARK_CONFIGS["two_level_generic"])
    conns = berry_connections(classical_frame(
        model, PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])))
    assert np.max(np.abs(conns.A_P)) > 0.05
    C = conjugate(conns.A)
    assert np.array_equal(C[:3], conns.A_P)
    assert np.array_equal(C[3:], -conns.A_R)


def test_connections_hermitian():
    for model in (dirac(GaussianField(0.5, [0.1, 0, 0], 1.3)),
                  NeutrinoMetric(profile=LinearField([0.05, 0, 0], 1.5))):
        x = PhasePoint.of([0.3, 0.2, -0.1], [0.4, 0.5, 0.6])
        conns = berry_connections(classical_frame(model, x))
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
    frame = classical_frame(model, x)
    an, fd = berry_connections(frame), connections_fd(frame)
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
    A_R, A_P = np.split(model.analytic_connections(on_axis), 2)
    assert max(np.max(np.abs(a)) for a in A_R + A_P) == 0.0
    assert max_connection_gap(model, on_axis) <= 1e-6
    # h3 < 0 with grad(h1, h2) != 0: the declared gauge winds there.
    model = _two_level(px, py, [{"coef": "-1"}])
    with pytest.raises(ValueError, match="singular"):
        model.analytic_connections(on_axis)
    # h3 < 0 with grad(h1, h2) = 0: h1 = P_x^2, h2 = 0, so the term is 0.
    model = _two_level([{"coef": "1", "p_exp": [2, 0, 0]}], [],
                       [{"coef": "-1"}])
    A_R, A_P = np.split(model.analytic_connections(on_axis), 2)
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
    frame = classical_frame(model, x)
    fd = connections_fd(frame)
    inner = classical_frame(model.inner, x)
    an = connections_fd(inner)   # analytic smooth frame, same layout?
    # Layouts differ (ascending vs analytic); compare |off-diagonal| entries.
    for l in range(3):
        got = sorted(np.abs(frame.project(fd.A_R[l], "offdiag")).ravel())
        want = sorted(np.abs(inner.project(an.A_R[l], "offdiag")).ravel())
        assert np.allclose(got, want, atol=1e-6)


def _gap_outcome(call) -> str:
    """"gap" if call() raises GapError, else "finite", asserting that its
    energy is finite; any other error fails the test."""
    try:
        report = call()
    except GapError:
        return "gap"
    assert np.isfinite(report.eps).all()
    return "finite"


def test_closing_gap_gives_finite_energies_or_gap_error():
    # h0 = 1, h3 = c: eps0 = 1 +- |c|, a cross-group gap 2|c| against the
    # scale 1 + |c|, and c = 0 is the degeneracy |h| = 0 of the frame.
    x = PhasePoint.of([0.3, 0.5, -0.2], [0.7, -0.4, 1.1])
    assert issubclass(GapError, ValueError)
    assert issubclass(GaugeAlignmentError, ValueError)

    def model(c):
        return make_model({"model": "two_level", "h0": [{"coef": "1"}],
                           "h": [[], [], [{"coef": c}]]})

    for order in (1, 2):
        walk = [_gap_outcome(lambda: band_energy(model(c), x, 0.01, order))
                for c in [f"1e-{k}" for k in range(0, 17)] + ["0"]]
        # 2c <= 1e-6 (1 + c) from c = 1e-7 on.
        assert walk == ["finite"] * 7 + ["gap"] * 11
        # The gap 0.2 of c = 1/10 is 0.18 of the scale 1.1.
        walk = [_gap_outcome(lambda: band_energy(
                    model("1/10"), x, 0.01, order, tol=Tolerances(gap=g)))
                for g in (1e-6, 0.1, 0.18, 0.182, 0.5, 1.0, 3.0)]
        assert walk == ["finite"] * 3 + ["gap"] * 4


def test_alignment_rejects_singular_overlap():
    vecs = np.eye(2, dtype=complex)
    ref = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # swapped bands
    with pytest.raises(GaugeAlignmentError, match="alignment"):
        _align_to(vecs[:, :1] @ np.zeros((1, 1)) + vecs, ref,
                  np.array([0, 1]))


class _GivenGradient:
    """A model whose grad H is a given stack."""

    def __init__(self, dH):
        self.dH = dH

    def d_hamiltonian(self, x):
        return self.dH


@pytest.mark.parametrize("n", [2, 4])
def test_order1_block_forms_match_stacked_products(n):
    # U0 grad H U0^+ and the covariant derivative's commutator take one
    # block product per point where stacked `@` takes one per phase axis:
    # they agree with the stacked forms to rounding, and a batch of two
    # gives each point's own bits.
    rng = np.random.default_rng(10 + n)

    def stack(*shape):
        shape = (2, *shape, n, n)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def rotated(U0, dH):
        return BandFrame(np.zeros(U0.shape[:-1]), U0, np.zeros(n, int), None,
                         _GivenGradient(dH)).dH

    U0, dH = stack(), stack(6)
    grad, A, M = stack(6), stack(6), stack()
    U, cA, Mb = U0[:, None], conjugate(A), M[:, None]
    cases = [
        (rotated, (U0, dH), U @ dH @ U.conj().swapaxes(-1, -2)),
        (_covariant, (grad, cA, M), grad + 0.5j * (cA @ Mb - Mb @ cA)),
    ]
    for helper, args, stacked in cases:
        got = helper(*args)
        assert got.shape == stacked.shape
        scale = np.max(np.abs(stacked))
        assert np.max(np.abs(got - stacked)) <= 1e-15 * scale
        for i in range(2):
            assert helper(*(a[i] for a in args)).tobytes() == got[i].tobytes()


@pytest.mark.parametrize("n", [2, 4])
def test_block_products_match_broadcast_forms(n):
    # The block-matrix helpers of the second-order pass replace broadcast
    # `@` and `.sum`: they agree with them to rounding, and a batch of two
    # gives each point's own bits.
    rng = np.random.default_rng(n)

    def stack(*shape):
        shape = (2, *shape, n, n)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def swap(S):
        return S.swapaxes(-4, -3)

    L, R = stack(5), stack(7)
    LC, RC = stack(6, 6), stack(6, 3)
    LT, RT = stack(6, 3), stack(4, 6)      # [b, a] and [c, b]
    LS, RS = stack(6, 6), stack(6, 4)
    cases = [
        (_pair_products, (L, R), L[:, :, None] @ R[:, None]),
        (_block_contract, (LC, RC),
         (LC[:, :, :, None] @ RC[:, None]).sum(2)),
        (_anticomm_sum, (LS, RS),
         (LS[:, :, :, None] @ RS[:, None] + RS[:, None] @ LS[:, :, :, None])
         .sum(2)),
        (lambda a, b: swap(_block_contract(swap(a), swap(b))), (LT, RT),
         (LT[:, None] @ RT[:, :, :, None]).sum(2)),
    ]
    for helper, args, broadcast in cases:
        got = helper(*args)
        assert got.shape == broadcast.shape
        scale = np.max(np.abs(broadcast))
        assert np.max(np.abs(got - broadcast)) <= 1e-15 * scale
        for i in range(2):
            assert np.array_equal(got[i], helper(*(a[i] for a in args)))


@pytest.mark.parametrize("n", [2, 4])
def test_diagonal_products_keep_the_bits_of_matrix_products(n):
    # A product with a diagonal matrix is elementwise: V_nm d_m and d_n V_nm
    # are the only nonzero terms of the matrix products, so the commutator
    # with E = diag eps0, and with it D eps0 and the first-order energy,
    # keeps the bits of the `@` forms it replaces.
    rng = np.random.default_rng(20 + n)
    V = rng.normal(size=(2, 6, n, n)) + 1j * rng.normal(size=(2, 6, n, n))
    eps, g = rng.normal(size=(2, n)), rng.normal(size=(2, 6, n))
    E = _diag(eps)[:, None]
    got = _comm_diag_products(V, eps[:, None, :])
    assert got.tobytes() == (V @ E - E @ V).tobytes()
    assert (_D_eps0(g, V, eps).tobytes()
            == _covariant(_diag(g), V, _diag(eps)).tobytes())
