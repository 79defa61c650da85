"""Built-in Hamiltonians: Hermiticity, frames, connections, closed forms."""

import numpy as np
import pytest

from semiband.fields import GaussianField, LinearField, UniformField
from semiband.models import (
    ALPHA,
    BETA,
    SIGMA,
    DiracElectric,
    NeutrinoMetric,
    PhasePoint,
    TwoLevel,
    make_model,
)


def p_cross_sigma(P):
    out = []
    for l in range(3):
        m = np.zeros((4, 4), dtype=complex)
        for j in range(3):
            for k in range(3):
                e = (l - j) * (j - k) * (k - l) / 2
                if e:
                    m += e * P[j] * SIGMA[k]
        out.append(m)
    return out


def all_models():
    return [
        DiracElectric(m=1.0, e=1.0,
                      field=GaussianField(0.5, [0.1, 0.0, -0.2], 1.3)),
        NeutrinoMetric(profile=LinearField([0.05, -0.02, 0.03], 1.5)),
        TwoLevel(),
    ]


def test_dirac_free_eigenvalues():
    # m=1, e=0, P=(0,0,1): eigenvalues +-sqrt(2), each twice
    model = DiracElectric(m=1.0, e=0.0)
    H = model.hamiltonian(PhasePoint.of([0, 0, 0], [0, 0, 1]))
    vals = np.sort(np.linalg.eigvalsh(H))
    s2 = np.sqrt(2.0)
    assert np.allclose(vals, [-s2, -s2, s2, s2], atol=1e-14)


def test_dirac_rest_hamiltonian():
    model = DiracElectric(m=0.7, e=1.0, field=UniformField(0.0))
    H = model.hamiltonian(PhasePoint.of([0, 0, 0], [0, 0, 0]))
    assert np.allclose(H, 0.7 * BETA)


def test_neutrino_flat_eigenvalues():
    model = NeutrinoMetric(profile=UniformField(1.0))
    H = model.hamiltonian(PhasePoint.of([0, 0, 0], [0, 0, 1]))
    assert np.allclose(H, ALPHA[2])
    vals = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-14)


def test_massless_rejects_zero_momentum():
    model = NeutrinoMetric(profile=UniformField(1.0))
    with pytest.raises(ValueError):
        model.hamiltonian(PhasePoint.of([0, 0, 0], [0, 0, 0]))


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_hamiltonian_hermitian_everywhere(model):
    rng = np.random.default_rng(11)
    for _ in range(1000):
        R = rng.uniform(-2, 2, 3)
        P = rng.uniform(-2, 2, 3)
        if np.linalg.norm(P) < 1e-3:
            P[0] += 0.5
        H = model.hamiltonian(PhasePoint.of(R, P))
        assert np.max(np.abs(H - H.conj().T)) <= 1e-13 * max(np.linalg.norm(H), 1.0)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_analytic_frame_block_diagonalizes(model):
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = PhasePoint.of(rng.uniform(-1, 1, 3),
                          rng.uniform(-1, 1, 3) + np.array([0.0, 0.0, 1.5]))
        eps0, U0 = model.analytic_frame(x)
        H = model.hamiltonian(x)
        rot = U0 @ H @ U0.conj().T
        assert np.linalg.norm(U0 @ U0.conj().T - np.eye(model.n)) <= 1e-13
        mask = model.groups[:, None] != model.groups[None, :]
        assert np.max(np.abs(rot[mask])) <= 1e-12 * np.linalg.norm(H)
        assert np.max(np.abs(np.real(np.diag(rot)) - eps0)) <= 1e-12 * max(
            np.max(np.abs(eps0)), 1.0)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_numerical_eigenvalues_match_analytic(model):
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = PhasePoint.of(rng.uniform(-1, 1, 3),
                          rng.uniform(-1, 1, 3) + np.array([0.0, 0.0, 1.5]))
        eps0, _U0 = model.analytic_frame(x)
        vals = np.linalg.eigvalsh(model.hamiltonian(x))
        scale = max(np.max(np.abs(vals)), 1.0)
        assert np.max(np.abs(np.sort(vals) - np.sort(eps0))) <= 1e-10 * scale


def test_dirac_free_frame_is_fw_rotation():
    model = DiracElectric(m=1.0, e=0.0)
    x = PhasePoint.of([0.2, -0.4, 0.1], [0.3, 0.7, -0.5])
    eps0, U0 = model.analytic_frame(x)
    E = model.energy_scale(x)
    rot = U0 @ model.hamiltonian(x) @ U0.conj().T
    assert np.allclose(rot, BETA * E, atol=1e-13)
    assert np.allclose(eps0, [E, E, -E, -E])


def test_neutrino_frame_classical_value():
    model = NeutrinoMetric(profile=LinearField([0.1, 0.0, 0.0], 2.0))
    x = PhasePoint.of([0.5, 0.0, 0.0], [0.0, 0.0, 0.8])
    eps0, U0 = model.analytic_frame(x)
    F = 1.0 / 2.05
    rot = U0 @ model.hamiltonian(x) @ U0.conj().T
    assert np.allclose(rot, BETA * F * 0.8, atol=1e-13)


def test_neutrino_flat_frame_unit_momentum():
    model = NeutrinoMetric(profile=UniformField(1.0))
    eps0, _ = model.analytic_frame(PhasePoint.of([0, 0, 0], [0, 0, 1]))
    assert np.allclose(eps0, [1, 1, -1, -1])


def test_dirac_projected_connection_closed_form():
    model = DiracElectric(m=1.0, e=1.0, field=UniformField(0.0))
    x = PhasePoint.of([0, 0, 0], [0.4, -0.8, 1.1])
    E = model.energy_scale(x)
    A_R, A_P = model.analytic_connections(x)
    pxs = p_cross_sigma(x.P)
    mask = model.groups[:, None] == model.groups[None, :]
    for l in range(3):
        proj = np.where(mask, A_R[l], 0.0)
        assert np.allclose(proj, pxs[l] / (2 * E * (E + 1.0)), atol=1e-13)
        assert np.max(np.abs(A_P[l])) == 0.0


def test_dirac_projected_connection_vanishing_component():
    # At P = (0, 0, p) the z component of P x Sigma vanishes.
    model = DiracElectric(m=1.0, e=0.0)
    x = PhasePoint.of([0, 0, 0], [0, 0, 0.9])
    A_R, _ = model.analytic_connections(x)
    mask = model.groups[:, None] == model.groups[None, :]
    assert np.max(np.abs(np.where(mask, A_R[2], 0.0))) <= 1e-14


def test_neutrino_momentum_connection_vanishes():
    model = NeutrinoMetric(profile=GaussianField(0.4, [0, 0, 0], 2.0))
    _, A_P = model.analytic_connections(PhasePoint.of([0.3, 0.1, 0.2],
                                                      [0.5, -0.2, 0.9]))
    assert max(np.max(np.abs(a)) for a in A_P) == 0.0


def test_bracket_hamiltonian_vanishes_flag():
    for model in all_models():
        assert model.bracket_h_vanishes


def test_two_level_diagonal_case():
    model = TwoLevel()  # h purely along z, positive
    x = PhasePoint.of([0.3, 0.1, -0.2], [0.2, 0.5, 0.4])
    eps0, U0 = model.analytic_frame(x)
    assert np.allclose(U0, np.eye(2), atol=1e-14)
    h3 = model.h_vector(x)[2]
    h0 = sum(t.value(x) for t in model.h0)
    assert np.allclose(eps0, [h0 + h3, h0 - h3])


def test_two_level_generic_direction_frame():
    cfg = {
        "h0": [],
        "h": [[{"coef": "1/4", "p_exp": [1, 0, 0]}],
              [{"coef": "1/5", "r_exp": [0, 1, 0]}],
              [{"coef": "1"}]],
    }
    model = make_model({"model": "two_level", **cfg})
    assert not model.bracket_closed_form
    rng = np.random.default_rng(14)
    for _ in range(30):
        x = PhasePoint.of(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        eps0, U0 = model.analytic_frame(x)
        rot = U0 @ model.hamiltonian(x) @ U0.conj().T
        assert abs(rot[0, 1]) <= 1e-12
        assert np.allclose(np.real(np.diag(rot)), eps0, atol=1e-12)


def test_two_level_degenerate_point_rejected():
    cfg = {"h0": [], "h": [[], [], [{"coef": "1", "r_exp": [1, 0, 0]}]]}
    model = make_model({"model": "two_level", **cfg})
    with pytest.raises(ValueError):
        model.analytic_frame(PhasePoint.of([0, 0, 0], [1, 0, 0]))


def test_hellmann_feynman_matches_fd():
    from semiband.frames import classical_frame, eps0_gradients

    for model in all_models():
        x = PhasePoint.of([0.3, -0.2, 0.4], [0.6, 0.1, 0.9])
        frame = classical_frame(model, x)
        grads = eps0_gradients(model, frame)
        h = 1e-5
        for axis in range(6):
            ep = model.analytic_frame(x.shifted(axis, h))[0]
            em = model.analytic_frame(x.shifted(axis, -h))[0]
            fd = (ep - em) / (2 * h)
            assert np.max(np.abs(grads[axis] - fd)) <= 1e-7 * max(
                1.0, np.max(np.abs(fd)))


def test_make_model_round_trip_and_errors():
    for model in all_models():
        rebuilt = make_model(model.to_config())
        x = PhasePoint.of([0.2, 0.1, -0.3], [0.4, 0.5, 0.6])
        assert np.allclose(rebuilt.hamiltonian(x), model.hamiltonian(x))
    with pytest.raises(ValueError):
        make_model({"model": "unknown"})
    with pytest.raises(ValueError):
        make_model({})


def test_dirac_analytic_dh():
    model = DiracElectric(m=1.0, e=0.8,
                          field=GaussianField(0.5, [0.1, 0.0, -0.2], 1.3))
    x = PhasePoint.of([0.3, -0.2, 0.4], [0.6, 0.1, 0.9])
    h = 1e-6
    for axis in range(6):
        fd = (model.hamiltonian(x.shifted(axis, h))
              - model.hamiltonian(x.shifted(axis, -h))) / (2 * h)
        assert np.max(np.abs(model.d_hamiltonian(x, axis) - fd)) <= 1e-7
