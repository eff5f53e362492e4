"""Spectral adversary tests: matrix validation, eigenvalues against an
SVD-based norm, certificate sizes, and the ceiling on the ratio."""

import math
from unittest import mock

import numpy as np
import pytest

from qtri import (
    PartialBooleanFunction,
    adversary_value,
    certificate_size,
    decomposition_diagnostic,
    gamma_i,
    spectral_norm,
    validate_gamma,
)
from qtri.adversary import (
    _restricted_norm,
    and_function,
    ceiling_check,
    load_function,
    load_matrix,
    min_certificate,
    or_function,
    or_star_instance,
    random_valid_gamma,
    spectral_norm_batch,
    triangle_property_function,
)
from qtri.rng import substream

OR2 = or_function(2)


def or2_star():
    # connect 00 to the two weight-one inputs
    gamma = np.zeros((4, 4))
    i0 = OR2.domain.index("00")
    for w in ("01", "10"):
        j = OR2.domain.index(w)
        gamma[i0, j] = gamma[j, i0] = 1.0
    return gamma


def test_function_validation():
    with pytest.raises(ValueError):
        PartialBooleanFunction(2, ("00", "0"), (0, 1))
    with pytest.raises(ValueError):
        PartialBooleanFunction(2, ("00", "00"), (0, 1))
    with pytest.raises(ValueError):
        PartialBooleanFunction(2, ("00",), (2,))


def test_validate_gamma_accepts_star():
    assert validate_gamma(OR2, or2_star()) is None


def test_validate_gamma_rejects_same_value_support():
    gamma = or2_star()
    i, j = OR2.domain.index("01"), OR2.domain.index("11")
    gamma[i, j] = gamma[j, i] = 0.5
    problem = validate_gamma(OR2, gamma)
    assert problem is not None and "f(" in problem


def test_validate_gamma_rejects_asymmetry_and_negatives():
    gamma = or2_star()
    gamma[0, 1] += 0.25
    assert "asymmetric" in validate_gamma(OR2, gamma)
    gamma = or2_star()
    i0, i1 = OR2.domain.index("00"), OR2.domain.index("01")
    gamma[i0, i1] = gamma[i1, i0] = -1.0
    assert "negative" in validate_gamma(OR2, gamma)


def test_gamma_i_keeps_only_differing_positions():
    gamma = or2_star()
    g1 = gamma_i(OR2, gamma, 1)
    g2 = gamma_i(OR2, gamma, 2)
    i0 = OR2.domain.index("00")
    assert g1[i0, OR2.domain.index("10")] == 1.0
    assert g1[i0, OR2.domain.index("01")] == 0.0
    assert g2[i0, OR2.domain.index("01")] == 1.0
    assert g2[i0, OR2.domain.index("10")] == 0.0
    with pytest.raises(ValueError):
        gamma_i(OR2, gamma, 3)


def test_gamma_i_zero_when_position_constant():
    f = PartialBooleanFunction(2, ("00", "01"), (0, 1))
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not gamma_i(f, gamma, 1).any()


def test_spectral_norm_closed_forms():
    assert spectral_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-9)
    star = np.zeros((3, 3))
    star[0, 1] = star[1, 0] = star[0, 2] = star[2, 0] = 1.0
    assert spectral_norm(star) == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_matches_dense_solver():
    rng = substream(0, "spec")
    for trial in range(25):
        dim = int(rng.integers(2, 12))
        m = rng.random((dim, dim))
        m = np.triu(m, 1)
        m = m + m.T
        # the top eigenvalue of a symmetric nonnegative matrix is its spectral norm
        want = float(np.linalg.norm(m, 2))
        assert spectral_norm(m) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_spectral_norm_batch_matches_scalar():
    rng = substream(1, "batch")
    mats = []
    for _ in range(40):
        m = np.triu(rng.random((6, 6)), 1)
        mats.append(m + m.T)
    got = spectral_norm_batch(np.stack(mats))
    for m, lam in zip(mats, got):
        assert lam == pytest.approx(spectral_norm(m), rel=1e-12, abs=1e-12)


def test_restricted_norm_batch_equals_the_per_matrix_maximum():
    # the n restricted norms come from one batched eigensolve; its maximum must be
    # bit-identical to the largest of the one-matrix norms on the stock instances
    cases = [or_star_instance(n) for n in (2, 4, 9, 16)]
    for f in (or_function(4), and_function(4), triangle_property_function()):
        rng = substream(5, "restricted", f.n, f.values)
        cases += [(f, random_valid_gamma(f, rng)) for _ in range(10)]
    for f, gamma in cases:
        per_matrix = max(spectral_norm(gamma_i(f, gamma, i)) for i in range(1, f.n + 1))
        assert _restricted_norm(f, gamma) == per_matrix


def valid_stack(f, count, rng):
    """`count` random valid matrices for f, each followed by its n restrictions."""
    mats = []
    for _ in range(count):
        gamma = random_valid_gamma(f, rng)
        mats += [gamma] + [gamma_i(f, gamma, i) for i in range(1, f.n + 1)]
    return np.stack(mats)


@pytest.mark.parametrize("label", ["or3", "and2", "triangle"])
def test_spectral_norms_match_dense_solver_on_plus_minus_spectra(label):
    f = {"or3": or_function(3), "and2": and_function(2),
         "triangle": triangle_property_function()}[label]
    mats = valid_stack(f, 20, substream(5, "pm", label))
    spectra = np.linalg.eigvalsh(mats)
    # a valid matrix is bipartite between 0- and 1-inputs: its spectrum is symmetric
    assert np.allclose(spectra, -spectra[:, ::-1], atol=1e-12)
    want = np.linalg.norm(mats, 2, axis=(1, 2))
    batch = spectral_norm_batch(mats)
    for m, top, lam in zip(mats, want, batch):
        assert spectral_norm(m) == pytest.approx(top, rel=1e-12, abs=1e-12)
        assert lam == pytest.approx(top, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("bad, message", [
    (np.ones((2, 3)), "square"),
    (np.ones(4), "square"),
    (np.array([[np.nan, 1.0], [1.0, 0.0]]), "finite"),
    (np.array([[0.0, 1.0], [0.5, 0.0]]), "symmetric"),
    (np.array([[0.0, -1.0], [-1.0, 0.0]]), "nonnegative"),
], ids=["non-square", "vector", "nan", "asymmetric", "negative"])
def test_spectral_norms_reject_what_the_eigensolver_would_misread(bad, message):
    with pytest.raises(ValueError, match=message):
        spectral_norm(bad)
    with pytest.raises(ValueError, match=message):
        spectral_norm_batch(bad[None])


def test_spectral_norm_batch_all_zero_member_is_exactly_zero():
    star = or2_star()
    got = spectral_norm_batch(np.stack([star, np.zeros((4, 4)), 2.0 * star]))
    assert got[1] == 0.0
    assert got[0] == pytest.approx(math.sqrt(2.0), abs=1e-7)
    assert got[2] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-7)
    assert np.array_equal(spectral_norm_batch(np.zeros((3, 5, 5))), np.zeros(3))


def test_adversary_value_or2():
    raw, qqc0 = adversary_value(OR2, or2_star(), epsilon=0.0)
    assert raw == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert qqc0 == pytest.approx(raw / 2.0, abs=1e-12)
    _, qqc_half = adversary_value(OR2, or2_star(), epsilon=0.499999999)
    assert qqc_half == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(ValueError):
        adversary_value(OR2, or2_star(), epsilon=0.5)


def test_adversary_value_rejects_invalid_matrix():
    with pytest.raises(ValueError, match="invalid adversary matrix: nonzero entry"):
        adversary_value(OR2, np.ones((4, 4)))
    with pytest.raises(ValueError, match="invalid adversary matrix: non-finite entry at"):
        decomposition_diagnostic(OR2, np.full((4, 4), np.nan))


def test_validate_gamma_names_non_finite_entries_first():
    for bad in (np.nan, np.inf, -np.inf):
        gamma = or2_star()
        gamma[1, 1] = bad
        assert validate_gamma(OR2, gamma) == "non-finite entry at (1,1)"
        gamma = or2_star()
        gamma[0, 2] = gamma[2, 0] = bad
        assert validate_gamma(OR2, gamma) == "non-finite entry at (0,2)"


def test_certificate_sizes():
    assert certificate_size(OR2) == 1
    assert certificate_size(and_function(3)) == 3
    assert certificate_size(triangle_property_function()) == 3
    f, _ = or_star_instance(5)
    assert certificate_size(f) == 1


def test_min_certificate_contents():
    f = triangle_property_function()
    idx = f.domain.index("111")
    assert set(min_certificate(f, idx)) == {1, 2, 3}
    with pytest.raises(ValueError):
        min_certificate(f, f.domain.index("000"))


def test_ceiling_check_or2():
    raw, _ = adversary_value(OR2, or2_star())
    ceiling, ok, slack = ceiling_check(OR2.n, certificate_size(OR2), raw)
    assert ok
    assert ceiling == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert slack == pytest.approx(2 * math.sqrt(2) - math.sqrt(2), abs=1e-9)


def test_barrier_fuzz_small():
    rng = substream(2, "fuzz")
    for f in (OR2, and_function(2), triangle_property_function()):
        k = certificate_size(f)
        ceiling = 2 * math.sqrt(f.n * k)
        for _ in range(300):
            gamma = random_valid_gamma(f, rng)
            if not gamma.any():
                continue
            raw, _ = adversary_value(f, gamma)
            assert raw <= ceiling + 1e-8


def test_restriction_never_raises_the_norm():
    rng = substream(3, "dom")
    f = or_function(3)
    for _ in range(100):
        gamma = random_valid_gamma(f, rng)
        lam = spectral_norm(gamma)
        for i in range(1, 4):
            assert spectral_norm(gamma_i(f, gamma, i)) <= lam + 1e-9


def test_or_star_ratio_is_sqrt_n():
    for n in (2, 4, 9, 16):
        f, gamma = or_star_instance(n)
        raw, _ = adversary_value(f, gamma)
        assert raw == pytest.approx(math.sqrt(n), abs=1e-9)


def test_decomposition_diagnostic_or4_star():
    f, gamma = or_star_instance(4)
    out = decomposition_diagnostic(f, gamma)
    assert out["ok"]
    assert out["identity_error"] <= 1e-9
    assert out["entrywise_excess"] <= 1e-9
    assert out["pairing_lhs"] >= out["pairing_rhs"] - 1e-9
    assert out["norm_sum"] <= out["norm_sum_ceiling"] + 1e-9
    assert out["ratio"] <= out["ratio_ceiling"] + 1e-9


@pytest.mark.parametrize("mix", [(1.0, 0.0), (-1.0, 0.0), (0.6, -0.8), (-0.8, -0.6)])
def test_decomposition_diagnostic_on_a_degenerate_top_eigenspace(mix):
    # parity on two bits with Gamma joining 00-01 and 11-10 only: two blocks with
    # the same top eigenvalue, so an eigensolver may return any unit mix of the
    # two Perron vectors, signs included; each must pass once made nonnegative
    f = PartialBooleanFunction(2, ("00", "01", "10", "11"), (0, 1, 1, 0))
    gamma = np.zeros((4, 4))
    gamma[0, 1] = gamma[1, 0] = gamma[3, 2] = gamma[2, 3] = 1.0
    top = np.array([mix[0], mix[0], mix[1], mix[1]]) / math.sqrt(2.0)
    real_eigh = np.linalg.eigh

    def eigh_returning_the_mix(mat):
        w, vecs = real_eigh(mat)
        vecs[:, -1] = top
        return w, vecs

    with mock.patch.object(np.linalg, "eigh", eigh_returning_the_mix):
        out = decomposition_diagnostic(f, gamma)
    assert out["ok"]
    assert out["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert out["half_split_error"] <= 1e-12


def test_all_zero_gamma_has_no_ratio_in_the_diagnostic():
    f = triangle_property_function()
    gamma = np.zeros((8, 8))
    with pytest.raises(ValueError, match="ratio is undefined"):
        adversary_value(f, gamma)
    with pytest.raises(ValueError, match="ratio is undefined"):
        decomposition_diagnostic(f, gamma)


def test_function_json_roundtrip(tmp_path):
    import json

    f = triangle_property_function()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    back = load_function(str(path))
    assert back == f

    gamma = random_valid_gamma(f, substream(4, "io"))
    mpath = tmp_path / "g.json"
    mpath.write_text(json.dumps({"matrix": gamma.tolist()}))
    assert np.array_equal(load_matrix(str(mpath)), gamma)
    mpath.write_text(json.dumps(gamma.tolist()))
    assert np.array_equal(load_matrix(str(mpath)), gamma)
