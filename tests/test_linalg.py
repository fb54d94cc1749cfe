import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosynth import linalg
from holosynth import (
    Controller,
    DimensionError,
    NonSkewInput,
    NonUnitaryInput,
    SingularInput,
    eig_unitary,
    haar_unitary,
    polar_unitary,
    synthesize,
    transform_controller,
)
from holosynth.extremal import check_target
from helpers import (
    _embedding_serial, eig_unitary_reference, embedded_reference, expm_eigen,
    expm_taylor_squaring, random_haar, random_skew, unitarity_defect_reference,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestEigUnitary:
    def test_identity(self):
        r, gammas = eig_unitary(np.eye(2, dtype=complex))
        np.testing.assert_allclose(gammas, [0.0, 0.0])
        np.testing.assert_allclose(r, np.eye(2), atol=1e-14)

    def test_hadamard_phases_and_diagonalizer(self):
        r, gammas = eig_unitary(HADAMARD)
        np.testing.assert_allclose(gammas, [0.0, np.pi], atol=1e-14)
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        np.testing.assert_allclose(r, [[c, -s], [s, c]], atol=1e-14)

    def test_already_diagonal(self):
        r, gammas = eig_unitary(np.diag([1j, -1.0]).astype(complex))
        np.testing.assert_allclose(gammas, [np.pi / 2, np.pi], atol=1e-14)
        np.testing.assert_allclose(r, np.eye(2), atol=1e-14)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryInput):
            eig_unitary(np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex))

    def test_rejects_an_empty_matrix(self):
        # a 0 x 0 gate is square and vacuously unitary, but has no eigenphase
        ctrl = synthesize(HADAMARD).controller
        for call in (eig_unitary, synthesize, linalg.check_unitary,
                     lambda u: check_target(ctrl, u),
                     lambda u: transform_controller(ctrl, u, np.eye(2))):
            with pytest.raises(DimensionError, match="empty"):
                call(np.zeros((0, 0)))

    def test_phase_near_two_pi_snaps_to_zero(self):
        u = np.array([[np.exp(1j * (2 * np.pi - 1e-14))]], dtype=complex)
        _, gammas = eig_unitary(u)
        assert gammas[0] == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_reconstruction_on_random_unitaries(self, dim):
        rng = np.random.default_rng(42 + dim)
        for _ in range(25):
            u = random_haar(rng, dim)
            r, gammas = eig_unitary(u)
            recon = r @ np.diag(np.exp(1j * gammas)) @ r.conj().T
            assert np.linalg.norm(recon - u) < 1e-10
            assert np.all(gammas >= 0.0) and np.all(gammas < 2 * np.pi)
            assert np.all(np.diff(gammas) >= 0.0)
            assert np.linalg.norm(r.conj().T @ r - np.eye(dim)) < 1e-12

    def test_degenerate_cluster_reconstruction(self):
        rng = np.random.default_rng(5)
        # spectrum with a three-fold degenerate phase
        q = random_haar(rng, 4)
        u = q @ np.diag(np.exp(1j * np.array([0.7, 0.7, 0.7, 2.1]))) @ q.conj().T
        r, gammas = eig_unitary(u)
        recon = r @ np.diag(np.exp(1j * gammas)) @ r.conj().T
        assert np.linalg.norm(recon - u) < 1e-10


TWO_PI = 2.0 * np.pi
CENTERS = (0.0, np.pi / 2, np.pi, TWO_PI)
SEEDS = st.integers(0, 2**32 - 1)


def assert_decomposes(gammas, seed):
    """eig_unitary of Q diag(e^{i gammas}) Q^H (Q Haar) returns a unitary
    diagonalizer and the snapped, sorted gammas."""
    gammas = np.asarray(gammas, dtype=float) % TWO_PI
    q = random_haar(np.random.default_rng(seed), len(gammas))
    u = q @ np.diag(np.exp(1j * gammas)) @ q.conj().T
    r, got = eig_unitary(u)
    snap = linalg.PHASE_SNAP
    want = np.where((gammas <= snap) | (gammas >= TWO_PI - snap), 0.0, gammas)
    recon = r @ np.diag(np.exp(1j * got)) @ r.conj().T
    assert np.linalg.norm(recon - u) <= 1e-11
    assert np.linalg.norm(r.conj().T @ r - np.eye(len(gammas))) <= 1e-12
    np.testing.assert_allclose(got, np.sort(want), rtol=0.0, atol=1e-12)


class TestEigUnitaryAdversarial:
    """Spectra built from known phases, so no reference solver is needed.

    Near pi/2 a pair gamma, gamma + d keeps a cos gap of about d but a sin
    gap of about d^2, and near 0 and pi the reverse, so a method that tells
    phases apart by cos gamma or by sin gamma alone meets a gap of about
    d^2 somewhere; the decomposition must resolve d itself.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        center=st.sampled_from(CENTERS),
        exponent=st.integers(4, 9),
        shift=st.sampled_from((-2.0, -0.5, 0.0, 1.0)),
        extra=st.lists(st.floats(1e-6, TWO_PI - 1e-6), max_size=3),
        seed=SEEDS,
    )
    def test_close_pairs(self, center, exponent, shift, extra, seed):
        delta = 10.0**-exponent
        low = center + shift * delta
        assert_decomposes([low, low + delta, *extra], seed)

    @settings(max_examples=20, deadline=None)
    @given(gamma=st.floats(1e-9, np.pi), seed=SEEDS)
    def test_mirror_pairs(self, gamma, seed):
        assert_decomposes([gamma, TWO_PI - gamma], seed)

    @settings(max_examples=20, deadline=None)
    @given(
        clusters=st.lists(
            st.tuples(
                st.sampled_from((0.0, 1.0, np.pi / 2, np.pi, 3 * np.pi / 2, 5.0)),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=3,
        ),
        seed=SEEDS,
    )
    def test_exact_clusters(self, clusters, seed):
        assert_decomposes([g for g, m in clusters for _ in range(m)], seed)

    # A phase within roundoff of the snap bound (1e-12 from 0 or 2*pi)
    # may land on either side of it, so offsets stay clear of that band.
    @settings(max_examples=20, deadline=None)
    @given(
        offset=st.one_of(st.just(0.0), st.floats(1e-9, TWO_PI / 64 - 1e-9)),
        seed=SEEDS,
    )
    def test_64_evenly_spread_phases(self, offset, seed):
        assert_decomposes(offset + TWO_PI * np.arange(64) / 64, seed)


def assert_matches_reference(u):
    """eig_unitary returns bit for bit what its reference implementation does."""
    r, gammas = eig_unitary(u)
    r_ref, gammas_ref = eig_unitary_reference(u)
    assert np.array_equal(gammas, gammas_ref)
    assert np.array_equal(r, r_ref)


def spectrum_gate(gammas, seed):
    q = random_haar(np.random.default_rng(seed), len(gammas))
    return q @ np.diag(np.exp(1j * np.asarray(gammas, dtype=float))) @ q.conj().T


class TestEigUnitaryMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 16), seed=SEEDS)
    def test_haar_gates(self, k, seed):
        assert_matches_reference(random_haar(np.random.default_rng(seed), k))

    @pytest.mark.parametrize("k", range(1, 17))
    def test_identity(self, k):
        assert_matches_reference(np.eye(k, dtype=complex))

    @settings(max_examples=30, deadline=None)
    @given(
        clusters=st.lists(
            st.tuples(st.floats(0.0, TWO_PI, exclude_max=True), st.integers(1, 4)),
            min_size=1,
            max_size=4,
        ),
        seed=SEEDS,
    )
    def test_degenerate_clusters(self, clusters, seed):
        assert_matches_reference(spectrum_gate([g for g, m in clusters for _ in range(m)], seed))

    @settings(max_examples=40, deadline=None)
    @given(
        near=st.lists(
            st.tuples(st.sampled_from((0.0, TWO_PI)), st.floats(-1e-13, 1e-13)),
            min_size=1,
            max_size=4,
        ),
        extra=st.lists(st.floats(1e-6, TWO_PI - 1e-6), max_size=3),
        seed=SEEDS,
    )
    def test_phases_next_to_zero_and_two_pi(self, near, extra, seed):
        assert_matches_reference(spectrum_gate([a + d for a, d in near] + extra, seed))

    @settings(max_examples=30, deadline=None)
    @given(
        start=st.floats(0.0, 5.0),
        spread=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
        seed=SEEDS,
    )
    def test_widest_gap_wraps_around(self, start, spread, seed):
        # every phase lies in [start, start + 1], so the gap from the last
        # back round to the first, at least 2*pi - 1, is the widest
        assert_matches_reference(spectrum_gate([start + s for s in spread], seed))


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                 complex(np.inf, 0.0), complex(0.0, np.inf),
                                 complex(-np.inf, 0.0), complex(0.0, -np.inf)])
def test_a_non_finite_real_or_imaginary_part_is_rejected(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    for call in (linalg.check_unitary, polar_unitary,
                 lambda a: Controller(omega=a, coupling=np.eye(2)),
                 lambda a: Controller(omega=np.zeros((2, 2)), coupling=a)):
        with pytest.raises(DimensionError, match="non-finite"):
            call(m)


def _expm(a, t=1.0):
    """exp(t*A) of a skew-Hermitian A = i*H through the Hermitian eigen-data of H."""
    return expm_eigen(*np.linalg.eigh(-1j * a), t)


class TestExpmSkew:
    def test_zero_generator(self):
        np.testing.assert_allclose(
            _expm(np.zeros((3, 3), dtype=complex)), np.eye(3), atol=1e-15
        )

    def test_planar_rotation_by_pi(self):
        a = np.array([[0, np.pi], [-np.pi, 0]], dtype=complex)
        np.testing.assert_allclose(_expm(a), -np.eye(2), atol=1e-13)

    def test_matches_taylor_oracle_on_synthesized_controller(self):
        x = synthesize(HADAMARD).controller.matrix
        got = _expm(x)
        want = expm_taylor_squaring(x)
        assert np.linalg.norm(got - want) < 1e-12

    def test_taylor_oracle_on_random_skews(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4, 6):
            a = random_skew(rng, dim)
            assert np.linalg.norm(_expm(a) - expm_taylor_squaring(a)) < 1e-12

    def test_rejects_non_skew(self):
        with pytest.raises(NonSkewInput):
            Controller(omega=np.eye(2), coupling=np.zeros((2, 2)))

    def test_result_is_unitary(self):
        rng = np.random.default_rng(1)
        a = random_skew(rng, 5)
        u = _expm(a, 0.37)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        dim=st.integers(1, 4),
        s=st.floats(-2.0, 2.0),
        t=st.floats(-2.0, 2.0),
    )
    def test_group_law(self, seed, dim, s, t):
        a = random_skew(np.random.default_rng(seed), dim)
        lhs = _expm(a, s + t)
        rhs = _expm(a, s) @ _expm(a, t)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 5), t=st.floats(-3.0, 3.0))
    def test_inverse_law(self, seed, dim, t):
        a = random_skew(np.random.default_rng(seed), dim)
        prod = _expm(a, t) @ _expm(a, -t)
        assert np.linalg.norm(prod - np.eye(dim)) < 1e-12

    def test_small_time_taylor_truncation_order(self):
        rng = np.random.default_rng(3)
        a = random_skew(rng, 3)

        def truncation_error(t):
            approx = np.eye(3) + t * a + 0.5 * t**2 * (a @ a)
            return np.linalg.norm(_expm(a, t) - approx)

        e1, e2 = truncation_error(1e-2), truncation_error(5e-3)
        assert e1 / e2 >= 7.5  # cubic remainder shrinks ~8x when t halves

    @pytest.mark.parametrize("times", [[0.3, 0.7], [0.3, 0.7, 0.1]])
    def test_an_array_of_times_is_rejected(self, times):
        # an array of times would broadcast against the eigenvalues and
        # scale the columns of q^H instead of its rows (off by 0.65 and 0.89
        # for these two times), or pair each time with one eigenvalue
        a = random_skew(np.random.default_rng(4), 3)
        w, q = np.linalg.eigh(-1j * a)
        with pytest.raises(TypeError):
            expm_eigen(w, q, np.array(times))
        for t in times:
            assert np.linalg.norm(expm_eigen(w, q, t) - expm_taylor_squaring(a, t)) < 1e-12


class TestPolarUnitary:
    def test_positive_scaling(self):
        np.testing.assert_allclose(
            polar_unitary(2.0 * np.eye(3, dtype=complex)), np.eye(3), atol=1e-14
        )

    def test_unitary_fixed_point(self):
        rng = np.random.default_rng(9)
        u = random_haar(rng, 4)
        np.testing.assert_allclose(polar_unitary(u), u, atol=1e-13)

    def test_diagonal_stretch(self):
        m = np.diag([1.1, 0.9]).astype(complex)
        np.testing.assert_allclose(polar_unitary(m), np.eye(2), atol=1e-14)

    def test_closest_unitary_property(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q = polar_unitary(m)
        base = np.linalg.norm(m - q)
        for _ in range(50):
            other = random_haar(rng, 3)
            assert base <= np.linalg.norm(m - other) + 1e-12

    def test_rejects_singular(self):
        with pytest.raises(SingularInput):
            polar_unitary(np.diag([1.0, 0.0]).astype(complex))


class TestRejections:
    @pytest.mark.parametrize("call, arg, message", [
        (linalg.as_complex_matrix, np.ones(3), "expected a 2-D matrix, got ndim=1"),
        (linalg.as_complex_matrix, np.ones((2, 2, 2)), "expected a 2-D matrix, got ndim=3"),
        (linalg.check_skew, np.zeros((2, 3)), r"matrix must be square, got shape \(2, 3\)"),
        (polar_unitary, np.ones((3, 2)), r"polar_unitary needs a square matrix, got \(3, 2\)"),
    ], ids=["vector", "stack", "skew-not-square", "polar-not-square"])
    def test_a_wrong_shape_is_refused_by_name(self, call, arg, message):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            call(arg)

    @pytest.mark.parametrize("omega", [[[1e308]], [[1e308, 0.0], [-1e308j, 0.0]]], ids=str)
    def test_an_overflowing_skew_defect_is_inf_without_a_warning(self, omega):
        # pytest turns a numpy RuntimeWarning into an error
        assert linalg.skewness_defect(np.array(omega, dtype=complex)) == np.inf
        with pytest.raises(NonSkewInput, match=r"= inf > 1\.0e-10$"):
            Controller(omega=omega, coupling=np.ones((len(omega), 1)))


class TestHaarUnitary:
    def test_unitary_and_deterministic(self):
        u1 = haar_unitary(4, np.random.default_rng(123))
        u2 = haar_unitary(4, np.random.default_rng(123))
        assert np.array_equal(u1, u2)
        assert np.linalg.norm(u1.conj().T @ u1 - np.eye(4)) < 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 4, 16])
    def test_single_draw_matches_the_unbatched_formula(self, dim):
        # the catalog's random-k gates are single draws: the batched
        # implementation must leave them bit for bit as they were
        got = haar_unitary(dim, np.random.default_rng(dim))
        assert np.array_equal(got, random_haar(np.random.default_rng(dim), dim))

    def test_batched_draws_are_distinct_unitaries(self):
        stack = linalg._haar_stack(3, np.random.default_rng(4), (50,))
        assert stack.shape == (50, 3, 3)
        gram = np.swapaxes(stack, -2, -1).conj() @ stack
        assert np.abs(gram - np.eye(3)).max() < 1e-13
        assert not np.allclose(stack[0], stack[1])


class TestEmbeddedGram:
    """The oracle fold's Gram rule, ||G - I||_F^2 on G read off the even
    rows of the embedded Gram matrix E(G) = e(U)^T e(U) in complex view,
    summed by the reduction `unitarity_defect` shares, and
    `unitarity_defect` itself, against the references of `helpers`: a
    test-side embedding, an np.kron embedding and the norm-based defect."""

    @staticmethod
    def _defect(frames):
        embedded = embedded_reference(frames)
        gram = np.swapaxes(embedded, -2, -1) @ embedded
        return linalg._squared_gram_defect(gram[..., 0::2, :].view(complex)) ** 0.5

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9, 16])
    def test_the_embeddings_product_is_the_embedded_complex_product(self, k):
        rng = np.random.default_rng(k)
        shape = (5, 2 * k + 1, k)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        product = np.swapaxes(embedded_reference(a), -2, -1) @ embedded_reference(b)
        reference = _embedding_serial(a.conj().swapaxes(-1, -2) @ b)
        assert product.shape == (5, 2 * k, 2 * k)
        assert np.abs(product - reference).max() <= 1e-13

    @pytest.mark.parametrize("scale", [None, 1e-2, 1e-6, 1e-9, 0.0],
                             ids=["gaussian", "1e-2", "1e-6", "1e-9", "orthonormal"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_the_embedded_defect_is_the_unitarity_defect(self, k, scale):
        # a Gaussian stack, and orthonormal stacks perturbed by `scale`:
        # within 1e-15 of the defect, or of the Gram matrices' norm where
        # that is larger, the scale of the roundoff in G - I that either
        # product leaves
        rng = np.random.default_rng(200 + k)
        shape = (6, 2 * k + 1, k)
        frames = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if scale is not None:
            frames = np.linalg.qr(frames)[0] * (1.0 + scale * rng.standard_normal(shape))
        reference = unitarity_defect_reference(frames)
        grams = np.linalg.norm(frames.conj().swapaxes(-1, -2) @ frames, axis=(-2, -1)).max()
        for defect in (self._defect(frames), linalg.unitarity_defect(frames)):
            gap = abs(defect - reference)
            assert gap <= 1e-15 * max(reference, grams), (gap, reference)

    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_an_error_off_the_diagonal_alone_is_caught(self, k):
        # two unit columns that are not orthogonal: G - I is zero on the
        # diagonal, 1e-8 off it
        tilt = np.eye(k, dtype=complex)
        tilt[0, 1], tilt[1, 1] = 1e-8, np.sqrt(1.0 - 1e-16)
        frames = random_haar(np.random.default_rng(k), 2 * k)[None, :, :k] @ tilt
        gram = frames[0].conj().T @ frames[0]
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-15
        for defect in (self._defect(frames), linalg.unitarity_defect(frames)):
            assert defect == pytest.approx(np.sqrt(2.0) * 1e-8, rel=1e-6)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_an_error_on_the_diagonal_alone_is_caught(self, k):
        frames = random_haar(np.random.default_rng(k), 2 * k)[None, :, :k].copy()
        frames[..., 0] *= 1.0 + 1e-8
        gram = frames[0].conj().T @ frames[0]
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-15
        for defect in (self._defect(frames), linalg.unitarity_defect(frames)):
            assert defect == pytest.approx(2e-8, rel=1e-6)

    def test_overflow_gives_an_inf_defect_without_a_warning(self):
        # pytest turns a RuntimeWarning into an error
        big = np.diag([1.0, 1e200]).astype(complex)
        assert not linalg.unitarity_defect(big) <= 1.0
        stack = np.stack([np.eye(2, dtype=complex), big])
        assert not linalg.unitarity_defect(stack) <= 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # the Gram product's own overflow
            embedded = embedded_reference(stack)
            gram = np.swapaxes(embedded, -2, -1) @ embedded
        assert not linalg._squared_gram_defect(gram[..., 0::2, :].view(complex)) <= 1.0

    @pytest.mark.parametrize("given", [
        np.eye(2, dtype=int), np.array([[1, 1], [0, 1]]),
        np.linalg.qr(np.random.default_rng(7).standard_normal((3, 5, 2)))[0].astype(np.float32),
        random_haar(np.random.default_rng(8), 3).astype(np.complex64),
        [[1, 1], [0, 1]], random_haar(np.random.default_rng(9), 2).tolist(),
    ], ids=["int-eye", "int", "float32", "complex64", "int-list", "complex-list"])
    def test_any_numeric_input_is_read_in_double_precision(self, given):
        # an integer Gram matrix cannot take 1.0 away in place, and a
        # float64 view of a float32 one would misread its bytes
        reference = unitarity_defect_reference(given)
        assert linalg.unitarity_defect(given) == pytest.approx(reference, rel=1e-12, abs=1e-14)
