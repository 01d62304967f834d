"""The seeded polynomial generator: frozen streams, feasible requests, refusals."""

import numpy as np
import pytest

from apspec import PreconditionError, generate_polynomial

# (seed, dim, n_terms) at radius 2 and gap 0.5 -> freqs bytes, coeffs bytes.
# Seed 10006 needs 17094 draws and several restarts, close to the old cap
# of 20000 tries, so its stream pins the restart path as well
PINNED = [
    ((1, 1, 3),
     "8f7210935130eabf1c9e77d1c717eb3f552a78d7326afe3f",
     "d8bed1d4c082c53fb7fd854a68d6e5bf10ccb8c2f602aebf7be3a7e39d67bb3f"
     "b9a7b648a8c6e0bf781c0726bc65c0bf"),
    ((5, 2, 2),
     "99c680fa07cce7bf948ca2bf60a6f3bf422d8e820482db3f262a00c6e594f23f",
     "4733d109c60ada3f4e2430d08e79c03f2a55212c9a6fc13f4020a643491b47bf"),
    ((10006, 3, 5),
     "2d6ea6824b1ffabffa46749df072cdbfefba57865dec913f923515df6272ebbf"
     "fa44228a3e81f5bf9e6055f567c4e33f78b350b16a83c9bf575afae2990bfb3f"
     "02423cf04285ebbf6f33c04cb16ed73f189839507affe23ffdb02d2ec025f8bf"
     "43cb5aab36eef03f1792f3c8c484e7bf32d8a431696af83f",
     "dd97ec9300abc53f4b53e268f894d03fd69760423519d53f6a1edfd9d841e03f"
     "8fe9928dc069c23f613904a75487eb3fcc3248207d28a83ffcaaf35866f8c23f"
     "42c1c12e76ddd03f0672fa8a957dd3bf"),
]


@pytest.mark.parametrize("args,freqs_hex,coeffs_hex", PINNED)
def test_seeds_keep_their_polynomials_bitwise(args, freqs_hex, coeffs_hex):
    seed, dim, n_terms = args
    p = generate_polynomial(seed=seed, dim=dim, n_terms=n_terms, radius=2.0, min_gap=0.5)
    assert p.freqs.tobytes().hex() == freqs_hex
    assert p.coeffs.tobytes().hex() == coeffs_hex


@pytest.mark.parametrize("seed", [10177, 10239])
def test_feasible_requests_past_the_old_cap_build(seed):
    # both gave up after 20000 tries; 5 terms fit easily (the bound is 9)
    p = generate_polynomial(seed=seed, dim=3, n_terms=5, radius=2.0, min_gap=0.5)
    assert p.freqs.shape == (5, 3)
    assert np.all(np.linalg.norm(p.freqs, axis=1) <= 2.0)
    gaps = np.abs(p.freqs[:, None, :] - p.freqs[None, :, :])
    off_diagonal = ~np.eye(5, dtype=bool)
    assert np.all(gaps[off_diagonal] >= 0.5)


@pytest.mark.parametrize("radius,min_gap,n_terms", [(2.0, 0.5, 10), (1.0, 1.0, 4),
                                                     (0.2, 0.5, 2)])
def test_requests_past_the_per_axis_bound_are_refused(monkeypatch, radius, min_gap,
                                                      n_terms):
    # floor(2 radius / min_gap) + 1 distinct first coordinates fit in
    # [-radius, radius]; one more term is refused before any draw
    def no_draws(seed):
        raise AssertionError("the generator drew numbers for an infeasible request")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(PreconditionError, match="cannot fit"):
        generate_polynomial(seed=1, dim=2, n_terms=n_terms, radius=radius, min_gap=min_gap)


def test_request_at_the_bound_is_not_refused_up_front():
    # 2 terms at gap 1 inside radius 0.5 sit at the two ends of the first axis
    with pytest.raises(PreconditionError, match="could not place"):
        generate_polynomial(seed=1, dim=1, n_terms=2, radius=0.5, min_gap=1.0, max_tries=50)
    p = generate_polynomial(seed=1, dim=1, n_terms=1, radius=0.5, min_gap=1.0)
    assert p.n_terms == 1
