from fractions import Fraction

import pytest

from neutral_sampler.sampling import BRUTEFORCE_MAX_N, CapExceededError
from neutral_sampler import verify
from neutral_sampler.verify import SUITES, run_suite


def test_oracle_suite_runs_580_checks():
    rows = list(run_suite("oracle"))
    assert len(rows) == 580
    assert all(ok for _, ok, _ in rows)


def test_max_size_bounds_every_suite():
    # Every eta of n <= 2 on each of the 20 vectors.
    assert len(list(run_suite("oracle", max_size=2))) == 3 * 20
    assert len(list(run_suite("normalization", max_size=1))) == 4
    assert len(list(run_suite("consistency", max_size=2))) == 5
    labels = [label for label, _, _ in run_suite("all", max_size=2)]
    assert not any("n=3" in label for label in labels)
    for name in SUITES:
        assert any(label.startswith(name) for label in labels)


def test_theta_replaces_orthogonality_thetas():
    rows = list(run_suite("orthogonality", max_size=3, theta=Fraction(3)))
    assert rows and all(label.endswith("theta=3") and ok for label, ok, _ in rows)


@pytest.mark.parametrize("name,max_size", [("oracle", 0), ("consistency", 1),
                                           ("orthogonality", 1), ("all", 1)])
def test_size_a_suite_cannot_take_raises_before_any_row(name, max_size):
    with pytest.raises(ValueError, match="below"):
        run_suite(name, max_size=max_size)


@pytest.mark.parametrize("name", ["oracle", "consistency", "all"])
def test_theta_without_a_theta_suite_raises(name):
    with pytest.raises(ValueError, match="theta"):
        run_suite(name, theta=Fraction(2))


@pytest.mark.parametrize("name", ["oracle", "all"])
def test_size_over_the_oracle_cap_raises_before_any_row(name):
    with pytest.raises(CapExceededError, match="exceeds cap %d" % BRUTEFORCE_MAX_N):
        run_suite(name, max_size=BRUTEFORCE_MAX_N + 1)


def test_size_over_the_oracle_cap_is_taken_by_other_suites():
    rows = list(run_suite("rate-function", max_size=BRUTEFORCE_MAX_N + 1))
    assert any("n=%d" % (BRUTEFORCE_MAX_N + 1) in label for label, _, _ in rows)
    assert all(ok for _, ok, _ in rows)


def test_transient_suite_runs_216_checks():
    rows = list(run_suite("transient"))
    assert len(rows) == 216
    assert all(ok for _, ok, _ in rows)


def test_transient_suite_catches_one_wrong_eigen_coefficient(monkeypatch):
    # C_2 of the sampler of eta = (2,1) moves by 1/7: the sum over n = 3 and
    # the consistency of its two children, (2) and (1,1), fail at each of the
    # 3 thetas on each of the 3 vectors.
    original = verify.eigen_coefficients
    target = (((2, 1), 3),)  # P_3(2,1) = 3 p^o_(2,1)

    def perturbed(theta, f, x):
        coeffs = original(theta, f, x)
        if f == target:
            coeffs = dict(coeffs)
            coeffs[2] = coeffs.get(2, 0) + Fraction(1, 7)
        return coeffs

    monkeypatch.setattr(verify, "eigen_coefficients", perturbed)
    failures = [label for label, ok, _ in run_suite("transient", max_size=3)
                if not ok]
    assert len(failures) == 27
    assert all(label.startswith(("transient sum n=3 ",
                                 "transient consistency xi=(2) ",
                                 "transient consistency xi=(1,1) "))
               for label in failures)
