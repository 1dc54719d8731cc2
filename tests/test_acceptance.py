"""Acceptance gate: every golden-value and property criterion, one per test.

Each test prints one line per check and asserts all of them.  Three checks
are expected to fail and are isolated in their own tests so the failure is
visible and attributable; their tolerances cannot be met by the objects
they pin down (see README, "Known failing checks"):

  * criterion 4a: the midpoint product-quadrature sections of the
    integration operator deviate from 2/((2n-1) pi) by (pi (2n-1)/(4N))^2/3,
    which is 1.283e-2 at n = 128, N = 1024: above the stated 1%.
  * criterion 5a: sigma_max of the N = 1024 Hilbert section is 2.445; the
    sections converge to pi only logarithmically, so the stated lower
    bracket 2.9 would need N of order 1e10.
  * criterion 6c: at L = 12 both N = 2048 and N = 4096 Gaussian FFT errors
    sit at the float64 rounding floor (~1e-14), so no halving is visible.
"""

import pytest

from illposed import acceptance, discretize


def _run(results):
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    assert not failed, "; ".join(res.criterion for res in failed)


def _pick(results, prefix):
    chosen = [r for r in results if r.criterion.startswith(prefix)]
    assert chosen, f"no checks match {prefix!r}"
    return chosen


def test_criterion_1_hausdorff_curve_severity_and_norm():
    _run(acceptance.criterion_1())


def test_criterion_2_reference_multiplier_family():
    _run(acceptance.criterion_2())


def test_criterion_3_estimator_equivalence_and_integer_identity():
    _run(acceptance.criterion_3())


@pytest.fixture(scope="module")
def criterion_4_results():
    return acceptance.criterion_4()


def test_criterion_4_sigma_accuracy(criterion_4_results):
    # known failing: actual deviation 1.283e-2 against the stated 1e-2
    _run(_pick(criterion_4_results, "4a"))


def test_criterion_4_end_to_end_degrees(criterion_4_results):
    _run(_pick(criterion_4_results, "4b")
         + _pick(criterion_4_results, "4c")
         + _pick(criterion_4_results, "4d"))


@pytest.fixture(scope="module")
def criterion_5_results():
    return acceptance.criterion_5()


def test_criterion_5_sigma_max_bracket(criterion_5_results):
    # known failing: sigma_max(1024) = 2.445 < 2.9
    _run(_pick(criterion_5_results, "5a"))


def test_criterion_5_monotone_growth_and_artifact_flag(criterion_5_results):
    _run(_pick(criterion_5_results, "5b") + _pick(criterion_5_results, "5c"))


@pytest.fixture(scope="module")
def criterion_6_results():
    return acceptance.criterion_6()


def test_criterion_6_fft_accuracy_and_plancherel(criterion_6_results):
    _run(_pick(criterion_6_results, "6a") + _pick(criterion_6_results, "6b"))


def test_criterion_6_error_halving(criterion_6_results):
    # known failing: both refinement levels sit at the rounding floor
    _run(_pick(criterion_6_results, "6c"))


def test_criterion_7_reweighting():
    _run(acceptance.criterion_7())


def test_criterion_8_diagnostics():
    _run(acceptance.criterion_8())


def test_criterion_9_unbounded_gallery():
    _run(acceptance.criterion_9())


def test_criterion_10_rearrangement_duality():
    _run(acceptance.criterion_10())


# the criteria keep nothing between calls: each computes what it reads once

def _counted(monkeypatch, name, key):
    calls, real = [], getattr(discretize, name)

    def counted(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(discretize, name, counted)
    return calls


def test_criterion_4_solves_its_two_sections_on_every_call(monkeypatch):
    calls = _counted(monkeypatch, "pipeline_from_matrix",
                     lambda section, operator: (operator, len(section)))
    for _ in range(2):
        calls.clear()
        acceptance.criterion_4()
        assert calls == [("j_alpha", 1024)] * 2


def test_criterion_6_transforms_each_size_once_on_every_call(monkeypatch):
    calls = _counted(monkeypatch, "fft_multiplier", lambda sampler: sampler.N)
    for _ in range(2):
        calls.clear()
        acceptance.criterion_6()
        assert calls == [4096, 2048]


def test_acceptance_keeps_no_cache():
    assert not [name for name in dir(acceptance)
                if hasattr(getattr(acceptance, name), "cache_info")]
