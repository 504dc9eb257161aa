"""Acceptance battery: one test per advertised criterion, at the stated
tolerances.  Each test prints its pass/fail line; `gaplab verify-all` runs
the same checks from the command line."""

import pytest

from gaplab import verify

CHECKS = dict(verify.ACCEPTANCE_CHECKS)


def _run(name, fast=False):
    outcome = CHECKS[name](fast=fast)
    print(outcome.line())
    assert outcome.passed, outcome.detail
    return outcome


def test_criterion_01_kac_exact_gap():
    _run("kac-exact-gap")


def test_criterion_02_caputo_identity():
    _run("caputo-identity")


def test_criterion_03_gamma_exact_gap():
    _run("gamma-exact-gap")


def test_criterion_04_conditional_operator_spectrum():
    _run("conditional-operator-spectrum")


def test_criterion_05_zero_range_kernels():
    _run("zero-range-kernels")


@pytest.mark.slow
def test_criterion_06_lattice_comparison():
    _run("lattice-comparison")


def test_criterion_07_two_site_sandwich():
    _run("two-site-sandwich")


def test_criterion_08_uniform_collapse():
    _run("uniform-collapse")


@pytest.mark.slow
def test_criterion_09_lemma_audits():
    _run("lemma-audits")


@pytest.mark.slow
def test_criterion_10_mc_oracle_agreement():
    outcome = _run("mc-oracle-agreement")
    # every trajectory is a pure function of its seed, so the hits repeat exactly.
    # Instance 8 (simple average, identity rates, K3, omega = 4) has a degenerate
    # gap: the generator's rounding picks its observable, 19 hits with the blocks
    # built from models.pair_law
    assert "hits (20, 20, 19, 19, 19, 20, 19, 19, 20, 20, 20, 20)" in outcome.detail


def test_criterion_11_certificate_chain():
    _run("certificate-chain")
