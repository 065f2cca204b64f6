"""Working memory of the Fock oracle at cutoff 40, measured in process with
tracemalloc: one density at a time, and temporaries of about a third of a
beam-splitter (bs) density, 20.48 MB of packed blocks, which the
recurrence route builds.

A mixture on the recurrence route sums its components into the first
one's buffer: its peak is at most two densities' blocks and the assembly
bound, about 52 MB at cutoff 40.

Every cache a measurement touches is filled before it is traced, so the
numbers are the call's own.  tracemalloc sees numpy's array data but not
LAPACK's workspace.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from squeezekit import (GaussianMixture, OneModeGaussian, TwoModeGaussian, beam_splitter,
                        mode_rotation)
from squeezekit import fock
from squeezekit.oracle_check import DEFAULT_SEED, run_concordance_suite

MB = 1e6
CUTOFF = 40
# Bounds on the temporaries above what a call leaves alive.  At cutoff 40
# they measure about 5.2 MB (assembly) and 8.0 MB (partial transpose,
# which reads the written upper band alone: the 5.12 MB real form of a
# block, and during its factorization two quarter-size temporaries and
# the panel solve's updates of at most 100 rows each); the margin is for
# numpy's own temporaries.
BS_ASSEMBLY_TRANSIENT_MB = 11.0
BS_PPT_TRANSIENT_MB = 9.0

_BS_STATE = mode_rotation(
    beam_splitter(OneModeGaussian(0.8, 0.5 + 0j), OneModeGaussian(0.6, 0.3j), 0.4), 0.3, 0.7)


def _traced(call):
    """(result, live MB the call left, peak MB above the memory before it)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (current - base) / MB, (peak - base) / MB


@pytest.fixture(scope="module")
def bs_density():
    rho = fock.two_mode_density(_BS_STATE, CUTOFF)
    fock.ppt_min_eigenvalue(rho)
    fock.moment_table(rho, 6)
    return rho


def test_bs_density_is_its_packed_blocks(bs_density):
    assert bs_density.route == "recurrence"
    assert bs_density.nbytes == 2 * 800 * 800 * 16


def test_bs_assembly_temporaries(bs_density):
    rho, live, peak = _traced(lambda: fock.two_mode_density(_BS_STATE, CUTOFF))
    assert live == pytest.approx(rho.nbytes / MB, abs=0.2)
    assert peak - live <= BS_ASSEMBLY_TRANSIENT_MB


def test_recurrence_mixture_sums_into_its_first_component(bs_density):
    # Two components on the recurrence route: the mixture's density is its
    # first component's buffer, so two densities' blocks are alive at once
    # (the sum and the component being added), and no third buffer.
    mixture = GaussianMixture(((0.5, _BS_STATE), (0.5, TwoModeGaussian.epr(0.8, 0.7 + 0j))))
    fock.two_mode_density(mixture, CUTOFF)
    rho, _, peak = _traced(lambda: fock.two_mode_density(mixture, CUTOFF))
    assert rho.route == "mixture" and rho.nbytes == bs_density.nbytes
    assert peak <= 2 * rho.nbytes / MB + BS_ASSEMBLY_TRANSIENT_MB


def test_bs_partial_transpose_temporaries(bs_density):
    _, live, peak = _traced(lambda: fock.ppt_min_eigenvalue(bs_density))
    assert abs(live) < 0.1
    assert peak <= BS_PPT_TRANSIENT_MB


def test_bs_partial_transpose_takes_the_real_solver(bs_density, monkeypatch):
    # The swap phase read off the moments gives both 800-state blocks the
    # real symmetric form, and the routine that decides each block, by
    # factorization or eigensolve, gets it.
    dtypes = []
    decide = fock._block_lowest_eigenvalue

    def spy(block):
        dtypes.append((block.dtype, block.shape))
        return decide(block)

    monkeypatch.setattr(fock, "_block_lowest_eigenvalue", spy)
    fock.ppt_min_eigenvalue(bs_density)
    assert dtypes == [(np.dtype(np.float64), (800, 800))] * 2


def test_moment_table_temporaries(bs_density):
    # Only the even band shifts on or above the diagonal are gathered on a
    # density graded by total parity: about 1.5 MB at cutoff 40, against
    # 2.9 MB for the even shifts on both sides.
    _, _, peak = _traced(lambda: fock.moment_table(bs_density, 6))
    assert peak <= 4.0


def test_concordance_suite_holds_one_density_at_a_time(bs_density):
    # At the default seed, 16 states give two bs states in a row.  The
    # first call fills the caches; the second is traced.
    kwargs = {"n_states": 16, "seed": DEFAULT_SEED}
    assert run_concordance_suite(**kwargs).ok
    report, _, peak = _traced(lambda: run_concordance_suite(**kwargs))
    assert report.ok
    assert peak <= bs_density.nbytes / MB + BS_ASSEMBLY_TRANSIENT_MB
