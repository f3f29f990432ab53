"""Metamorphic relations: one `sim` run checked against another, with no oracle.

Each relation maps the inputs of a run to the inputs of a second run whose
output follows from the first (Chen et al., ACM Comput. Surv. 51, 4 (2018)).
Where the arithmetic of the two runs is the same up to exact operations,
the relation holds bit for bit.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletsim import config, runner

#: field magnitudes in mT, from zero to the largest allowed field
MAGNITUDES = (0.0, 0.05, 3.0, 31.7, 50.0, 120.0, 1000.0, config.MAX_FIELD_MT)
#: a grid of every magnitude with both signs, which crosses B = 0
SIGNED = tuple(sorted({*MAGNITUDES, *(-b for b in MAGNITUDES)}))
#: E in MHz at D = 1905 MHz: the default, the degenerate pairs and two near them
ZFS_E = (-475.0, 0.0, 1905.0, -1905.0, -1e-12, 1905.0 - 1e-12)
#: the key of each field-swept experiment's field grid
FIELD_GRID = {"spectrum": "grid", "field-odmr": "field_grid"}

SWEEPS = dict(
    experiment=st.sampled_from(sorted(FIELD_GRID)),
    axis=st.sampled_from(("x", "y", "z")),
    e=st.sampled_from(ZFS_E),
)


def _run(experiment, *assignments):
    raw = config.apply_overrides({}, list(assignments))
    return runner.run_experiment(config.parse_config(raw, experiment)).data


@functools.lru_cache(maxsize=None)
def _sweep(experiment, axis, e, fields):
    """The rows of a field sweep, with the field in the first column."""
    grid = f"{FIELD_GRID[experiment]}.values={list(fields)}"
    return _run(experiment, f"field.axis={axis}", f"zfs.e={e!r}", grid)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**SWEEPS, fields=st.lists(st.sampled_from(SIGNED), min_size=1, max_size=5, unique=True))
def test_each_row_reads_its_own_field(experiment, axis, e, fields):
    # any subset of a grid, in any order and on either side of zero, gives the
    # full grid's rows
    full = _sweep(experiment, axis, e, SIGNED)
    part = _sweep(experiment, axis, e, tuple(fields))
    for b in fields:
        assert np.array_equal(part[part[:, 0] == b], full[full[:, 0] == b]), b


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**SWEEPS, fields=st.lists(st.sampled_from(MAGNITUDES), min_size=1, max_size=4, unique=True))
def test_a_field_and_its_reverse_give_the_same_rows(experiment, axis, e, fields):
    plus = _sweep(experiment, axis, e, tuple(fields))
    minus = _sweep(experiment, axis, e, tuple(-b for b in fields))
    assert np.array_equal(minus[:, 0], -plus[:, 0])
    assert np.array_equal(minus[:, 1:], plus[:, 1:])


def _times(count):
    return st.lists(st.floats(0.0, 2.0), min_size=1, max_size=count, unique=True)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    rabi=st.floats(0.5, 50.0),
    t2_star=st.one_of(st.none(), st.floats(0.01, 5.0)),
    detuning=st.floats(-20.0, 20.0),
    durations=_times(8),
)
def test_rabi_times_four_at_a_quarter_of_the_frequencies(rabi, t2_star, detuning, durations):
    # powers of two scale a float exactly, so every product of a time and a
    # frequency, and every ratio of two times, is the same number in both runs
    def run(scale):
        t2 = None if t2_star is None else t2_star * scale
        return _run(
            "rabi",
            f"pulse.rabi={rabi / scale!r}",
            f"pulse.detuning={detuning / scale!r}",
            f"pulse.t2_star={'null' if t2 is None else repr(t2)}",
            f"grid.values={[t * scale for t in durations]}",
        )

    base, scaled = run(1.0), run(4.0)
    assert np.array_equal(scaled[:, 0], 4.0 * base[:, 0])
    assert np.array_equal(scaled[:, 1:], base[:, 1:])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    t2=st.floats(0.5, 50.0),
    nu=st.floats(0.5, 3.0),
    frequency=st.floats(0.01, 10.0),
    times=_times(8),
)
def test_echo_times_four_at_a_quarter_of_the_frequencies(t2, nu, frequency, times):
    def run(scale):
        return _run(
            "echo",
            f"coherence.t2={t2 * scale!r}",
            f"coherence.nu={nu!r}",
            f"coherence.eseem.frequency={frequency / scale!r}",
            f"grid.values={[t * scale for t in times]}",
        )

    base, scaled = run(1.0), run(4.0)
    assert np.array_equal(scaled[:, 0], 4.0 * base[:, 0])
    assert np.array_equal(scaled[:, 1:], base[:, 1:])
