import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletsim.coherence import (
    PROTON,
    AcSignal,
    CoherenceModel,
    CouplingDistribution,
    DarkSpin,
    DdScalingParams,
    EseemParams,
    NuclearSpecies,
    ac_echo_response,
    correlation_spectroscopy,
    dd_t2_scaling,
    deer_rabi,
    deer_spectrum,
    echo_envelope,
    nmr_frequency,
    simulate_rabi,
)
from tripletsim.errors import InvalidParameterError
from tripletsim.fitting import model_eval
from tripletsim.photokinetics import (
    KineticRates,
    isc_branching_from_steady_state,
    propagators,
    rate_matrix,
    t1_relaxation_curve,
)
from tripletsim.pulse_engine import LaserPulse, MwPulse, ReadoutPulse, Wait, simulate_field_odmr
from tripletsim.spin_model import FieldVector, GyroRatio, ZfsParams, field_sweep_spectrum

NAN, INF = math.nan, math.inf
ZFS = ZfsParams(d=1.905e9, e=-0.475e9)
rates = partial(KineticRates, triplet_lifetimes=(1e-4, 2e-5, 1e-4), isc_branching=(0.2, 0.3, 0.5))
RATES = rates()
DARK = DarkSpin(g_factor=2.0, coupling=CouplingDistribution(mean=0.5e6, spread=0.2e6))


@pytest.mark.parametrize(
    "make, bad, message",
    [
        # pulse_engine
        (LaserPulse, {"duration": -1.0}, "duration must be >= 0, got -1.0"),
        (partial(LaserPulse, 1e-6), {"intensity": NAN}, "intensity must be >= 0, got nan"),
        (Wait, {"duration": INF}, "duration must be >= 0, got inf"),
        (ReadoutPulse, {"intensity": -0.5}, "intensity must be >= 0, got -0.5"),
        (partial(MwPulse, duration=1e-7, transition=("x", "y")), {"rabi_freq": -1.0},
         "Rabi frequency must be >= 0, got -1.0"),
        (partial(simulate_field_odmr, ZFS, RATES, "z", [0.0], [1e9]), {"linewidth": 0.0},
         "linewidth must be > 0, got 0.0"),
        # photokinetics
        (partial(propagators, RATES, intensity=1.0), {"duration": -1.0},
         "duration must be >= 0, got -1.0"),
        (partial(rate_matrix, RATES), {"intensity": -1.0}, "intensity must be >= 0, got -1.0"),
        (rates, {"triplet_lifetimes": (1e-4, 0.0, 1e-4)}, "triplet lifetime must be > 0, got 0.0"),
        (rates, {"isc_branching": (1.5, -0.5, 0.0)},
         "ISC branching fraction must lie in [0, 1], got 1.5"),
        (rates, {"pump_rate": -1.0}, "pump rate must be >= 0, got -1.0"),
        (rates, {"s1_decay_rate": 0.0}, "S1 decay rate must be > 0, got 0.0"),
        (rates, {"isc_yield": NAN}, "ISC yield must lie in [0, 1], got nan"),
        # spin_model
        (partial(ZfsParams, e=0.0), {"d": NAN}, "zfs parameter must be finite, got nan"),
        (FieldVector, {"bz": INF}, "field component must be finite, got inf"),
        (GyroRatio, {"gamma": NAN}, "gamma must be finite, got nan"),
        (partial(field_sweep_spectrum, ZFS, "z"), {"b_values": [0.0, NAN]},
         "field component must be finite, got nan"),
        # coherence
        (partial(EseemParams, 1.0, 0.5), {"frequency": 0.0},
         "ESEEM modulation frequency must be > 0, got 0.0"),
        (CoherenceModel, {"t2": -1.0}, "T2 must be > 0, got -1.0"),
        (partial(CoherenceModel, 1.0), {"nu": 5.0},
         "stretching exponent must lie in (0, 4], got 5.0"),
        (partial(DdScalingParams, 1.0, t1_rho=1.0), {"nu": 0.0},
         "scaling exponent must lie in (0, 4], got 0.0"),
        (partial(DdScalingParams, 1.0, 1.0), {"t1_rho": INF}, "T1rho must be > 0, got inf"),
        (partial(AcSignal, frequency=1.0), {"amplitude": -1.0},
         "AC amplitude must be >= 0, got -1.0"),
        (partial(AcSignal, 1.0), {"frequency": 0.0}, "AC frequency must be > 0, got 0.0"),
        (partial(NuclearSpecies, "x"), {"gamma": 0.0}, "nuclear gamma must be > 0, got 0.0"),
        (partial(correlation_spectroscopy, PROTON, 1.0, [0.0], 1e-6, probe_gamma=28e9),
         {"nuclear_t1": 0.0}, "nuclear T1 must be > 0, got 0.0"),
        (partial(CouplingDistribution, spread=1.0), {"mean": NAN},
         "coupling mean must be finite, got nan"),
        (partial(CouplingDistribution, 0.0), {"spread": -1.0},
         "coupling spread must be >= 0, got -1.0"),
        (partial(DarkSpin, coupling=DARK.coupling), {"g_factor": 0.0},
         "g-factor must be > 0, got 0.0"),
        (partial(deer_spectrum, DARK, 1.0, [1e9]), {"t_fix": 0.0},
         "fixed echo time must be > 0, got 0.0"),
        (partial(simulate_rabi, durations=[0.0]), {"rabi_freq": INF},
         "Rabi frequency must be > 0, got inf"),
        (partial(simulate_rabi, 1e6, [0.0]), {"t2_star": NAN}, "T2* must be > 0, got nan"),
        (partial(deer_rabi, DARK, durations=[0.0]), {"drive_rabi": -1.0},
         "drive Rabi frequency must be >= 0, got -1.0"),
        # fitting
        (partial(model_eval, "linear", x=[0.0]), {"params": [NAN, 0.0]},
         "linear.slope must be finite, got nan"),
        (partial(model_eval, "stretched_exp", x=[0.0]), {"params": [-1.0, 1.0, 1.0]},
         "stretched_exp.t2 must be > 0, got -1.0"),
        (partial(model_eval, "stretched_exp", x=[0.0]), {"params": [1.0, 5.0, 1.0]},
         "stretched_exp.nu must lie in (0, 4.0], got 5.0"),
        # coherence, the infinite T2* that is not "no dephasing"
        (partial(simulate_rabi, 1e6, [0.0]), {"t2_star": -INF}, "T2* must be > 0, got -inf"),
        # coherence, a phase average over no phases
        (partial(correlation_spectroscopy, PROTON, 0.19, [0.0, 1e-6], 1e-7, 1e-3, probe_gamma=28e9),
         {"n_phase_samples": 0}, "need at least one phase sample"),
        # photokinetics, a lifetime whose decay rate overflows
        (rates, {"triplet_lifetimes": (1e-4, 1e-311, 1e-4)},
         "triplet decay rate 1/lifetime must be finite, got inf"),
        (partial(isc_branching_from_steady_state, (1.0, 1.0, 1.0)), {"lifetimes": (1e-311, 1, 1)},
         "triplet decay rate 1/lifetime must be finite, got inf"),
    ],
)
def test_parameter_rules_have_one_wording(make, bad, message):
    with pytest.raises(InvalidParameterError) as info:
        make(**bad)
    assert str(info.value) == message


#: (function of one array, lowest valid entry, scale of a typical entry, message)
ARRAY_RULES = [
    (partial(echo_envelope, CoherenceModel(1e-6)), 0.0, 1e-6, "times must be >= 0"),
    (partial(ac_echo_response, AcSignal(1e-3, 1e5), probe_gamma=28e9), 0.0, 1e-6,
     "tau values must be >= 0"),
    (partial(nmr_frequency, PROTON), 0.0, 1.0, "field magnitude must be >= 0"),
    (partial(correlation_spectroscopy, PROTON, 0.19, tau=1e-6, nuclear_t1=1e-3, probe_gamma=28e9),
     0.0, 1e-6, "storage times must be >= 0"),
    (partial(simulate_rabi, 5e6), 0.0, 1e-6, "durations must be >= 0"),
    (partial(deer_rabi, DARK, 1e6), 0.0, 1e-6, "durations must be >= 0"),
    (partial(dd_t2_scaling, DdScalingParams(1e-6, 0.5, 1e-3)), 1.0, 1.0,
     "pulse number must be >= 1"),
    (partial(t1_relaxation_curve, RATES), 0.0, 1e-6, "delays must be >= 0"),
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rule=st.sampled_from(ARRAY_RULES),
    entries=st.lists(
        st.one_of(st.floats(-2.0, 2.0), st.sampled_from([NAN, INF, -INF])), min_size=1, max_size=4
    ),
)
def test_array_rules_let_no_non_finite_or_out_of_domain_entry_through(rule, entries):
    function, lowest, scale, message = rule
    values = np.asarray(entries) * scale
    if np.all(np.isfinite(values) & (values >= lowest)):
        assert np.all(np.isfinite(function(values)))
    else:
        with pytest.raises(InvalidParameterError) as info:
            function(values)
        assert str(info.value) == message
