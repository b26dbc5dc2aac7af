"""Real-valued settings: every probability, bound, target, mean and stddev
goes through one check.

A bool, a string, None, a NaN, an infinity or an int too large for a float
is a ValidationError that names the setting, at construction or call, never
a numpy or Python error later in the run.  A numpy float is accepted and
stored as a Python float, so it reaches report.json as a JSON number.
"""

import math
import re
from operator import attrgetter

import numpy as np
import pytest

from fusebench.baselines import GaConfig, geometric_selection_probs
from fusebench.datasets import ScoreDataset, SyntheticSpec
from fusebench.errors import ValidationError, check_real
from fusebench.experiment import run_experiment
from fusebench.gp import EvolutionConfig
from fusebench.normalization import TanhNormalizer
from fusebench.trees import Const

TINY = ScoreDataset(2, [[0.9, 0.8], [0.7, 0.9], [0.8, 0.6], [0.6, 0.7]],
                    [[0.1, 0.3], [0.2, 0.1], [0.3, 0.2], [0.4, 0.4]], name="tiny")
# every valid value below is exact in float32, so np.float32 keeps it
GP_ODDS = dict(p_crossover=0.25, p_mutation=0.5, p_reproduction=0.25)


def _spec(**overrides):
    base = dict(modality_count=2, genuine_means=(1.0, 1.0), genuine_stddevs=(1.0, 1.0),
                impostor_means=(0.0, 0.0), impostor_stddevs=(1.0, 1.0),
                genuine_count=5, impostor_count=5, seed=0)
    base.update(overrides)
    return SyntheticSpec(**base)


def _field(cls, name, **fixed):
    return lambda value: cls(**{**fixed, name: value})


def _second(name):
    """Read the second entry of a per-modality tuple setting."""
    return lambda obj: getattr(obj, name)[1]


# (id, setting name in the message, build from the setting's value, read the
# stored setting, a valid value)
STORED = [
    *[(f"EvolutionConfig.{name}", name, _field(EvolutionConfig, name, seed=1, **GP_ODDS),
       attrgetter(name), valid)
      for name, valid in (("p_crossover", 0.25), ("p_mutation", 0.5),
                          ("p_reproduction", 0.25), ("tournament_p", 0.5),
                          ("fitness_target", 0.25))],
    *[(f"GaConfig.{name}", name, _field(GaConfig, name, seed=1), attrgetter(name), valid)
      for name, valid in (("selection_q", 0.5), ("weight_lo", -8.0), ("weight_hi", 8.0),
                          ("p_crossover", 0.5), ("p_mutation", 0.25))],
    *[(f"SyntheticSpec.{name}", f"{name}[1]",
       lambda v, name=name: _spec(**{name: (1.0, v)}), _second(name), valid)
      for name, valid in (("genuine_means", 0.5), ("genuine_stddevs", 2.0),
                          ("impostor_means", -0.5), ("impostor_stddevs", 0.25))],
    ("TanhNormalizer.means", "means[1]", lambda v: TanhNormalizer((0.0, v), (1.0, 1.0)),
     _second("means"), -8.0),
    ("TanhNormalizer.stddevs", "stddevs[1]",
     lambda v: TanhNormalizer((0.0, 0.0), (1.0, v)), _second("stddevs"), 0.5),
    ("Const.value", "constant", Const, attrgetter("value"), -8.0),
]
# (id, setting name, call with the setting's value, a valid value); nothing is stored
CALLS = [("geometric_selection_probs.q", "q",
          lambda q: geometric_selection_probs(5, q), 0.5)]
BUILDERS = [pytest.param(name, build, id=case_id)
            for case_id, name, build, *_ in STORED + CALLS]


@pytest.mark.parametrize("bad, message", [
    (True, "must be a real number, got True"),
    ("0.5", "must be a real number, got '0.5'"),
    (None, "must be a real number, got None"),
    (math.nan, r"must be finite and within \[.*\], got nan"),
    (math.inf, r"must be finite and within \[.*\], got inf"),
    (10**400, r"must be finite and within \[.*\], got 10{79}$"),
], ids=["True", "'0.5'", "None", "nan", "inf", "10**400"])
@pytest.mark.parametrize("name, build", BUILDERS)
def test_non_real_or_non_finite_is_a_validation_error_naming_the_setting(
    name, build, bad, message
):
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} {message}"):
        build(bad)


@pytest.mark.parametrize("numpy_float", [np.float32, np.float64])
@pytest.mark.parametrize("build, read, valid",
                         [pytest.param(*case[2:], id=case[0]) for case in STORED])
def test_numpy_float_is_stored_as_float(build, read, valid, numpy_float):
    stored = read(build(numpy_float(valid)))
    assert type(stored) is float and stored == valid


@pytest.mark.parametrize("numpy_float", [np.float32, np.float64])
@pytest.mark.parametrize("call, valid",
                         [pytest.param(*case[2:], id=case[0]) for case in CALLS])
def test_numpy_float_gives_the_python_float_result(call, valid, numpy_float):
    np.testing.assert_equal(call(numpy_float(valid)), call(valid))


@pytest.mark.parametrize("numpy_float", [np.float32, np.float64])
def test_numpy_float_settings_write_the_same_artifacts(numpy_float):
    """A float32 setting once reached json.dumps after the whole search and
    stopped it with a TypeError."""
    def run(real):
        ga = GaConfig(seed=1, population_size=4, generations=2, selection_q=real(0.5),
                      weight_lo=real(-8.0), weight_hi=real(8.0),
                      p_crossover=real(0.5), p_mutation=real(0.25))
        gp = EvolutionConfig(seed=2, population_size=6, max_generations=2, max_depth=4,
                             init_depth_max=4, n_constants=5, tournament_size=2,
                             tournament_p=real(0.5), fitness_target=real(0.25),
                             **{name: real(value) for name, value in GP_ODDS.items()})
        return run_experiment(TINY, methods=("sum", "weight", "gp"),
                              ga_config=ga, gp_config=gp).artifacts

    expected = run(float)
    assert run(numpy_float) == expected
    assert '"selection_q": 0.5' in expected["report.json"]


def test_check_real_message_names_the_setting():
    stored = check_real("tournament_p", np.float32(0.5), 0.0, 1.0)
    assert type(stored) is float and stored == 0.5
    with pytest.raises(ValidationError,
                       match=r"^tournament_p must be finite and within \[0, 1\], got 1.5$"):
        check_real("tournament_p", 1.5, 0.0, 1.0)
    with pytest.raises(ValidationError,
                       match=r"^fitness_target must be a real number, got np.True_$"):
        check_real("fitness_target", np.bool_(True), 0.0)
    # an int beyond float range is rejected, not rounded, and its repr is cut
    # to 80 characters
    with pytest.raises(ValidationError, match=r"^weight_lo must be finite and within "
                                              r"\[-inf, inf\], got -10{78}$"):
        check_real("weight_lo", -10**400)
