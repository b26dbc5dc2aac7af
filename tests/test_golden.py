"""Golden digests: a fixed seed and dataset must give the same artifact bytes.

A small banca-shaped synthetic run (4 modalities, 467 genuine and 624
impostor tuples) goes through every fusion method with a short GA and GP.
The SHA-256 of every artifact it writes is pinned below, and so are the GP's
two artifacts of a run at the default population of 500 trees, the GA's
whole history at its desk preset, and the column work of a default GP run.
A refactor that moves any byte fails here.

The digests were computed with Python 3.11.7 and numpy 2.4.6.  Another
numpy may round differently; regenerating them is a deliberate act that
CHANGES.md records with its reason.
"""

import hashlib

import numpy as np
import pytest

from fusebench import (
    EvolutionConfig,
    GaConfig,
    SyntheticSpec,
    fit_tanh_normalizer,
    ga_tune_weights,
    generate_synthetic,
    run_experiment,
    split_dataset,
    write_artifacts,
)
from fusebench.baselines import GA_PRESETS
from fusebench.gp import evolve, history_to_csv


GOLDEN = {
    "gp_best_tree.txt": "5fedf5c3af8507d12c88266f8ffdeb66503c6586f2975de0f73726dae354c53b",
    "gp_history.csv": "f2067a518322e3507b8ff778699428dad8b6ca1f218139d59ed9a23f341d7a6f",
    "normalization.json": "e0e994b704f32eb552a69129270ed6f5c9ef1463ffc515ee5fd1a08792b25be1",
    "report.json": "46a8d6612a31ddbb5e150f3e78fa0492ec6c7120cdb36f8cb019d3a9c883d523",
    "roc_gp.csv": "4b3e0e05123daf871c2e73bfcca78e035166e68ac72b89a8e41607f14e6fe66e",
    "roc_min.csv": "d9090a19fe8aae6720d1b2405dd67709bc21ebea31f022136b44ecef009f67c4",
    "roc_mul.csv": "bc0750b352069949886c3b9f61c8eca7f2eedd6ff8a2b2cf677a1bc1c23dc59b",
    "roc_s1.csv": "cd0587a0390abecafd1de03372d854ad32821261c13c7e7a97b3897ac9f010f0",
    "roc_s2.csv": "91a529110702e9e88641b9b5591f8d883af2707aabdf47117911e6b292ae65bf",
    "roc_s3.csv": "292d01d0d3a27a98ec1a1c04ff29704325a076406467cf9d10d410e0c7b36821",
    "roc_s4.csv": "8c0cfc1e64f045563eacd667abe1fd52366a1f7282ef53ed374ab0065de97950",
    "roc_sum.csv": "fba37cb0bb66464d0e3ff269dbb3cacb1fe2646bd67e9625adea679aacae6376",
    "roc_weight.csv": "26faf3d5b26e707754a5dbc12796972d236675f89aad9ac1326a409368b3b5b6",
}


# The GP's artifacts of a 500-tree population (the default size, where the
# run above breeds 40 trees) over 3 bred generations on the same dataset.
GP_500_GOLDEN = {
    "gp_best_tree.txt": "ee6ffd4549b74f9a58cef1a26ef87d2a3e8fb11897309d0977d7bb9e162d90e1",
    "gp_history.csv": "496543a36395697d959f077f04eecb8b1a713c3d77cfbce2306a7159b257a9ba",
}


# The GA's history (every generation's fitness statistics) and best weights
# at the desk preset, 200 chromosomes over 60 generations, on the same
# dataset: a change to its breeding that moves any draw moves these.
GA_DESK_HISTORY_SHA256 = "b96dd63c829f4474de81c51f8e469431733caf94662d0b4f9a7d43ca0203ccdd"
GA_DESK_BEST_WEIGHTS = (1.841851946680387, 1.059006667149135,
                        1.1000690756255829, 1.0049335353026745)


# The column cache's work over a default GP run, 500 trees over 50 bred
# generations, on the normalized training half of the same dataset.  The
# count of computed columns is exact where a time is not: a change to the
# cache or to evaluation order that moves either count fails here.
GP_COLUMN_WORK = {"hits": 105_339, "computed": 201_117}


def banca_shaped_dataset(integer=int):
    spec = SyntheticSpec(
        modality_count=4,
        genuine_means=(1.2, 1.0, 0.8, 0.6),
        genuine_stddevs=(1.0,) * 4,
        impostor_means=(0.0,) * 4,
        impostor_stddevs=(1.0,) * 4,
        genuine_count=integer(467),
        impostor_count=integer(624),
        seed=integer(2024),
    )
    return generate_synthetic(spec, name="banca-shaped")


def banca_shaped_run(integer=int):
    """The pinned run; ``integer`` builds every integer setting it passes."""
    ds = banca_shaped_dataset(integer)
    ga = GaConfig(seed=integer(11), population_size=integer(24),
                  generations=integer(4))
    gp = EvolutionConfig(seed=integer(13), population_size=integer(40),
                         max_generations=integer(4), n_constants=integer(10),
                         max_depth=integer(8), init_depth_min=integer(2),
                         init_depth_max=integer(8), tournament_size=integer(10))
    return run_experiment(ds, seed=integer(7), ga_config=ga, gp_config=gp)


def test_artifact_digests_are_pinned(tmp_path):
    result = banca_shaped_run()
    write_artifacts(result.artifacts, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_numpy_integer_settings_change_no_byte(integer):
    # numpy integers are stored as ints, so report.json still serializes
    assert banca_shaped_run(integer).artifacts == banca_shaped_run().artifacts


def test_default_population_gp_digests_are_pinned():
    result = run_experiment(banca_shaped_dataset(), methods=["gp"], seed=7,
                            gp_config=EvolutionConfig(seed=13, max_generations=3))
    digests = {name: hashlib.sha256(result.artifacts[name].encode()).hexdigest()
               for name in GP_500_GOLDEN}
    assert digests == GP_500_GOLDEN


def test_desk_ga_history_and_best_weights_are_pinned():
    result = ga_tune_weights(banca_shaped_dataset(),
                             GaConfig(seed=11, **GA_PRESETS["desk"]))
    history = history_to_csv(result.history)
    assert hashlib.sha256(history.encode()).hexdigest() == GA_DESK_HISTORY_SHA256
    assert result.best_individual == GA_DESK_BEST_WEIGHTS


def test_default_gp_column_work_is_pinned(column_work):
    split = split_dataset(banca_shaped_dataset())
    train = fit_tanh_normalizer(split.train).transform_dataset(split.train)
    evolve(train, EvolutionConfig(seed=7))
    assert column_work == GP_COLUMN_WORK
