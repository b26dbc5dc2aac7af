"""Golden digests: a fixed seed and dataset must give the same artifact bytes.

A small banca-shaped synthetic run (4 modalities, 467 genuine and 624
impostor tuples) goes through every fusion method with a short GA and GP.
The SHA-256 of every artifact it writes is pinned below.  A refactor that
moves any byte fails here.

The digests were computed with Python 3.11.7 and numpy 2.4.6.  Another
numpy may round differently; regenerating them is a deliberate act that
CHANGES.md records with its reason.
"""

import hashlib

from fusebench import (
    EvolutionConfig,
    GaConfig,
    SyntheticSpec,
    generate_synthetic,
    run_experiment,
    write_artifacts,
)


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


def banca_shaped_run():
    spec = SyntheticSpec(
        modality_count=4,
        genuine_means=(1.2, 1.0, 0.8, 0.6),
        genuine_stddevs=(1.0,) * 4,
        impostor_means=(0.0,) * 4,
        impostor_stddevs=(1.0,) * 4,
        genuine_count=467,
        impostor_count=624,
        seed=2024,
    )
    ds = generate_synthetic(spec, name="banca-shaped")
    ga = GaConfig(seed=11, population_size=24, generations=4)
    gp = EvolutionConfig(seed=13, population_size=40, max_generations=4,
                         n_constants=10)
    return run_experiment(ds, seed=7, ga_config=ga, gp_config=gp)


def test_artifact_digests_are_pinned(tmp_path):
    result = banca_shaped_run()
    write_artifacts(result.artifacts, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN
