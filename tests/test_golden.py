"""The committed golden outputs: the runs of ``compare_outputs.RUNS`` write
the same measurements as the references under ``tests/golden``.

Equal bytes pass at once.  Otherwise ``compare_outputs.compare_file``
requires equal headers, keys, row counts and integer fields, and gives the
worst float drift (relative to the column's max-abs in a text file, to the
value itself in a JSON file), which must be within the file's tolerance
below.  The bytes depend on the BLAS kernels that the platform picks (the
manifest's ``provenance`` names them), so the test passes on the
tolerances alone.

Every tolerance is at most 1e-10, so that a 1e-9 change to one entry or
to the viscosity fails, and at least 3.3e-12, ten times the worst drift a
landed rounding-level change has shown (3.3e-13 of ``psi2_matrix.csv``'s
max-abs, when the tangent matrices came to be built from one tensor).
The references were written by ``python tests/compare_outputs.py --write``;
a change that means to move the outputs writes them anew and says so.
"""

from pathlib import Path

from compare_outputs import compare_trees, data_files, write_runs

GOLDEN = Path(__file__).parent / "golden"

TOLERANCES = {
    "couple-pairs/coupling_steps.csv": 1e-11,
    "couple-pairs/coupling_summary.json": 1e-11,
    "couple/coupling_steps.csv": 1e-11,
    "couple/coupling_summary.json": 1e-11,
    "linearize/a_matrix.csv": 1e-11,
    "linearize/gram_spectrum.csv": 1e-11,
    "linearize/psi1_diagonal.csv": 1e-11,
    "linearize/psi2_matrix.csv": 1e-11,
    "linearize/psi2_singular_values.csv": 1e-11,
    "mix/ck": 1e-11,
    "mix/ck.rows": 1e-11,
    "mix/mix_distances.csv": 1e-11,
    "mix/mix_summary.json": 1e-11,
    "noise-check/noise_check.json": 1e-11,
    "simulate/endpoint_field.csv": 1e-11,
    "simulate/per_kick.csv": 1e-11,
    "spectrum/constants.json": 1e-11,
    "spectrum/spectrum.csv": 1e-11,
}


def test_tolerance_table_covers_the_references():
    assert sorted(TOLERANCES) == data_files(GOLDEN)
    assert all(3.3e-12 <= tol <= 1e-10 for tol in TOLERANCES.values())


def test_runs_match_golden_outputs(tmp_path):
    write_runs(tmp_path)
    failed = [f"{name}: {verdict}" for name, verdict, ok in
              compare_trees(GOLDEN, tmp_path, TOLERANCES) if not ok]
    assert not failed, "\n".join(failed)
