"""Known mutants of the library and the tests that kill them.

Pytest does not collect this file. Run it from the repository root:

    python tests/mutants.py

For each mutant it copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, replaces the one occurrence of the mutant's old text by
its new text, runs the mutant's tests on that copy in a subprocess and
reports the mutant killed (some test failed) or survived. Any other pytest
outcome, such as a test id that no longer exists, stops the run. It exits 1
if any mutant survived. ``tests/test_distance.py`` checks that every old
text still occurs exactly once, so a refactor has to update this list
rather than strand it.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


DISTANCE = "src/allocmap/distance.py"
WALK_ORDER = (
    "tests/test_distance.py::test_valuation_leaf_pass_decides_pairs_by_walk_order",
    "tests/test_distance.py::test_valuation_first_leaf_in_walk_order_matches_search_oracle_bitwise",
)
FSUM_ROWS = (
    "tests/test_distance.py::test_fsum_rows_returns_the_bits_of_math_fsum",
    "tests/test_distance.py::test_fsum_rows_sends_only_uncertified_rows_to_math_fsum",
)
FEATURES = "src/allocmap/features.py"
FEATURE_ORACLE = "tests/test_features.py::test_feature_table_matches_oracle_bitwise"
TWO_LEADING = "tests/test_features.py::test_walk_with_two_leading_goods_matches_oracle_bitwise"
ONE_WRITER = (
    "tests/test_io.py::test_files_are_opened_only_by_the_dataio_reader_and_writer",
    "tests/test_io.py::test_pipeline_writes_every_file_through_one_writer",
)

MUTANTS = [
    Mutant(
        "leaf costs summed in reversed agent order",
        DISTANCE,
        "cells = (pairs[:, None] * n + orders[pairs]) * n + paths",
        "cells = ((pairs[:, None] * n + orders[pairs]) * n + paths)[:, ::-1]",
        ("tests/test_distance.py::test_valuation_leaf_pass_sums_leaf_costs_in_matching_order",),
    ),
    Mutant(
        "distinct leaves within the bound settled by the least one",
        DISTANCE,
        "key=lambda c: _walk_key(first, second, order, paths[c])",
        "key=found.__getitem__",
        WALK_ORDER,
    ),
    Mutant(
        "distinct leaves within the bound settled by the last in walk order",
        DISTANCE,
        "best[p] = found[min(cands,",
        "best[p] = found[max(cands,",
        WALK_ORDER,
    ),
    Mutant(
        "every pair of a block walked in its first pair's agent order",
        DISTANCE,
        "_settle(tensor, orders[a[block]],",
        "_settle(tensor, orders[a[lo]][None].repeat(len(tensor), axis=0),",
        (
            "tests/test_distance.py::test_valuation_block_pairs_walk_their_own_first_instances_agents",
            "tests/test_distance.py::test_preset_matrices_keep_their_bytes_at_any_thread_count",
        ),
    ),
    Mutant(
        "open pair's identity never solved after the leaf pass",
        DISTANCE,
        "        identity(np.flatnonzero(~early & (lower <= least + 2 * _PRUNE_SLACK)))\n",
        "",
        (
            "tests/test_distance.py::test_valuation_open_pair_solves_its_identity_near_the_least_leaf",
            "tests/test_distance.py::test_preset_matrices_keep_their_bytes_at_any_thread_count",
        ),
    ),
    Mutant(
        "walk order keyed by partner agents only",
        DISTANCE,
        "key += [cost[np.arange(m), _assign(cost[None])[0]].sum(), a]",
        "key += [a]",
        WALK_ORDER,
    ),
    Mutant(
        "canonical sums without the math.fsum fallback",
        DISTANCE,
        "    r[rest] = [math.fsum(row) for row in terms[rest].tolist()]\n",
        "",
        FSUM_ROWS,
    ),
    Mutant(
        "canonical sum certificate widened to the whole gap",
        DISTANCE,
        "(2.0 * (np.abs(d) + 2.0 * tail) < gap)",
        "(np.abs(d) + 2.0 * tail < gap)",
        FSUM_ROWS,
    ),
    Mutant(
        "leaf candidates without the slack",
        DISTANCE,
        "keep = totals <= np.maximum(bounds, least)[pairs] + _PRUNE_SLACK",
        "keep = totals <= np.maximum(bounds, least)[pairs]",
        ("tests/test_distance.py::test_valuation_leaf_pass_prices_every_leaf_near_the_least_total",),
    ),
    Mutant(
        "leaf bound over-estimated by half",
        DISTANCE,
        "return np.maximum(by_rows, by_cols)",
        "return 1.5 * np.maximum(by_rows, by_cols)",
        ("tests/test_distance.py::test_pairwise_valuation_matches_search_oracle_bitwise",),
    ),
    Mutant(
        "pool without the first pair slice",
        DISTANCE,
        "*zip(*slices)",
        "*zip(*slices[1:])",
        ("tests/test_distance.py::test_pairwise_thread_count_irrelevant",),
    ),
    Mutant(
        "pool built before the parent imports the solver",
        DISTANCE,
        "        # forked workers inherit the solver instead of each importing SciPy\n"
        "        import scipy.optimize  # noqa: F401\n",
        "",
        ("tests/test_distance.py::test_pool_workers_inherit_the_solver_from_the_parent",),
    ),
    Mutant(
        "process-pool stack imported with the distance module",
        DISTANCE,
        "from functools import partial\n",
        "from concurrent.futures import ProcessPoolExecutor\nfrom functools import partial\n",
        ("tests/test_io.py::test_fresh_interpreter_loads_the_pool_stack_only_for_a_pool",),
    ),
    Mutant(
        "demand costs replaced by a fixed matrix",
        DISTANCE,
        "cols = _assign(_agent_sum(np.abs(slabs, out=slabs)))",
        "cols = _assign(np.ones(slabs.shape[:1] + slabs.shape[2:]))",
        ("tests/test_distance.py::test_pairwise_demand_matches_oracle_bitwise",),
    ),
    Mutant(
        "two lanes of the demand costs' 8-lane tree swapped",
        DISTANCE,
        "        for gap in (1, 2, 4):\n",
        "        lanes[:, [1, 2]] = lanes[:, [2, 1]]\n        for gap in (1, 2, 4):\n",
        (
            "tests/test_distance.py::test_demand_costs_add_agents_in_numpys_pairwise_order",
            "tests/test_distance.py::test_preset_matrices_keep_their_bytes_at_any_thread_count"
            "[10x20-7-demand-eda5a6ca8a815ba15268e05964274f05415952e09380f259dd642dce76d0461f]",
        ),
    ),
    Mutant(
        "envy sums folded in reversed agent order",
        FEATURES,
        "per_agent.sum(axis=0)",
        "per_agent[::-1].sum(axis=0)",
        (FEATURE_ORACLE,),
    ),
    Mutant(
        "Nash products folded in reversed agent order",
        FEATURES,
        "own.prod(axis=0)",
        "own[::-1].prod(axis=0)",
        (FEATURE_ORACLE,),
    ),
    Mutant(
        "leading goods added after the trailing ones in the bundle walk",
        FEATURES,
        "    for j in range(lead):\n"
        "        tables[rows, :, owners[:, j], 0] += arr[:, j]\n"
        "    for g in range(trailing):\n"
        "        half = 1 << g\n"
        "        np.add(tables[..., :half], arr[:, lead + g, None, None], out=tables[..., half : 2 * half])\n",
        "    for g in range(trailing):\n"
        "        half = 1 << g\n"
        "        np.add(tables[..., :half], arr[:, lead + g, None, None], out=tables[..., half : 2 * half])\n"
        "    for j in range(lead):\n"
        "        tables[rows, :, owners[:, j]] += arr[:, j, None]\n",
        (TWO_LEADING,),
    ),
    Mutant(
        "shares from the first chunk only",
        FEATURES,
        "first = n ** max(m - _trailing(n, m) - 1, 0)",
        "first = 1",
        (TWO_LEADING,),
    ),
    Mutant(
        "mms_ok without the re-walk of the first chunks",
        FEATURES,
        'values["mms_ok"] = not pending or any(',
        'values["mms_ok"] = not pending or False and any(',
        ("tests/test_features.py::test_mms_ok_decided_by_the_walk_again_over_the_first_chunks",),
    ),
    Mutant(
        "mms_ok checked from the chunk after the shares settle",
        FEATURES,
        "if pending and c >= first - 1:",
        "if pending and c >= first:",
        ("tests/test_features.py::test_mms_ok_checked_from_the_last_chunk_of_the_shares",),
    ),
    Mutant(
        "own diagonal left unmasked before the envy max",
        FEATURES,
        "            diag[...] = -np.inf\n",
        "            pass\n",
        (FEATURE_ORACLE,),
    ),
    Mutant(
        "preference diversity averaged over the strided pairs",
        FEATURES,
        "np.ascontiguousarray(dist[:, pairs[0], pairs[1]]).mean(axis=1)",
        "dist[:, pairs[0], pairs[1]].mean(axis=1)",
        ("tests/test_features.py::test_matrix_columns_match_per_instance_oracle_bitwise",),
    ),
    Mutant(
        "SMACOF without the coincident-point fix-up",
        "src/allocmap/embedding.py",
        "            b[~positive] = -0.0\n",
        "            pass\n",
        ("tests/test_embedding.py::test_coincident_points_match_reference_loop",),
    ),
    Mutant(
        "Jacobi sign of t without + 0.0",
        "src/allocmap/spectral.py",
        "np.sqrt(1.0 + tau * tau)), tau + 0.0)",
        "np.sqrt(1.0 + tau * tau)), tau)",
        ("tests/test_spectral.py::test_jacobi_stack_matches_one_matrix_at_a_time_bitwise",),
    ),
    Mutant(
        "label rule without the '#' check",
        "src/allocmap/core.py",
        "        elif lab.startswith(\"#\"):\n            fault = f\"label {lab!r} cannot start with '#'\"\n",
        "",
        ("tests/test_io.py::test_labels_at_the_edges_of_the_rule_round_trip_through_every_csv",),
    ),
    Mutant(
        "distinct cells found by float value, which merges 0.0 and -0.0",
        "src/allocmap/dataio.py",
        "np.unique(np.ascontiguousarray(arr, dtype=np.float64).ravel().view(np.int64), return_inverse=True)",
        "np.unique(np.ascontiguousarray(arr, dtype=np.float64).ravel(), return_inverse=True)",
        ("tests/test_io.py::test_distance_csv_row_format_is_fmt17",),
    ),
    Mutant(
        "reasons file written by a direct open",
        "src/allocmap/dataio.py",
        "    _write_text(_reasons_path(path) if reasons_path is None else reasons_path, reasons)\n",
        "    with open(_reasons_path(path) if reasons_path is None else reasons_path, \"w\") as fh:\n"
        "        fh.write(\"\\n\".join(reasons) + \"\\n\")\n",
        ONE_WRITER,
    ),
    Mutant(
        "circle markers drawn with a larger radius",
        "src/allocmap/render.py",
        '"r": "4"',
        '"r": "5"',
        (
            "tests/test_io.py::test_render_svg_marker_classes",
            "tests/test_io.py::test_render_svg_category_colors",
        ),
    ),
    Mutant(
        "SVG written by ElementTree.write",
        "src/allocmap/render.py",
        'dataio._write_text(path, [ET.tostring(root, encoding="unicode", xml_declaration=True)])',
        'ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)',
        ONE_WRITER,
    ),
]


def killed(mutant: Mutant) -> bool:
    """Whether some test of ``mutant`` fails on a mutated copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text must occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, capture_output=True, text=True,
        )
        if run.returncode not in (0, 1):
            raise SystemExit(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
        return run.returncode == 1


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        ok = killed(mutant)
        survivors += not ok
        print(f"{'killed  ' if ok else 'SURVIVED'}  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
