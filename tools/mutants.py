"""Mutation check: does a fast test subset catch each named break of the kernels?

Each mutant is ``(name, old, new, tests)``: a textual edit of the package
source in which ``old`` occurs exactly once across ``src/eqhilb/*.py``, and
the test files that should catch it.  The kernels of the search, the
statistic, the abacus and the insertion map run ``KERNELS``

    python -m pytest -q -x tests/test_coloring.py tests/test_tangent.py \
        tests/test_abacus.py tests/test_stabilization.py

the analysis layer runs ``ANALYSIS``, ``tests/test_analysis.py`` alone,
and the subcommand table of the CLI runs ``CLI``, ``tests/test_cli.py`` and
the three golden replays ``tests/test_cli_*golden.py``.
For each mutant the tool copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory, applies the edit there, runs the mutant's tests
on the copy, and prints ``name KILLED`` if a test fails (or the run exceeds
``TIMEOUT_S``) and ``name SURVIVED`` if every test passes.  The checkout
itself is never edited.

    python3 tools/mutants.py

``tools/mutants.expected`` holds what it prints, with a
``#`` comment on why each expected survivor is equivalent; CI diffs a run
against that file without its comments.  A change that adds a prune or a
closed form adds its mutants here in the same change.  It exits 1 if an
``old`` does not occur exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("tests/test_coloring.py", "tests/test_tangent.py", "tests/test_abacus.py",
           "tests/test_stabilization.py")
ANALYSIS = ("tests/test_analysis.py",)
CLI = ("tests/test_cli.py", "tests/test_cli_golden.py", "tests/test_cli_formats_golden.py",
       "tests/test_cli_help_golden.py")
TIMEOUT_S = 300

#: (name, old, new, tests); each old occurs exactly once in src/eqhilb/*.py
MUTANTS = (
    # the node body of coloring._search
    ("no_row_fits_return_dropped",
     "            if shortest > max_row:\n                # no row that long fits below row j-1\n"
     "                break\n",
     "", KERNELS),
    ("repeat_child_bound_ignores_its_colors",
     "after, run + 1, bound",
     "after, run + 1, rows_left - 1", KERNELS),
    ("column_reopen_dropped",
     "                    ends[cycle[row + length]] += 1\n",
     "", KERNELS),
    ("closed_kept_on_reopen",
     "                    closed -= keys[cycle[below + length]]\n",
     "", KERNELS),
    ("repeat_child_run_reset",
     "after, run + 1, bound",
     "after, 1, bound", KERNELS),
    ("tail_at_the_root_repeats",
     "if length < max_row or length == 1:",
     "if length < max_row:", KERNELS),
    # the unwind of a frame's run of equal rows
    ("unwind_counts_restore_dropped",
     "            for col in cycle[starts[k]:starts[k] + max_row]:\n                counts[col] -= 1\n",
     "", KERNELS),
    ("unwind_keys_on_the_wrong_row",
     "keys[cycle[starts[k - 1] + max_row]] -= 1",
     "keys[cycle[starts[k] + max_row]] -= 1", KERNELS),
    ("unwind_rows_kept",
     "            rows.pop()\n            keys[cycle[starts[k - 1]",
     "            keys[cycle[starts[k - 1]", KERNELS),
    ("shorter_child_run_0",
     "closed, 1, bound)",
     "closed, 0, bound)", KERNELS),
    ("fill_bound_non_strict",
     "if b < bound:",
     "if b <= bound:", KERNELS),
    # the bounds, caps, tallies and statistic folding of coloring._search
    ("wait_one_visit_late",
     "wait = [m * (r - v) for v",
     "wait = [m * (r - v + 1) for v", KERNELS),
    ("leaf_without_run_laps",
     "dims.append(dim + laps[run] + sum(",
     "dims.append(dim + sum(", KERNELS),
    ("ends_start_at_r_plus_1",
     "ends = [r] * m",
     "ends = [r + 1] * m", KERNELS),
    ("shortest_rounded_down",
     "shortest = -(-remaining // rows_left)",
     "shortest = remaining // rows_left", KERNELS),
    ("tail_count_one_row_short",
     "starts[k:k + remaining].count(",
     "starts[k:k + remaining - 1].count(", KERNELS),
    ("row_end_cap_strict",
     "m * keys[last] + first[last] >= len(rows) + rows_left",
     "m * keys[last] + first[last] > len(rows) + rows_left", KERNELS),
    # the balance test coloring._tallies_match
    ("tally_row_residues_a_j",
     "sorted([b * j % n for j in range(len(rows))])",
     "sorted([a * j % n for j in range(len(rows))])", KERNELS),
    ("tally_column_end_one_low",
     "(a * i + b * h) % n for i, h in",
     "(a * i + b * (h - 1)) % n for i, h in", KERNELS),
    ("tally_unit_shortcut_dropped",
     "    if math.gcd(a, n) == 1:\n        return True\n",
     "", KERNELS),
    # the family memo's index of members: coloring._held and the emptying rules,
    # and the cycle _search breaks so that the rows the index did not keep are freed
    ("members_built_without_the_index",
     "_members.get(rows) or _members.setdefault(rows, Partition._of(rows))",
     "Partition._of(rows)", KERNELS),
    ("empty_memo_keeps_its_index",
     "    if not _balanced_family.cache_info().currsize:\n        _members.clear()\n",
     "", KERNELS),
    ("member_budget_never_fires",
     "if len(_members) > _MEMO_MEMBERS:",
     "if False and len(_members) > _MEMO_MEMBERS:", KERNELS),
    ("search_cycle_kept",
     "    del extend\n",
     "", KERNELS),
    # the statistic tangent._cell_dimension
    ("cell_key_one_column_long",
     "key[:length].count(",
     "key[:length + 1].count(", KERNELS),
    ("cell_row_end_leg_off_by_one",
     "if b * (heights[length - 1] - j) % n == 0:",
     "if b * (heights[length - 1] - j - 1) % n == 0:", KERNELS),
    ("cell_column_key_at_height",
     "key = [(a * i + b * (h - 1)) % n",
     "key = [(a * i + b * h) % n", KERNELS),
    # abacus.runners and abacus.from_core_quotient
    ("size_identity_raise_dropped",
     "    if size_check != lam.size:\n        raise InvariantViolationError(\n"
     "            f\"size identity failed for {lam} at n={n}: {lam.size} != {size_check}\"\n"
     "        )\n",
     "", KERNELS),
    ("alignment_m_mod_n",
     "MultiPartition._of(tuple(quot), -m % n)",
     "MultiPartition._of(tuple(quot), m % n)", KERNELS),
    ("rotation_offset_d_off_by_one",
     "d = (-len(rows) - rho) % n",
     "d = (-len(rows) - rho + 1) % n", KERNELS),
    ("core_level_test_le",
     "if levels != sum(c * (c - 1) // 2 for c in sizes):",
     "if levels <= sum(c * (c - 1) // 2 for c in sizes):", KERNELS),
    ("extra_starts_at_minus_1",
     "        extra = 0\n",
     "        extra = -1\n", KERNELS),
    # stabilization._anchor
    ("anchor_skips_the_last_point",
     "    for t in range(r + 1):\n        pt = Box(",
     "    for t in range(r):\n        pt = Box(", KERNELS),
    # analysis.multipartition_count: the divisor sieve and the exact division
    ("sigma_sieve_steps_by_1",
     "for k in range(d, r + 1, d):",
     "for k in range(d, r + 1):", ANALYSIS),
    ("sigma_sieve_skips_divisor_1",
     "for d in range(1, r + 1):",
     "for d in range(2, r + 1):", ANALYSIS),
    ("count_convolution_one_step_off",
     "sigma[m:0:-1]",
     "sigma[m - 1::-1]", ANALYSIS),
    ("count_true_division",
     "// m)  # exact",
     "/ m)  # exact", ANALYSIS),
    # analysis._interpolate: divided differences, then multiplied out
    ("divided_difference_step_width_1",
     "(xs[i] - xs[i - step])",
     "(xs[i] - xs[i - 1])", ANALYSIS),
    ("divided_differences_swept_forward",
     "for i in range(len(xs) - 1, step - 1, -1):",
     "for i in range(step, len(xs)):", ANALYSIS),
    ("multiply_out_sign",
     "low - x * high",
     "low + x * high", ANALYSIS),
    # analysis.fit_quasipolynomial and verify_quasipolynomial: hold-outs and the refit
    ("fit_trains_on_its_holdout",
     "train = pts[:-1]",
     "train = pts", ANALYSIS),
    ("fit_flags_skip_its_holdout",
     "for n, v in pts)",
     "for n, v in train)", ANALYSIS),
    ("verify_holds_out_one_per_class",
     "_HOLDOUT = 2",
     "_HOLDOUT = 1", ANALYSIS),
    ("verify_extrapolation_unchecked",
     "all(qp.evaluate(n) == counts[n] for n in extrap_ns)",
     "True", ANALYSIS),
    ("valid_from_refit_dropped",
     "qp = fit_from(1 + max(",
     "qp = qp or fit_from(1 + max(", ANALYSIS),
    ("valid_from_at_the_missed_order",
     "qp = fit_from(1 + max(",
     "qp = fit_from(0 + max(", ANALYSIS),
    # analysis.hj_expand
    ("hj_term_floor_plus_1",
     "q = -(-x // y)  # ceil",
     "q = x // y + 1  # ceil", ANALYSIS),
    ("hj_ceiling_one_term_late",
     "if len(terms) == ceiling:",
     "if len(terms) > ceiling:", ANALYSIS),
    # coloring._order_range, through verify_quasipolynomial
    ("r0_range_ceiling_strict",
     "if r == 0 and n_to - n_from >= (ceiling",
     "if r == 0 and n_to - n_from > (ceiling", ANALYSIS),
    ("r0_range_ceiling_dropped",
     "if r == 0 and n_to - n_from >= (ceiling",
     "if r == -1 and n_to - n_from >= (ceiling", ANALYSIS),
    # the subcommand table cli._COMMANDS
    ("poincare_without_csv",
     '"a b n? n-from? n-to? r", True, False)',
     '"a b n? n-from? n-to? r", False, False)', CLI),
    ("hj_k_optional",
     '"n k", False, False)',
     '"n k?", False, False)', CLI),
    ("check_star_n_required",
     '"a b partition? n? r?"',
     '"a b partition? n r?"', CLI),
    # cli.main's refusal of a request that runs out of memory
    ("main_lets_memory_error_through",
     "    except MemoryError:\n        pass",
     "    except MemoryError:\n        raise", CLI),
)


def locate(old: str, sources: dict[Path, str]) -> Path:
    """The one source file holding ``old``; exits 1 unless it occurs exactly once."""
    hits = [path for path, text in sources.items() for _ in range(text.count(old))]
    if len(hits) != 1:
        sys.exit(f"mutant text occurs {len(hits)} times, not once: {old!r}")
    return hits[0]


def run(old: str, new: str, tests: tuple[str, ...], sources: dict[Path, str]) -> str:
    """``KILLED`` or ``SURVIVED`` for one mutant, tested on a mutated copy of the tree."""
    target = locate(old, sources)
    with tempfile.TemporaryDirectory(prefix="eqhilb-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / target.relative_to(ROOT)).write_text(sources[target].replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "KILLED"
    return "SURVIVED" if done.returncode == 0 else "KILLED"


def main() -> None:
    sources = {path: path.read_text() for path in sorted((ROOT / "src" / "eqhilb").glob("*.py"))}
    for _, old, _, _ in MUTANTS:
        locate(old, sources)
    for name, old, new, tests in MUTANTS:
        print(name, run(old, new, tests, sources), flush=True)


if __name__ == "__main__":
    main()
