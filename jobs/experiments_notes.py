"""Header, per-table commentary, and footer for EXPERIMENTS.md.

Edited by hand after inspecting results/; ``make_experiments_md.py``
merges these with the generated number tables so numbers can be
refreshed without losing analysis.
"""

HEADER = """\
# EXPERIMENTS — paper vs reproduction

Reproduction of the evaluation of *Integration of Skyline Queries into
Spark SQL* (EDBT 2023), Tables 3–12 (the Appendix-D tabulation of
Figures 3–7).  Regenerate any table with
`python jobs/run_table.py --table N`; regenerate this file with
`python jobs/make_experiments_md.py`.

## Setup differences (full details in DESIGN.md)

| | paper | this reproduction |
|---|---|---|
| hardware | 18-datanode YARN cluster (864 cores, 256 GB/node) | one `local[*]` session, 16 cores, 48 GB |
| executors | YARN executor count (1,2,3,5,10) | partition count of the skyline stages / of the reference's input |
| Inside Airbnb | real snapshot, 1,193,465 / 820,698 rows | synthetic (same schema/null pattern), 500,000 / ≈348,000 rows (1/2 scale) |
| DSB store_sales | DSB generator, subsets 1e6–1e7 | synthetic (same schema/skew features), subsets 250k–2.5M (1/4 scale) |
| timeout | 3600 s | 120 s ("t.o." in the tables) |
| skyline operator | native Catalyst/Scala physical operators | `mapInArrow` stages over Arrow buffers (NumPy BNL kernels) |
| reference baseline | Listing-4 plain-SQL `NOT EXISTS` | identical (verbatim rewrite, SQL three-valued semantics) |

Two systematic substrate effects to keep in mind when diffing numbers
(both discussed per-table below and in DESIGN.md §5):

1. **The reference is relatively faster here.**  Spark 4's
   whole-stage-codegen broadcast-nested-loop anti-join evaluates
   dominance predicates at ~1e9 comparisons/s on this machine, while
   the paper's fork ran interpreted dominance checks inside a 2016-era
   cluster stack.  The paper's headline gaps (reference 2–40× slower)
   therefore re-emerge only where the reference's asymptotics bite:
   many-tied single dimensions (Table 5, dim 1), NULL-heavy incomplete
   data (Tables 4, 6, 8, 10, 12 — NULL rows are never eliminated by
   the plain rewrite, driving it toward n²), and large n (Tables 7/11).
2. **Single-partition Python stages are relatively slower here.**  The
   non-distributed algorithm and the global/local stages that collapse
   to one partition run single-core NumPy; in the paper these were
   JVM executors.  Hence "non-distributed complete" (and "distributed
   incomplete" on complete data, which degenerates to one partition)
   look worse relative to the reference than in the paper, including
   some timeouts the paper does not have.

The headline claims these tables were built to check, and their status:

* integrated skyline beats the plain-SQL rewrite — **holds everywhere
  on incomplete data** (Tables 4, 6, 8, 10, 12, often by 3–10×, with
  reference timeouts the specialized algorithm survives) and on the
  tie-heavy single-dimension and ≥4-dimension complete store_sales
  queries (Table 5); on complete data with small skylines the
  codegen'd reference is competitive or faster (Tables 3 at 2/6 dims,
  7 at mid sizes, 9, 11 at low executors — substrate effects 1+2);
* "distributed complete" is the best *specialized* algorithm on
  complete data — **holds** in every table;
* the incomplete algorithm on a complete dataset degenerates to the
  non-distributed cost, clearly worse than distributed complete —
  **holds** (Tables 3, 5, 7, 9, 11);
* the reference times out on the largest workloads while the
  specialized algorithm still finishes — **holds on incomplete data**
  (Tables 8, 12); on complete data the t.o. side is inverted
  (substrate effect 2, see Table 11);
* executor scaling helps only the distributed algorithms and tapers
  once the single-instance global stage dominates — **holds**
  (Tables 9–12).
"""

NOTES = {
    3: """\
**Shape check.** Distributed complete is the best algorithm in 4 of 6
columns (paper: 6 of 6) with 22–68% of the reference at 1 and 3–5
dimensions; at 2 dimensions it is at parity and at 6 dimensions the
reference edges it out (3.04 s vs 3.52 s) — the complete Airbnb
skyline stays small, so substrate effect 1 narrows the margins the
paper reports (46–98%).  The single-partition algorithms
(non-distributed, incomplete-on-complete) blow up at 5–6 dimensions
(substrate effect 2), where the paper has them within 2× of the
winner.""",
    4: """\
**Shape check.** The paper's qualitative story reproduces exactly: the
reference deteriorates rapidly with dimensions on incomplete data
(1.3 s → 107 s; paper 45.6 s → 147.8 s) because NULL-bearing rows are
never eliminated by the plain rewrite, while the specialized incomplete
algorithm stays flat-ish and wins by a growing margin — ours 17% at 6
dims vs the paper's 35%.""",
    6: """\
**Shape check.** Matches the paper closely: the specialized incomplete
algorithm wins every dimension count (ours 13–44%, paper 15–48% with
a rare reference win at 6 dims, 106.5%), and the reference grows
steadily with dimensions (2.1 s → 21.6 s) while the specialized
algorithm stays almost flat.  The same mechanism applies — at 250k rows the
incomplete global stage is cheap, and reference cost is dominated by
the NULL-heavy anti-join.""",
    8: """\
**Shape check.** The paper's two key features reproduce: (a) at the
smallest size the reference is competitive (paper: reference *wins*,
109.52%; ours: close), and (b) the reference degrades super-linearly
and times out at the top size while the specialized algorithm still
finishes everywhere it can.  Paper reference: 101→282→1227→t.o. s;
the ~n² scaling is the same mechanism as our measurements.""",
    7: """\
**Shape check.** Both specialized complete algorithms scale roughly
linearly while the reference grows super-linearly (2.05→2.83→17.1→20.3 s
on 250k→2.5M; paper 191→543→2023→t.o. on 1e6→1e7).  Distributed
complete is the best algorithm at every size (paper: same).  Deviations:
our reference does not reach the timeout at 2.5M (substrate effect 1),
and non-distributed complete exceeds the reference at larger sizes
(substrate effect 2; the paper has it at 21–56% of reference).""",
    5: """\
**Shape check.** The paper's signature dim-1 anomaly reproduces: the
many tied maxima of `ss_quantity` make the reference scan the full
table per tied row (ours 34.3 s vs 4.4–24.4 s specialized; paper
2463 s vs ≈55–65 s).  The dim-2/3 dip (skyline shrinks when the
correlated price dims resolve ties) and the growth at 4–6 dims also
reproduce.  Distributed complete beats the reference in every column
(17–88%; paper 2.2–57%).  Deviations: our single-dimension rewrite
makes all three specialized algorithms take the same fast path, so
their dim-1 spread (4.4–24.4 s) is shuffle/GC noise around it, and the
non-distributed + incomplete-on-complete algorithms time out at 5–6
dims (substrate effect 2).""",
    9: """\
**Shape check (partial).** The executor-scaling behaviour reproduces:
the reference is flat in executors (ours ≈2.0–2.7 s; paper 91–156 s
from 2 executors up) while distributed complete scales strongly
(17.2 s → 1.4–2.9 s from 1 → 5–10 executors) and the single-partition
algorithms stay flat at the 1-executor cost — exactly the paper's
"parallelism helps the distributed algorithm only" story.  Deviation:
at this dataset's small 6-dim skyline the codegen'd reference is
absolutely faster than the Python-staged operator in most columns
(substrate effects 1+2), whereas the paper's specialized algorithms
win every column.""",
    10: """\
**Shape check.** Paper: distributed incomplete at 33–55% of the
reference across all executor counts.  Ours shows the same flat
"executors barely matter" profile for both algorithms (null-bitmap
partitioning caps usable parallelism) with the specialized algorithm
winning everywhere.""",
    11: """\
**Shape check (partial).** The paper's core scaling story holds:
distributed complete improves monotonically with executors
(t.o. → 56.7 → 34.8 → 23.8 → 9.4 s for 1→10 executors; the paper's
row is 1155→…→493 s relative to a 1693 s reference at 10) and beats
the reference once parallelism is available (9.4 s vs 13.4 s at 10
executors — paper: 29.12%).  The t.o. pattern is *inverted* by the
substrate, though: the paper's reference times out at 1–5 executors
and its specialized algorithms always finish, while here the codegen'd
reference stays ≈12–13 s at every executor count and it is the
single-partition Python algorithms (non-distributed,
incomplete-on-complete, and distributed-complete at 1 executor) that
hit the 120 s timeout (substrate effects 1+2).""",
    12: """\
**Shape check.** Paper: the specialized algorithm wins every comparable
column (25–74%) and the reference already times out at 5 executors.
Ours is the same story taken slightly further: at 1.25M incomplete
rows the plain-SQL reference exceeds the timeout at *every* executor
count while the specialized algorithm finishes everywhere (≈44–50 s,
flat in executors — the null-bitmap partitioning caps its usable
parallelism, as the paper discusses).  The paper's invariant "we never
have the opposite situation [specialized t.o. but reference finishes]"
holds throughout our runs as well.""",
}

FOOTER = """\
## Appendix E (MusicBrainz complex queries)

The paper reports the complex-query experiment only as Figures 16–19
(figures are out of scope for this reproduction), but the workload is
fully implemented: `repro/data/musicbrainz.py` generates the
`recording_complete/incomplete`, `track`, and `recording_meta` tables
(15k recordings, 1/100 scale) and `jobs/run_musicbrainz.py` times the
Listing-11/12 base queries (LEFT OUTER JOIN + aggregate subquery) with
1–6-dimension skylines under all applicable algorithms vs the
Listing-13-style reference.  A sample run is recorded in
`results/musicbrainz.md`.  At this scale every configuration is
join-dominated and finishes in 2–8 s; the specialized algorithms win
all complete-variant configurations while the reference is competitive
on the tiny incomplete variant — consistent with the paper's own
observation that "the only cases where the reference solution performs
best are the easiest ones with execution times below 50 seconds".  The
readability contrast the appendix emphasizes also reproduces: the
skyline-syntax query (Listing 14) is one clause, the generated
reference (Listing 13) is a ~50-line double-nested NOT EXISTS.

## Raw artifacts

`results/tableNN.md` / `results/tableNN.json` hold the per-table runs
(written by `jobs/run_table.py`); `test_output.txt` and
`bench_output.txt` hold the final pytest and pytest-benchmark runs.
"""
