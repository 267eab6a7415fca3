"""The prose of EXPERIMENTS.md: what the numbers cannot say.

``make_experiments_md.py`` merges these with the number tables and
the claim verdicts it computes from results/, so a re-run refreshes
every number and verdict without touching this text.  Keep here only
the setup, the mechanisms behind the numbers, and where the numbers
came from; which algorithm was faster is the tables' to say.
"""

HEADER = """\
# EXPERIMENTS — paper vs reproduction

Reproduction of the evaluation of *Integration of Skyline Queries into
Spark SQL* (EDBT 2023), Tables 3–12 (the Appendix-D tabulation of
Figures 3–7).  Regenerate any table with
`python jobs/run_table.py --table N` (add `--bench` for bench scale);
regenerate this file with `python jobs/make_experiments_md.py`.
"""

SETUP = """\
## Setup differences (full details in DESIGN.md)

| | paper | this reproduction |
|---|---|---|
| hardware | 18-datanode YARN cluster (864 cores, 256 GB/node) | one `local[*]` session: 16 cores, 48 GB for `results/`; 4 cores, 15 GB for `results/bench/` |
| executors | YARN executor count (1,2,3,5,10) | partition count of the skyline stages / of the reference's input |
| Inside Airbnb | real snapshot, 1,193,465 / 820,698 rows | synthetic (same schema/null pattern), 500,000 / ≈348,000 rows (1/2 scale); bench scale 24,000 |
| DSB store_sales | DSB generator, subsets 1e6–1e7 | synthetic (same schema/skew features), subsets 250k–2.5M (1/4 scale); bench scale 25k–250k |
| timeout | 3600 s | 120 s ("t.o." in the tables) |
| skyline operator | native Catalyst/Scala physical operators | `mapInArrow` stages over Arrow buffers (NumPy BNL kernels) |
| reference baseline | Listing-4 plain-SQL `NOT EXISTS` | identical (verbatim rewrite, SQL three-valued semantics) |

Two substrate effects to keep in mind when diffing numbers (DESIGN.md
§5):

1. **The reference runs as generated code.**  Spark 4's
   whole-stage-codegen broadcast-nested-loop anti-join evaluates
   dominance predicates at ~1e9 comparisons/s, where the paper's fork
   ran interpreted dominance checks inside a 2016-era cluster stack.
   What the reference costs here is mostly its asymptotics: many tied
   values in one dimension, NULL-bearing rows (the plain rewrite never
   eliminates them, which drives it toward n² comparisons), and large n.
2. **One-partition stages run single-core NumPy.**  The non-distributed
   algorithm, every global stage, and the incomplete algorithm's
   null-bitmap groups (§5.7: each group goes to one task, so complete
   data is one group) each run in one Python task, where the paper had
   JVM executors.

The tables below were run at different times.  `results/tableNN.json`
(reproduction scale) date from the first version of this
reproduction, before the block BNL, the Arrow stages and the current
harness; `results/bench/tableNN.json` were last run with the current
harness, before the complete local stage began to keep its input's
partitions.  The reproduction-scale reference rows of the executor
sweeps (Tables 9–12) were measured when the harness repartitioned the
reference's input per cell with a `repartition(executors)` that
Catalyst placed above the anti join: at every executor count the join
ran on the input's own partitions, so those rows show the reference
at one parallelism, not across the sweep.  The harness now caches
each input in `executors` partitions for every algorithm, and the
join streams over them.
"""

FOOTER = """\
## Appendix E (MusicBrainz complex queries)

The paper reports the complex-query experiment only as Figures 16–19
(figures are out of scope for this reproduction), but the workload is
fully implemented: `repro/data/musicbrainz.py` generates the
`recording_complete/incomplete`, `track`, and `recording_meta` tables
(15k recordings, 1/100 scale) and `jobs/run_musicbrainz.py` times the
Listing-11/12 base queries (LEFT OUTER JOIN + aggregate subquery) with
1–6-dimension skylines under all applicable algorithms vs the
Listing-13-style reference.  A sample run, with its timings, is
recorded in `results/musicbrainz.md`.  The readability contrast the
appendix emphasizes also reproduces: the skyline-syntax query
(Listing 14) is one clause, the generated reference (Listing 13) is a
~50-line double-nested NOT EXISTS.

## Raw artifacts

`results/tableNN.json` and `results/bench/tableNN.json` hold the cell
times of each table's run, written by `jobs/run_table.py` (which also
prints the table's section, verdicts included, as it appears here);
`jobs/make_experiments_md.py` builds this file from them and from
`jobs/experiments_notes.py`.
"""
