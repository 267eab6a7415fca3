"""pytest-benchmark suite for paper Table 7 (tuples sweep).

The sweep values below are the subset of the table's grid benchmarked;
``benchmarks/common.py`` builds the test.
"""
from benchmarks.common import table_benchmark

test_table07 = table_benchmark(7, [1_000_000, 10_000_000])
