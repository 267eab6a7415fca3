"""pytest-benchmark suite for paper Table 8 (tuples sweep).

The sweep values below are the subset of the table's grid benchmarked;
``benchmarks/common.py`` builds the test.
"""
from benchmarks.common import table_benchmark

test_table08 = table_benchmark(8, [1_000_000, 10_000_000])
