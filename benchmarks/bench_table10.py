"""pytest-benchmark suite for paper Table 10 (executors sweep).

The sweep values below are the subset of the table's grid benchmarked;
``benchmarks/common.py`` builds the test.
"""
from benchmarks.common import table_benchmark

test_table10 = table_benchmark(10, [1, 10])
