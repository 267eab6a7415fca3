"""pytest-benchmark suite for paper Table 9 (executors sweep).

The sweep values below are the subset of the table's grid benchmarked;
``benchmarks/common.py`` builds the test.
"""
from benchmarks.common import table_benchmark

test_table09 = table_benchmark(9, [1, 5, 10])
