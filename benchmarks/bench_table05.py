"""pytest-benchmark suite for paper Table 5 (dims sweep).

The sweep values below are the subset of the table's grid benchmarked;
``benchmarks/common.py`` builds the test.
"""
from benchmarks.common import table_benchmark

test_table05 = table_benchmark(5, [1, 2, 6])
