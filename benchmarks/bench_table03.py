"""pytest-benchmark suite for paper Table 3 (dims sweep).

The sweep values below are the subset of the table's grid benchmarked;
``benchmarks/common.py`` builds the test.
"""
from benchmarks.common import table_benchmark

test_table03 = table_benchmark(3, [1, 6])
