"""pytest-benchmark suite for paper Table 6 (dims sweep).

The sweep values below are the subset of the table's grid benchmarked;
``benchmarks/common.py`` builds the test.
"""
from benchmarks.common import table_benchmark

test_table06 = table_benchmark(6, [1, 6])
