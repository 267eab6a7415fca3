"""pytest-benchmark suite for paper Table 4 (dims sweep).

The sweep values below are the subset of the table's grid benchmarked;
``benchmarks/common.py`` builds the test.
"""
from benchmarks.common import table_benchmark

test_table04 = table_benchmark(4, [1, 6])
