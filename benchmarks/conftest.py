"""Benchmark-suite configuration.

Each ``bench_e*.py`` file regenerates one of the paper's formal results
(the analogue of a paper table/figure): it prints the measured series
as an ASCII table — and, with ``REPRO_BENCH_JSON`` set, writes it as
``BENCH_<slug>.json`` — and registers a representative kernel with
pytest-benchmark for timing.
"""

collect_ignore_glob: list[str] = []
