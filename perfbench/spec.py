"""What the benchmark measures: workloads, metrics, units, directions, bounds.

`run.py --list` prints this and writes it to BENCHMARK.json; README.md
explains the choices.  Times are scaled to a reference CPU speed
(speed.py); bounds are shares of the parent's median.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

WORKLOADS = [
    ("tower-f2", "wide shallow F2 tower, 400 generators, 80 per degree, filtration length 4: "
                 "elimination and multiplication do most of the work"),
    ("deep-chain", "deep F2 chain a_i -> b_(i+1) at filtration length 22: tiny matrices, "
                   "cost set by the number of (r, p, q) cells the engine builds"),
    ("fibration-q", "twisted fibrations over Q, 120 generators on a 12+12-point base: Fraction "
                    "elimination, complex constructions, representatives and maps of towers"),
    ("cli-docs", "spectower CLI subprocess on the 16 golden documents and 3 error cases: "
                 "interpreter start, import, parse and render"),
]

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = [
    ("op_s.p50", "s", "lower", 0.2),
    ("op_s.tail", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

# (name, unit, better); per op, from the traced run only
PER_LAYER = [
    ("matrix.eliminate.calls", "count", "lower"),
    ("matrix.eliminate.self_s", "s", "lower"),
    ("matrix.eliminate.cells", "count", "lower"),
    ("matrix.eliminate.nnz", "count", "lower"),
    ("matrix.mul.calls", "count", "lower"),
    ("matrix.mul.self_s", "s", "lower"),
    ("matrix.mul.nnz_in", "count", "lower"),
    ("matrix.mul.nnz_out", "count", "lower"),
    ("matrix.reshape.calls", "count", "lower"),
    ("matrix.reshape.self_s", "s", "lower"),
    ("matrix.subspace.calls", "count", "lower"),
    ("matrix.subspace.self_s", "s", "lower"),
    ("spectral.pages", "count", "lower"),
    ("spectral.cells", "count", "lower"),
    ("spectral.cells.nonzero_ratio", "ratio", "higher"),
    ("spectral.page.s", "s", "lower"),
    ("spectral.page.self_s", "s", "lower"),
    ("spectral.certify.s", "s", "lower"),
    ("spectral.maps.s", "s", "lower"),
    ("spectral.class_of.calls", "count", "lower"),
    ("spectral.class_of.s", "s", "lower"),
    ("complexes.build.s", "s", "lower"),
    ("complexes.cohomology.s", "s", "lower"),
    ("fibration.data.s", "s", "lower"),
    ("fibration.assemble.s", "s", "lower"),
    ("fibration.e2_table.s", "s", "lower"),
    ("fibration.truncation.s", "s", "lower"),
    ("morse.morse_complex.s", "s", "lower"),
    ("localsystems.system.s", "s", "lower"),
    ("localsystems.transport.calls", "count", "lower"),
    ("documents.load.s", "s", "lower"),
    ("documents.build.s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
