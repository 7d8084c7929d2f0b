"""One set-up in a fresh interpreter, timed by the benchmark from the outside.

    python3 perfbench/setup_probe.py SRC WORKLOAD DATA_SEED OUT_DIR
        imports otda (otda.cli for cli-posthoc), generates the dataset, and
        for cli-posthoc writes it with `otda gen-data`;
    python3 perfbench/setup_probe.py SRC scipy
        imports numpy, then times `from scipy.spatial.distance import cdist`,
        the import otda's cost matrix pulls in.

Prints one JSON object with the phase times in seconds.
"""

import contextlib
import io
import json
import sys
import time


def _timed(phases, key, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phases[key] = phases.get(key, 0.0) + time.perf_counter() - start

    return wrapper


def main(argv):
    src, workload = argv[0], argv[1]
    sys.path.insert(0, src)
    phases = {}
    if workload == "scipy":
        import numpy  # noqa: F401  (otda imports numpy before scipy)

        start = time.perf_counter()
        from scipy.spatial.distance import cdist  # noqa: F401

        phases["scipy_import_s"] = time.perf_counter() - start
    else:
        data_seed, out = int(argv[2]), argv[3]
        start = time.perf_counter()
        if workload == "cli-posthoc":
            import otda.cli
        else:
            import otda
        phases["import_s"] = time.perf_counter() - start
        from otda import data_gen

        data_gen.generate = _timed(phases, "generate_s", data_gen.generate)
        data_gen.save = _timed(phases, "save_s", data_gen.save)
        if workload == "cli-posthoc":
            with contextlib.redirect_stdout(io.StringIO()):
                code = otda.cli.run(["gen-data", "--seed", str(data_seed), "--out", out])
            if code != 0:
                return code
        else:
            data_gen.generate(data_gen.GeneratorConfig(seed=data_seed))
    print(json.dumps(phases))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
