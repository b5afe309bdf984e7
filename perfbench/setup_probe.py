"""The set-up part of a qbp CLI run, timed from outside by the benchmark:
import ``qbp.cli``, parse each config, and build the model at each beta of
the configs marked ``--build``, stopping before any sweep point runs.

    python3 perfbench/setup_probe.py SEED [--build CONFIG | --parse CONFIG] ...
"""

import json
import sys

from qbp import cli


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    for flag, path in zip(argv[1::2], argv[2::2]):
        with open(path, "r", encoding="utf-8") as fh:
            cfg = cli.parse_config(json.load(fh), seed)
        if flag == "--build":
            for beta in cfg.beta_values:
                cli.build_model(cfg, beta)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
