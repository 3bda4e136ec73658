"""Regenerate the golden CLI documents in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Each case writes ``<name>`` from ``telegraph <argv> --out <name>``, and
``platform.json`` records the numpy version and BLAS that produced them.
``tests/test_golden.py`` compares each document byte for byte.  A change
that moves an output on purpose reruns this script and names each changed
file in CHANGES.md.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from telegraph import cli

HERE = Path(__file__).resolve().parent

#: file name -> CLI argv (without --out)
CASES = {
    "kernel_n65.csv": "kernel --n 65",
    "kernel_n65.json": "kernel --n 65 --format json",
    "solve_n129.csv": "solve --n 129 --g-amp 0.5 --g-center 0.2",
    "solve_n129.json": "solve --n 129 --g-amp 0.5 --g-center 0.2 --format json",
    "delta_position_n129.json": "delta --n 129 --format json",
    "delta_velocity_n129.json": "delta --kind delta_velocity --n 129 --format json",
    "delta_financial_n129.json": "delta --kind financial --n 129 --format json",
    "delta_financial_n129.csv": "delta --kind financial --n 129",
    "validate_all.json": "validate --suite all",
}


def platform_record() -> dict:
    """The numpy version and BLAS the documents were made with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version",
                                                   "openblas configuration")}}


def write_case(name: str, out_dir: Path) -> int:
    """Run one case's CLI into out_dir/name; the CLI's exit code."""
    return cli.main([*CASES[name].split(), "--out", str(out_dir / name)])


def main() -> int:
    for name in CASES:
        code = write_case(name, HERE)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
    text = json.dumps(platform_record(), indent=2) + "\n"
    (HERE / "platform.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
