"""The CLI and library documents in tests/golden/, byte for byte.

``tests/golden/regen.py`` made them and recorded its numpy and BLAS in
``platform.json``.  ``np.correlate`` may take a CPU-specific dot path, so on
another platform a document may differ in its last bits; a mismatch reports
the largest ulp distance over the documents' numbers and both numpy versions.
"""

import json
import re
import struct

import pytest

from golden.regen import CASES, HERE, LIBRARY, platform_record, write_case

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _ordinal(x: float) -> int:
    """x's position on the line of float64 values, so that ulps subtract."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _ulp_report(recorded: str, running: str) -> str:
    old, new = (_NUMBER.findall(text) for text in (recorded, running))
    if len(old) != len(new):
        return f"{len(old)} numbers recorded, {len(new)} now"
    worst = max((abs(_ordinal(float(a)) - _ordinal(float(b))) for a, b in zip(old, new)),
                default=0)
    return f"largest distance {worst} ulp over {len(old)} numbers"


@pytest.mark.parametrize("name", [*CASES, *LIBRARY])
def test_document_is_byte_identical(name, tmp_path):
    assert write_case(name, tmp_path) == 0
    recorded = (HERE / name).read_bytes()
    running = (tmp_path / name).read_bytes()
    if running != recorded:
        made_with = json.loads((HERE / "platform.json").read_text())["numpy"]
        pytest.fail(f"{name} differs from the golden document: "
                    f"{_ulp_report(recorded.decode(), running.decode())}; "
                    f"recorded with numpy {made_with}, running numpy "
                    f"{platform_record()['numpy']}")
