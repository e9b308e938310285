"""One sha256 digest per call of a benchmark workload, to compare the
outputs of two checkouts bit for bit.

Run from the root of a checkout; ``--src`` points at another checkout's
``src`` to replay the same cases on its library:

    python3 scripts/replay_digest.py --workload decide-small --seed 1 > here.txt
    python3 scripts/replay_digest.py --workload decide-small --seed 1 \\
        --src /path/to/other/src > there.txt
    diff here.txt there.txt

The cases come from this checkout's ``perfbench/workloads.py``.
``decide-small`` and ``construct-large`` replay the built cases and one
refresh of them, the second pass of a timed run; ``cli-files`` replays
its cases once.  A digest covers what the call gave back: an order report
read in full (verdict, ranks, cross-check verdicts, flags and witnesses),
a construction's result, a raised error's type and text (and its report,
read in full), and for a CLI call its exit code, standard output and the
files it wrote.  The ``cli-files`` inputs are written to one fixed work
directory, because its JSON output embeds their paths, so two replays of
that workload must not run at once.

BLAS is pinned to one thread before numpy loads.  Each output line is
``pass.index label digest verdicts``.  The second digest, of the
verdicts, covers the same output with each report's witnesses recorded
only as present or ``None``, so two checkouts whose witnesses differ in
their last bits can still be compared verdict by verdict:

    diff <(cut -d' ' -f1,2,4 here.txt) <(cut -d' ' -f1,2,4 there.txt)
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(tempfile.gettempdir()) / "minusord-replay"
#: The fields of an order report, read in full.
REPORT_FIELDS = ("order_name", "holds", "rank_data", "characterization_verdicts",
                 "boundary_flags", "witness_p", "witness_q")
#: The fields the verdict digest records only as present or ``None``.
WITNESS_FIELDS = ("witness_p", "witness_q")


def encode(value, witnesses: bool = True) -> bytes:
    """Canonical bytes of a call's result: arrays by dtype, shape and
    buffer, reports and errors field by field, containers item by item.
    Without ``witnesses``, a report's witnesses count only as present or
    ``None``."""
    import numpy as np
    from minusord.orders import OrderReport

    if isinstance(value, np.ndarray):
        head = f"array {value.dtype.str} {value.shape} ".encode()
        return head + np.ascontiguousarray(value).tobytes()
    if isinstance(value, bytes):
        return b"bytes %d " % len(value) + value
    if isinstance(value, BaseException):
        return (f"raised {type(value).__name__}: {value} ".encode()
                + encode(getattr(value, "report", None), witnesses))
    if isinstance(value, OrderReport):
        return b"report " + b"".join(name.encode() + b"=" + _field(value, name, witnesses) + b";"
                                     for name in REPORT_FIELDS)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__.encode() + b"("
                + b"".join(f.name.encode() + b"=" + encode(getattr(value, f.name), witnesses)
                           + b";" for f in dataclasses.fields(value)) + b")")
    if isinstance(value, dict):
        return b"{" + b"".join(encode(k) + b":" + encode(v, witnesses) + b","
                               for k, v in value.items()) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b"".join(encode(v, witnesses) + b"," for v in value) + b"]"
    return repr(value).encode()


def _field(report, name, witnesses):
    """One field of a report encoded, or the error its deferred step
    raises; without ``witnesses``, a witness only as whether it is None."""
    try:
        value = getattr(report, name)
    except Exception as exc:  # a deferred step's error is part of the output
        value = exc
    if not witnesses and name in WITNESS_FIELDS and not isinstance(value, BaseException):
        value = value is None
    return encode(value, witnesses)


def digest(value, witnesses: bool = True) -> str:
    return hashlib.sha256(encode(value, witnesses)).hexdigest()


def replay(name: str, seed: int, workdir: Path = WORKDIR, limit: int | None = None):
    """Yield ``(key, label, digest, verdict digest)`` for each call of the
    workload ``name`` on ``seed``; ``limit`` keeps the first cases of each
    pass."""
    import numpy as np
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.make(name, str(workdir))
    try:
        cases = workload.build(seed)
        passes = [cases]
        if name != "cli-files":
            # the cases of the second pass of a timed run
            passes.append(workload.refresh(cases, np.random.default_rng([seed, 100, 1])))
        for done, current in enumerate(passes):
            for index, case in enumerate(current[:limit]):
                try:
                    result = workload.call(case)
                except Exception as exc:  # the error is the call's output
                    result = exc
                else:
                    # the exit code, stdout and written files of a CLI call
                    result = workload.fingerprint(case, result) or result
                yield f"{done}.{index}", case.label, digest(result), digest(result, False)
    finally:
        workload.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decide-small", "construct-large", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    import minusord
    if Path(minusord.__file__).resolve().parent != (Path(args.src) / "minusord").resolve():
        print(f"error: imported minusord from {minusord.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    for line in replay(args.workload, args.seed):
        print(*line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
