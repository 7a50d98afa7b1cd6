"""Start one ssdb daemon through the package's own ``ssdb`` entry point.

    python3 perfbench/launch.py [--trace-out FILE] -- server --id s1 ...

Without ``--trace-out`` this is ``ssdb <args>`` run from the checkout's
``src/``. With it, span wrappers are installed before the daemon starts
and stay idle until the process gets SIGUSR1, which turns them on and
creates ``FILE.on`` so the benchmark knows tracing is live; SIGUSR2 turns
them off and removes ``FILE.on``. The spans are written to FILE when the
daemon exits.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from ssdb import cli

    if trace_out is None:
        return cli.main(argv)

    from spans import Tracer, install_daemon

    tracer = Tracer()
    install_daemon(tracer)

    flag = Path(trace_out + ".on")

    def switch(signum, frame):
        tracer.enabled = signum == signal.SIGUSR1
        if tracer.enabled:
            flag.touch()
        else:
            flag.unlink(missing_ok=True)

    signal.signal(signal.SIGUSR1, switch)
    signal.signal(signal.SIGUSR2, switch)
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
