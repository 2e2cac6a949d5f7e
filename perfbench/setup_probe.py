"""Time a bagkit invocation's set-up in this fresh interpreter, then stop.

    python3 perfbench/setup_probe.py BAGKIT_ARGS...

Set-up is what a `run` or `variance` invocation does before its first fit:
import bagkit, parse the arguments, parse and validate the batch config (or
the variance member), and load the task data. Prints {"setup_s": seconds}.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from bagkit.cli import build_parser  # noqa: E402
from bagkit.config import load_data_dir, parse_config_file  # noqa: E402
from bagkit.experiment import MemberSpec  # noqa: E402
from bagkit.predictor import FeatureSpec  # noqa: E402


def main(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "run":
        configs = parse_config_file(args.config)
        load_data_dir(args.data, sorted({t for c in configs for t in c.tasks}))
    elif args.verb == "variance":
        MemberSpec(
            model_kind=args.model,
            feature_spec=FeatureSpec(dims=args.dims),
            prune_fraction=args.prune,
            bagged=True,
        )
        load_data_dir(args.data, [args.task])
    else:
        print(f"no set-up defined for {args.verb!r}", file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": time.perf_counter() - _start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
