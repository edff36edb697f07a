"""One sha256 per benchmark workload over every CLI output on its pools.

    python3 tools/output_digest.py                        # seeds 1 and 2, all five pools
    python3 tools/output_digest.py --seeds 1 --workloads secondary-nested

Builds the perfbench pools for the given seeds with `perfbench/workloads.py`
(read, not changed) in a temporary directory, and runs, in-process through
`infrared.cli.main`, each subcommand that accepts an item's files:

- on every file of an item that holds a configuration: `matroid`,
  `antistokes`, `paths`, `secondary` and `plot` in its three formats;
- on every file that also holds transport data: `stokes` and `fourier`;
- on a `walk` item: the round trip that `perfbench/run.py` times, `walk`
  from the first file to the second and back with the transport it
  returned.

Prints one JSON line: per workload, the sha256 over the seed, argv (with
file names for paths), exit code and standard output of every call, and
the number of calls.  Run it in two checkouts to compare their outputs:
it imports `infrared` from the `src/` of the checkout it lives in.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

CONFIG_CALLS = (
    ["matroid"], ["antistokes"], ["paths"], ["secondary"],
    ["plot", "--format", "svg"], ["plot", "--format", "csv"], ["plot", "--format", "dot"],
)
TRANSPORT_CALLS = (["stokes"], ["fourier"])


def _run(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _item_calls(cli, item: dict):
    """(argv, exit code, stdout) of every call on one pool item."""
    paths = item["paths"]
    for path in paths.values():
        with open(path) as fh:
            keys = json.load(fh)
        for call in CONFIG_CALLS + (TRANSPORT_CALLS if "transport" in keys else ()):
            argv = [call[0], path, *call[1:]]
            yield argv, *_run(cli, argv)
    if item["kind"] == "walk":
        a0, a1 = paths["a0.json"], paths["a1.json"]
        argv = ["walk", a0, "--to", a1]
        code, out = _run(cli, argv)
        yield argv, code, out
        if code == 0:
            with open(a1) as fh:
                mid = json.load(fh)
            mid["transport"] = json.loads(out)["transport"]
            mid_path = a1[: -len("a1.json")] + "mid.json"
            with open(mid_path, "w") as fh:
                json.dump(mid, fh)
            argv = ["walk", mid_path, "--to", a0]
            yield argv, *_run(cli, argv)


def digest(workload_names, seeds) -> dict:
    """{workload: {"sha256": hex, "outputs": count}} over the given seeds."""
    workloads.require_infrared()
    from infrared import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workload_names:
            h, count = hashlib.sha256(), 0
            for seed in seeds:
                pool_dir = os.path.join(tmp, f"{name}-{seed}")
                manifest = workloads.setup(name, seed, pool_dir)
                for item in manifest["items"]:
                    for argv, code, text in _item_calls(cli, item):
                        # file names only: the pool directory is temporary
                        names = [os.path.basename(a) for a in argv]
                        h.update(json.dumps([seed, names, code, text]).encode())
                        count += 1
            out[name] = {"sha256": h.hexdigest(), "outputs": count}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--workloads", nargs="+", choices=sorted(workloads.POOLS),
                   default=list(workloads.POOLS))
    args = p.parse_args(argv)
    print(json.dumps(digest(args.workloads, args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
