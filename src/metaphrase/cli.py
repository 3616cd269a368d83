"""Command-line entry point (``metaphrase``).

Subcommands:

* ``synth-data OUT_DIR``: write the synthetic multi-domain world
  (``experiments.build_world_files``).
* ``decode CHECKPOINT INPUT OUTPUT``: decode every line of INPUT to OUTPUT,
  aligned (``decoding.generate_file``).
"""

from __future__ import annotations

import argparse
import sys

from . import decoding as dec
from . import experiments as ex


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metaphrase")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth-data", help="write the synthetic multi-domain world")
    synth.add_argument("out_dir")

    decode_defaults = dec.DecodeConfig()
    decode = sub.add_parser("decode", help="decode a file of source sentences")
    decode.add_argument("checkpoint")
    decode.add_argument("input")
    decode.add_argument("output")
    decode.add_argument("--strategy", choices=("greedy", "beam"), default=decode_defaults.strategy)
    decode.add_argument("--beam-width", type=int, default=decode_defaults.beam_width)
    decode.add_argument("--max-len", type=int, default=decode_defaults.max_decode_len)
    decode.add_argument("--length-penalty", type=float, default=decode_defaults.length_penalty)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "synth-data":
        ex.build_world_files(ex.DataSettings(), args.out_dir)
        print(f"wrote world to {args.out_dir}")
    else:
        dc = dec.DecodeConfig(strategy=args.strategy, beam_width=args.beam_width,
                              max_decode_len=args.max_len, length_penalty=args.length_penalty)
        count = dec.generate_file(args.checkpoint, args.input, args.output, dc)
        print(f"decoded {count} lines to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
