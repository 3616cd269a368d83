"""Command-line entry point (``metaphrase``).

Subcommands:

* ``synth-data OUT_DIR``: write the synthetic multi-domain world
  (``experiments.build_world_files``).
* ``decode CHECKPOINT INPUT OUTPUT``: decode every non-blank line of INPUT
  to OUTPUT, in order (``decoding.generate_file``). A file that cannot be
  read or written, a corrupt checkpoint or input, an input line longer
  than the checkpoint's model takes, or a setting that model cannot decode
  is a usage error (exit status 2) whose one line names the file (and
  line) or setting.
"""

from __future__ import annotations

import argparse
import sys

from . import decoding as dec
from . import experiments as ex


def _decode_option(field: str, parse):
    """An argparse type: ``parse`` the text and apply ``DecodeConfig``'s rule for ``field``."""

    def convert(text):
        try:
            return getattr(dec.DecodeConfig(**{field: parse(text)}), field)
        except ValueError as err:  # a usage error that names the option typed
            raise argparse.ArgumentTypeError(str(err)) from None

    return convert


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
    decode.add_argument("--beam-width", type=_decode_option("beam_width", int),
                        default=decode_defaults.beam_width)
    decode.add_argument("--max-len", type=_decode_option("max_decode_len", int),
                        default=decode_defaults.max_decode_len)
    decode.add_argument("--length-penalty", type=_decode_option("length_penalty", float),
                        default=decode_defaults.length_penalty)
    decode.set_defaults(usage_error=decode.error)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "synth-data":
        ex.build_world_files(ex.DataSettings(), args.out_dir)
        print(f"wrote world to {args.out_dir}")
    else:
        dc = dec.DecodeConfig(strategy=args.strategy, beam_width=args.beam_width,
                              max_decode_len=args.max_len, length_penalty=args.length_penalty)
        try:
            count = dec.generate_file(args.checkpoint, args.input, args.output, dc)
        except (OSError, ValueError) as err:  # CheckpointError and CorpusFormatError included
            args.usage_error(str(err))
        print(f"decoded {count} lines to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
