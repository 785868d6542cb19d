"""One set-up as a fresh process pays it: import mahlerlab, load the corpus
and make the first (warm-up) call. run.py times this script from outside.

    python3 perfbench/setup_probe.py CORPUS_FILE|- CLI_ARG...
"""
import contextlib
import io
import sys
from pathlib import Path


def main(argv) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mahlerlab.cli
    from mahlerlab.corpusio import parse_corpus

    corpus_file, cli_args = argv[0], argv[1:]
    if corpus_file != "-":
        with open(corpus_file) as fh:
            parse_corpus(fh.read())
    with contextlib.redirect_stdout(io.StringIO()):
        return mahlerlab.cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
