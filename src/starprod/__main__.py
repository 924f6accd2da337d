import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        code = main()
        # flush here, so a closed stdout shows up inside the try
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull so the flush at
        # exit cannot fail again, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)
