"""``python -m uavcov``: the same command line as the installed ``uavcov`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
