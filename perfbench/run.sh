#!/bin/sh
# Build and run the benchmark from the repository root (the first run
# compiles it); every argument is passed to perfbench.exe.
exec dune exec --root . --display quiet ./perfbench/perfbench.exe -- "$@"
