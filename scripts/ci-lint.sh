#!/usr/bin/env bash
# Run the determinism lint and, on failure, re-emit its findings as
# GitHub Actions workflow annotations (::error file=...) so they show
# inline on the pull request diff. Locally this behaves exactly like
# `make lint` (annotations are only a different print format; the exit
# code is preserved).
set -u

out=$(mktemp)
trap 'rm -f "$out"' EXIT

make lint 2>"$out"
status=$?
cat "$out" >&2

if [ $status -ne 0 ] && [ "${GITHUB_ACTIONS:-}" = "true" ]; then
    # doorsvet findings look like "path/file.go:12:34: message"; strip
    # the workspace prefix so annotation paths are repo-relative.
    sed -nE 's|^('"${GITHUB_WORKSPACE:-$PWD}"'/)?([^ :]+\.go):([0-9]+):([0-9]+): (.*)$|::error file=\2,line=\3,col=\4::\5|p' "$out"
fi
exit $status
