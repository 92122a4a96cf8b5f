#!/bin/sh
# usage: expect_usage_error.sh TEXT CMD [ARG...]
# Passes only if CMD exits 2 with TEXT on stderr: a bad input is a
# usage error, never exit 0 or an uncaught exception.
text=$1
shift
err=$("$@" 2>&1 > /dev/null)
status=$?
if [ "$status" -ne 2 ] || ! printf '%s\n' "$err" | grep -qF -- "$text"; then
  printf '%s\n' "$err"
  echo "$*: expected exit 2 with \"$text\", got exit $status"
  exit 1
fi
