#!/bin/sh
# usage: expect_reject.sh OCAMLC FIXTURE.ml TEXT
# Passes only if OCAMLC rejects FIXTURE.ml for the expected reason:
# exit 2 with TEXT on stderr.  A fixture that compiles, or fails for
# another reason, fails the check.
ocamlc=$1
fixture=$2
text=$3
"$ocamlc" -c "$fixture" 2> "$fixture.err"
status=$?
if [ "$status" -ne 2 ] || ! grep -q -- "$text" "$fixture.err"; then
  cat "$fixture.err"
  echo "$fixture: expected ocamlc to exit 2 with \"$text\", got exit $status"
  exit 1
fi
