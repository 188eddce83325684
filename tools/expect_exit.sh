#!/usr/bin/env bash
# Runs a command and passes only when it exits with the expected code AND
# its stderr matches an extended regex. ctest's PASS_REGULAR_EXPRESSION
# ignores the exit code, so the flag-rejection tests in tools/CMakeLists.txt
# go through this wrapper to pin both.
#
# Usage: tools/expect_exit.sh <exit-code> <stderr-regex> <command> [args...]

set -u -o pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <exit-code> <stderr-regex> <command> [args...]" >&2
  exit 2
fi
expected_code="$1"
pattern="$2"
shift 2

stderr="$("$@" 2>&1 >/dev/null)"
code=$?

fail=0
if [[ "${code}" -ne "${expected_code}" ]]; then
  echo "expect_exit: exit code ${code}, expected ${expected_code}" >&2
  fail=1
fi
if ! grep -Eq -- "${pattern}" <<< "${stderr}"; then
  echo "expect_exit: stderr does not match /${pattern}/" >&2
  fail=1
fi
echo "--- stderr of: $*" >&2
echo "${stderr}" >&2
exit "${fail}"
