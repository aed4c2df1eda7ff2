#!/bin/sh
# Print bromc's command-line surface and its exit codes on missing files.
#
#   sh test/bromc_cli.sh path/to/bromc.exe
#
# For every command and subcommand: the header line of each argument and
# option in its --help=plain page (names, value name, default), sorted.
# Then the exit code and first stderr line of commands whose source or
# input file does not exist: 1, or 2 for lint, whose 1 means
# "diagnostics found".
bromc=$1
missing=/nonexistent/missing

for cmd in "" compile run reorder suite fuzz lint dot workloads cache serve \
    replay bench "bench corpus"; do
  # shellcheck disable=SC2086
  "$bromc" $cmd --help=plain |
    awk -v cmd="bromc${cmd:+ $cmd}" '
      /^[A-Z]/ { keep = ($0 == "ARGUMENTS" || $0 == "OPTIONS" || $0 == "COMMON OPTIONS") }
      keep && /^       [^ ]/ { sub(/^ +/, ""); print cmd ": " $0 }' |
    LC_ALL=C sort
done

exit_of() {
  err=$("$bromc" "$@" 2>&1 >/dev/null)
  printf 'bromc %s -> exit %d: %s\n' "$*" $? "$(printf '%s\n' "$err" | head -n 1)"
}

exit_of compile $missing.mc
exit_of compile $missing.mir
exit_of compile @nosuch
exit_of run $missing.mc
exit_of run @wc --input $missing
exit_of reorder $missing.mc
exit_of reorder @wc --train $missing
exit_of reorder @wc --test $missing
exit_of dot $missing.mc
exit_of lint $missing.mc
exit_of lint @nosuch
exit_of lint @wc --divergence --input $missing
