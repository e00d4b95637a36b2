#!/bin/sh
# Run a command as the leader of a session of its own, then fail if any
# process of that session outlives it: a forked aggregator tier or
# simulation worker that a stop, kill or failed start did not reap.
# Otherwise exit with the command's own status.
#
#   PYTHONPATH=src scripts/no_leftovers.sh python -m pytest -x -q
set -u
setsid "$@" &
leader=$!
wait "$leader" && status=0 || status=$?
sleep 3
# An exited orphan waiting for init to reap it (state Z) does not count.
if ps -eo sid=,pid=,stat=,args= | awk -v sid="$leader" '$1 == sid && $3 !~ /^Z/' | grep .; then
  echo "processes outlived: $*" >&2
  exit 1
fi
exit "$status"
