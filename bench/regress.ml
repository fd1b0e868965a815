(* cbq-bench-regress: diff two trees of bench run reports and fail on
   cost regressions.

   Usage:
     cbq-bench-regress OLD_DIR NEW_DIR [--threshold=REL] [--time-threshold=REL]
                       [--only=PREFIX]...

   OLD_DIR and NEW_DIR are `bench/main.exe --stats-dir=DIR` output trees
   (one JSON run report per row, paired by file name). The exit status
   is 0 when every deterministic metric stays within the relative
   threshold (default 0.1 = 10%, symmetric) and no experiment
   disappeared from the old tree, 1 otherwise; usage errors, unreadable
   directories, an old tree with no report and --only prefixes that
   match no metric exit 2 with a diagnostic on stderr. --only (may
   repeat) narrows the gate to metrics under the given prefixes, e.g.
   counters.parbench. Wall-clock
   span seconds are reported but only gated when --time-threshold is
   given, so comparing two runs of the same build is deterministic.

   The whole CLI lives in Obs.Regress.main so the exit-code contract is
   unit-tested (test/test_regress.ml). *)

let () = exit (Obs.Regress.main Sys.argv)
