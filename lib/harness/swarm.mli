(** The seed-swarm fuzzer: sweep seeds through randomized fault
    scripts, audit every run, minimize failures, emit replayable
    repro lines and a JSON report.  Parameterized over a [run]
    callback so the library stays below the store layer. *)

type outcome = { seed : int; script : Script.t; violations : string list }

type report = {
  seeds : int;
  seed0 : int;
  failures : outcome list;  (** in seed order *)
  minimized : outcome list;  (** same order, scripts shrunk *)
}

type run_fn = seed:int -> Script.t -> string list
(** Run one seed under a script, returning audit violations (empty =
    clean).  Must be deterministic in [(seed, script)]. *)

type gen_fn = seed:int -> Script.t

val sweep :
  run:run_fn ->
  gen:gen_fn ->
  seeds:int ->
  seed0:int ->
  ?max_failures:int ->
  ?progress:(seed:int -> failed:bool -> unit) ->
  unit ->
  outcome list
(** Sweep seeds [seed0 .. seed0 + seeds - 1], collecting failing
    outcomes (stopping after [max_failures]). *)

val minimize : run:run_fn -> outcome -> outcome
(** Greedy shrink to a fixpoint: commit to the first {!Script.shrink}
    candidate that still fails, repeat.  The result's violations come
    from an actual run of the shrunk script. *)

val bisect_seed_range : fails:(int -> bool) -> lo:int -> hi:int -> int option
(** Narrow [lo, hi) down to one failing seed by halving, probing the
    lower half first; [None] when no seed fails. *)

val repro_line : ?extra:string -> outcome -> string
(** The copy-pasteable [swarm repro ...] one-liner; [extra] appends
    the caller's cluster-shape flags. *)

val report_json : ?extra:string -> report -> string
(** The machine-readable swarm report (the CI artifact), one
    {!Obs.Json} object: [seeds], [seed0], [failing_seeds], and the
    [failures] and [minimized] outcomes, each with its [seed],
    [script], [violations] and [repro] line. *)
