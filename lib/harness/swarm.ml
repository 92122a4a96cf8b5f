(** The seed-swarm fuzzer: sweep a range of seeds through randomized
    fault scripts, audit every run, and when a seed fails, minimize
    the script and emit a replayable repro line.

    The module is parameterized over a [run] callback ([seed ->
    script -> violations]) so the library stays below the store: the
    [swarm] executable wires in {!Store.Cluster.run} plus the audit
    and liveness checks.  Everything here is deterministic in
    [seed0]/[seeds] given a deterministic callback. *)

(** One failing seed: the script it ran and the violations the audit
    raised (newest first). *)
type outcome = { seed : int; script : Script.t; violations : string list }

type report = {
  seeds : int;  (** seeds swept *)
  seed0 : int;
  failures : outcome list;  (** as found, in seed order *)
  minimized : outcome list;  (** same order, scripts shrunk *)
}

type run_fn = seed:int -> Script.t -> string list
type gen_fn = seed:int -> Script.t

(** Sweep seeds [seed0 .. seed0 + seeds - 1]: generate each seed's
    script, run it, collect the failing outcomes (stopping after
    [max_failures] of them). *)
let sweep ~(run : run_fn) ~(gen : gen_fn) ~seeds ~seed0
    ?(max_failures = max_int) ?(progress = fun ~seed:_ ~failed:_ -> ()) () :
    outcome list =
  let rec go acc i =
    if i >= seeds || List.length acc >= max_failures then List.rev acc
    else
      let seed = seed0 + i in
      let script = gen ~seed in
      let violations = run ~seed script in
      progress ~seed ~failed:(violations <> []);
      let acc =
        if violations = [] then acc else { seed; script; violations } :: acc
      in
      go acc (i + 1)
  in
  go [] 0

(** Greedy script minimization: repeatedly try {!Script.shrink}
    candidates, committing to the first one that still fails, until
    none does.  Every shrink move is strictly smaller, so this
    terminates; the result still reproduces (its violations are from
    an actual run). *)
let minimize ~(run : run_fn) (o : outcome) : outcome =
  let rec fixpoint current =
    let candidates = Script.shrink current.script in
    let reproduced =
      List.find_map
        (fun script ->
          match run ~seed:current.seed script with
          | [] -> None
          | violations -> Some { current with script; violations })
        candidates
    in
    match reproduced with
    | Some smaller -> fixpoint smaller
    | None -> current
  in
  fixpoint o

(** Narrow a seed range down to one failing seed by halving: probe the
    lower half (early-exit scan through [fails]), recurse into
    whichever half contains a failure.  [None] when no seed in
    [lo, hi) fails. *)
let bisect_seed_range ~(fails : int -> bool) ~lo ~hi : int option =
  let scan lo hi =
    let rec go s = if s >= hi then None else if fails s then Some s else go (s + 1) in
    go lo
  in
  let rec bisect lo hi =
    if hi - lo <= 1 then scan lo hi
    else
      let mid = lo + ((hi - lo) / 2) in
      match bisect lo mid with Some s -> Some s | None -> bisect mid hi
  in
  bisect lo hi

(* ---------- repro lines and the JSON report ---------- *)

(** The copy-pasteable one-liner replaying the failure; [extra] carries
    the cluster-shape flags of the caller's CLI. *)
let repro_line ?(extra = "") (o : outcome) : string =
  Fmt.str "swarm repro --seed %d --script %S%s%s" o.seed
    (Script.to_string o.script)
    (if extra = "" then "" else " ")
    extra

let num n = Obs.Json.Num (float_of_int n)

let outcome_json ?extra (o : outcome) : Obs.Json.t =
  Obs.Json.Obj
    [
      ("seed", num o.seed);
      ("script", Obs.Json.Str (Script.to_string o.script));
      ( "violations",
        Obs.Json.List (List.map (fun v -> Obs.Json.Str v) o.violations) );
      ("repro", Obs.Json.Str (repro_line ?extra o));
    ]

(** The machine-readable swarm report (CI uploads this artifact). *)
let report_json ?extra (r : report) : string =
  let outcomes os = Obs.Json.List (List.map (outcome_json ?extra) os) in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("seeds", num r.seeds);
         ("seed0", num r.seed0);
         ("failing_seeds", num (List.length r.failures));
         ("failures", outcomes r.failures);
         ("minimized", outcomes r.minimized);
       ])
  ^ "\n"
