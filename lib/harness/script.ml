(** The fault-schedule DSL: a cluster-test scenario as data.

    A script is a list of steps.  Most steps are timed one-shots —
    partition these sides at t, crash this node, install a drop filter
    on that link, heal everything — and two are seeded stochastic
    processes lifted from the old ad-hoc nemesis knobs: the random
    bipartition storm ([Bipartition_storm], the former
    [Cluster.params.partitions]) and the exponential crash/recover
    process ([Crash_storm], the former [failures]).  The legacy knobs
    are now thin constructors over scripts ({!of_partitions},
    {!of_failures}, {!of_shard_kill}), and compiling them through the
    interpreter reproduces the historical runs byte for byte.

    Scripts print to and parse from a compact one-line format, so a
    failing fuzzer seed turns into a copy-pasteable repro:

    {v @120 partition r0,r1/r2,r3,r4; @180 heal; storm mean=150 v}

    Times are relative to the moment the script is installed (time 0
    in a cluster run). *)

module Net = Sim.Net

type action =
  | Partition of string list list
      (** cut every link between nodes of distinct sides; nodes in no
          side keep all their links *)
  | Heal  (** heal every link cut and clear every link filter *)
  | Crash of string
  | Recover of string
  | Link_filter of { src : string; dst : string; spec : Net.drop_spec }
      (** directed per-link fault filter (see {!Sim.Net.drop_spec}) *)
  | Link_clear of { src : string; dst : string }
  | Loss of float  (** set the network-wide loss probability *)
  | Pause_shard of int  (** crash every replica of the shard *)
  | Resume_shard of int  (** recover every replica of the shard *)
  | Kill_shard of int
      (** crash every replica of the shard for good (the legacy
          [shard_kill] nemesis — no later resume is scheduled, though a
          [Resume_shard] step may still revive it) *)

type step =
  | At of float * action  (** fire the action at this virtual time *)
  | Bipartition_storm of { mean : float; cycles : int }
      (** every ~[mean] time units, cut the replicas along a random
          bipartition (clients follow one side) and heal half a period
          later, for [cycles] cycles — the legacy [partitions] nemesis,
          seeded from the run seed *)
  | Crash_storm of Sim.Failure.spec
      (** exponential crash/recover processes on every replica (MTBF
          up, MTTR down) — the legacy [failures] nemesis *)

type t = step list

(* ---------- labels and printing ---------- *)

let float_str f = Fmt.str "%.12g" f

let action_label = function
  | Partition sides ->
      Fmt.str "partition %s"
        (String.concat "/" (List.map (String.concat ",") sides))
  | Heal -> "heal"
  | Crash n -> Fmt.str "crash %s" n
  | Recover n -> Fmt.str "recover %s" n
  | Link_filter { src; dst; spec } ->
      Fmt.str "filter %s>%s %s" src dst (Net.drop_spec_label spec)
  | Link_clear { src; dst } -> Fmt.str "unfilter %s>%s" src dst
  | Loss p -> Fmt.str "loss %s" (float_str p)
  | Pause_shard s -> Fmt.str "pause-shard %d" s
  | Resume_shard s -> Fmt.str "resume-shard %d" s
  | Kill_shard s -> Fmt.str "kill-shard %d" s

let step_label = function
  | At (t, a) -> Fmt.str "@%s %s" (float_str t) (action_label a)
  | Bipartition_storm { mean; cycles } ->
      Fmt.str "storm mean=%s cycles=%d" (float_str mean) cycles
  | Crash_storm { Sim.Failure.mtbf; mttr } ->
      Fmt.str "faults mtbf=%s mttr=%s" (float_str mtbf) (float_str mttr)

let to_string (s : t) = String.concat "; " (List.map step_label s)
let pp ppf s = Fmt.string ppf (to_string s)

(* ---------- parsing ---------- *)

let parse_float what s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Fmt.str "%s must be a finite number (got %S)" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Fmt.str "%s must be an integer (got %S)" what s)

let ( let* ) = Result.bind

let parse_spec s =
  if s = "all" then Ok Net.Drop_all
  else
    match String.index_opt s ':' with
    | Some i -> (
        let kind = String.sub s 0 i in
        let arg = String.sub s (i + 1) (String.length s - i - 1) in
        match kind with
        | "first" ->
            let* n = parse_int "filter first count" arg in
            Ok (Net.Drop_first n)
        | "prob" ->
            let* p = parse_float "filter probability" arg in
            Ok (Net.Drop_prob p)
        | _ -> Error (Fmt.str "unknown filter spec %S" s))
    | None -> Error (Fmt.str "unknown filter spec %S (all|first:N|prob:P)" s)

let parse_link what s =
  match String.index_opt s '>' with
  | Some i when i > 0 && i < String.length s - 1 ->
      Ok
        ( String.sub s 0 i,
          String.sub s (i + 1) (String.length s - i - 1) )
  | _ -> Error (Fmt.str "%s must look like SRC>DST (got %S)" what s)

let parse_kv what key s =
  let pre = key ^ "=" in
  let n = String.length pre in
  if String.length s > n && String.sub s 0 n = pre then
    parse_float (Fmt.str "%s %s" what key) (String.sub s n (String.length s - n))
  else Error (Fmt.str "%s expects %s=VALUE (got %S)" what key s)

let parse_action = function
  | [ "partition"; sides ] ->
      let sides =
        String.split_on_char '/' sides
        |> List.map (String.split_on_char ',')
      in
      Ok (Partition sides)
  | [ "heal" ] -> Ok Heal
  | [ "crash"; n ] -> Ok (Crash n)
  | [ "recover"; n ] -> Ok (Recover n)
  | [ "filter"; link; spec ] ->
      let* src, dst = parse_link "filter link" link in
      let* spec = parse_spec spec in
      Ok (Link_filter { src; dst; spec })
  | [ "unfilter"; link ] ->
      let* src, dst = parse_link "unfilter link" link in
      Ok (Link_clear { src; dst })
  | [ "loss"; p ] ->
      let* p = parse_float "loss" p in
      Ok (Loss p)
  | [ "pause-shard"; s ] ->
      let* s = parse_int "pause-shard" s in
      Ok (Pause_shard s)
  | [ "resume-shard"; s ] ->
      let* s = parse_int "resume-shard" s in
      Ok (Resume_shard s)
  | [ "kill-shard"; s ] ->
      let* s = parse_int "kill-shard" s in
      Ok (Kill_shard s)
  | tokens ->
      Error (Fmt.str "unknown action %S" (String.concat " " tokens))

let parse_step s =
  let tokens =
    String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "")
  in
  match tokens with
  | [] -> Ok None
  | first :: rest when String.length first > 1 && first.[0] = '@' ->
      let* t =
        parse_float "step time" (String.sub first 1 (String.length first - 1))
      in
      let* a = parse_action rest in
      Ok (Some (At (t, a)))
  | "storm" :: args ->
      let* mean, cycles =
        match args with
        | [ m ] ->
            let* m = parse_kv "storm" "mean" m in
            Ok (m, 64)
        | [ m; c ] ->
            let* m = parse_kv "storm" "mean" m in
            let* c = parse_kv "storm" "cycles" c in
            Ok (m, int_of_float c)
        | _ -> Error "storm expects mean=M [cycles=K]"
      in
      Ok (Some (Bipartition_storm { mean; cycles }))
  | "faults" :: args ->
      let* mtbf, mttr =
        match args with
        | [ a; b ] ->
            let* a = parse_kv "faults" "mtbf" a in
            let* b = parse_kv "faults" "mttr" b in
            Ok (a, b)
        | _ -> Error "faults expects mtbf=A mttr=B"
      in
      Ok (Some (Crash_storm { Sim.Failure.mtbf; mttr }))
  | _ -> Error (Fmt.str "cannot parse step %S" (String.trim s))

let of_string s : (t, string) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | chunk :: rest -> (
        match parse_step chunk with
        | Error e -> Error e
        | Ok None -> go acc rest
        | Ok (Some step) -> go (step :: acc) rest)
  in
  go [] (String.split_on_char ';' s)

(* ---------- validation ---------- *)

(* Name checks that allocate nothing on success (no closure, unlike
   [Array.mem] or [List.exists]): every cluster run validates its
   script. *)
let rec in_group n g i =
  i < Array.length g && (String.equal g.(i) n || in_group n g (i + 1))

let rec in_groups n groups s =
  s < Array.length groups
  && (in_group n groups.(s) 0 || in_groups n groups (s + 1))

let rec in_list n = function
  | [] -> false
  | c :: rest -> String.equal c n || in_list n rest

let node ~groups ~clients what n =
  if in_groups n groups 0 || in_list n clients then Ok ()
  else Error (Fmt.str "%sunknown node %S" what n)

let rec nodes ~groups ~clients what = function
  | [] -> Ok ()
  | n :: rest -> (
      match node ~groups ~clients what n with
      | Ok () -> nodes ~groups ~clients what rest
      | e -> e)

let link ~groups ~clients what src dst =
  match node ~groups ~clients what src with
  | Ok () -> node ~groups ~clients what dst
  | e -> e

let validate_action ~groups ~clients = function
  | Partition sides ->
      if List.length sides < 2 then Error "partition needs >= 2 sides"
      else if List.exists (fun side -> side = []) sides then
        Error "partition sides must be non-empty"
      else
        let all = List.concat sides in
        if List.length (List.sort_uniq String.compare all) <> List.length all
        then Error "partition sides must be disjoint"
        else nodes ~groups ~clients "partition: " all
  | Heal -> Ok ()
  | Crash n | Recover n -> node ~groups ~clients "" n
  | Link_filter { src; dst; spec } -> (
      match spec with
      | Net.Drop_first n when n < 0 -> Error "filter first count must be >= 0"
      | Net.Drop_prob p when not (p >= 0.0 && p <= 1.0) ->
          Error "filter probability must be in [0, 1]"
      | _ -> link ~groups ~clients "filter: " src dst)
  | Link_clear { src; dst } -> link ~groups ~clients "unfilter: " src dst
  | Loss p ->
      if p >= 0.0 && p < 1.0 then Ok () else Error "loss must be in [0, 1)"
  | Pause_shard s | Resume_shard s | Kill_shard s ->
      let n_shards = Array.length groups in
      if s < 0 then Error "shard index must be >= 0"
      else if s >= n_shards then
        Error (Fmt.str "shard %d out of range (%d shards)" s n_shards)
      else Ok ()

let validate_step ~groups ~clients = function
  | At (t, a) ->
      if not (Float.is_finite t && t >= 0.0) then
        Error (Fmt.str "step time must be finite and >= 0 (got %s)" (float_str t))
      else validate_action ~groups ~clients a
  | Bipartition_storm { mean; cycles } ->
      if not (Float.is_finite mean && mean > 0.0) then
        Error "storm mean must be > 0"
      else if cycles < 0 then Error "storm cycles must be >= 0"
      else Ok ()
  | Crash_storm { Sim.Failure.mtbf; mttr } ->
      if Float.is_finite mtbf && mtbf > 0.0 && Float.is_finite mttr && mttr > 0.0
      then Ok ()
      else Error "faults mtbf and mttr must be > 0"

let validate ~groups ~clients (s : t) =
  let rec go i = function
    | [] -> Ok ()
    | step :: rest -> (
        match validate_step ~groups ~clients step with
        | Ok () -> go (i + 1) rest
        | Error e -> Error (Fmt.str "step %d (%s): %s" i (step_label step) e))
  in
  go 0 s

(* ---------- the legacy knobs as thin constructors ---------- *)

let of_partitions mean : t = [ Bipartition_storm { mean; cycles = 64 } ]
let of_failures spec : t = [ Crash_storm spec ]
let of_shard_kill (s, at) : t = [ At (at, Kill_shard s) ]

(* Order matters for byte-identity: the pre-script cluster installed
   failures, then partitions, then shard_kill, so the compiled steps
   keep that order. *)
let of_legacy ?failures ?partitions ?shard_kill () : t =
  (match failures with Some s -> of_failures s | None -> [])
  @ (match partitions with Some m -> of_partitions m | None -> [])
  @ (match shard_kill with Some k -> of_shard_kill k | None -> [])

(* ---------- shape queries ---------- *)

let disruptive = function
  | Partition _ | Crash _ | Link_filter _ | Pause_shard _ | Kill_shard _ ->
      true
  | Loss p -> p > 0.0
  | Heal | Recover _ | Link_clear _ | Resume_shard _ -> false

(** The virtual time after which the script leaves the cluster healed
    — the last step is restorative ([Heal], [Recover], [Resume_shard],
    [Link_clear], [Loss 0]) and nothing disruptive or stochastic fires
    later.  [None] when the script never settles (storms, a
    [Kill_shard], a [Crash] without a later [Recover]...). *)
let quiesces_at (s : t) : float option =
  let has_storm =
    List.exists
      (function Bipartition_storm _ | Crash_storm _ -> true | At _ -> false)
      s
  in
  if has_storm then None
  else
    let timed =
      List.filter_map (function At (t, a) -> Some (t, a) | _ -> None) s
    in
    match timed with
    | [] -> None
    | _ ->
        let t_max =
          List.fold_left (fun m (t, _) -> Float.max m t) neg_infinity timed
        in
        (* after t_max nothing fires; the run is settled iff no fault
           installed at any time is still standing: every crash/pause
           has a later recover/resume/heal-equivalent, every cut a
           heal, every filter a clear or heal, loss ends <= 0 *)
        let settled =
          List.for_all
            (fun (t, a) ->
              if not (disruptive a) then true
              else
                List.exists
                  (fun (t', a') ->
                    t' >= t
                    && (t', a') <> (t, a)
                    &&
                    match (a, a') with
                    | Partition _, Heal -> true
                    | Crash n, Recover n' -> n = n'
                    | Link_filter { src; dst; _ }, Link_clear l ->
                        l.src = src && l.dst = dst
                    | Link_filter _, Heal -> true
                    | Pause_shard x, Resume_shard y -> x = y
                    | Loss _, Loss p' -> Float.equal p' 0.0
                    | _ -> false)
                  timed)
            timed
        in
        if settled then Some t_max else None

(* ---------- shrinking ---------- *)

(** Strictly smaller candidate scripts, for failure minimization:
    each step dropped; storms with halved cycles; heals pulled
    earlier (shorter partitions).  Every candidate is by construction
    shorter or cheaper than the input, so greedy shrinking
    terminates. *)
let shrink (s : t) : t list =
  let n = List.length s in
  let drop i = List.filteri (fun j _ -> j <> i) s in
  let removals = List.init n drop in
  let cheaper =
    List.concat
      (List.mapi
         (fun i step ->
           match step with
           | Bipartition_storm { mean; cycles } when cycles > 1 ->
               [
                 List.mapi
                   (fun j st ->
                     if j = i then Bipartition_storm { mean; cycles = cycles / 2 }
                     else st)
                   s;
               ]
           | At (t_heal, Heal) ->
               (* pull the heal toward the latest earlier disruptive
                  step: a strictly shorter fault window *)
               let t_prev =
                 List.fold_left
                   (fun acc st ->
                     match st with
                     | At (t, a) when disruptive a && t < t_heal ->
                         Float.max acc t
                     | _ -> acc)
                   neg_infinity s
               in
               if Float.is_finite t_prev && t_heal -. t_prev > 1.0 then
                 [
                   List.mapi
                     (fun j st ->
                       if j = i then
                         At (t_prev +. ((t_heal -. t_prev) /. 2.0), Heal)
                       else st)
                     s;
                 ]
               else []
           | _ -> [])
         s)
  in
  removals @ cheaper
