(** Composition of I/O automata, and an execution driver.

    A set of automata with disjoint output sets composes into a
    system, itself an automaton (Section 2.1): states are tuples of
    component states; an operation is a step iff every component
    having the operation in its signature takes a step and the rest
    stay put.  An operation is an output of the composition iff it is
    the output of (exactly one) component.

    The driver resolves the model's nondeterminism with a seeded PRNG:
    at each step it collects the enabled output operations of all
    components and applies a strategy to pick one.  Because every
    component's inputs are always enabled (input condition), an
    enabled output of one component is always a step of the whole
    composition, so the driver never backtracks. *)

type t = { components : Component.t list }

let compose components = { components }
let components t = t.components

(** The enabled output operations of the composition: the union of
    the components' enabled outputs. *)
let enabled (t : t) : Action.t list =
  List.concat_map Component.enabled t.components

(** [owners t a] is the list of components having [a] as an output
    (well-formed systems have at most one). *)
let owners (t : t) (a : Action.t) =
  List.filter (fun c -> Component.is_output c a) t.components

(** [apply t a] performs one step of the composition.  Fails when [a]
    is the output of zero or several components, or when the owner's
    precondition does not hold. *)
let apply (t : t) (a : Action.t) : (t, string) result =
  match owners t a with
  | [] ->
      Error (Fmt.str "%a is not the output of any component" Action.pp a)
  | _ :: _ :: _ ->
      Error (Fmt.str "%a is the output of several components" Action.pp a)
  | [ _owner ] -> (
      let step_one (acc : (Component.t list, string) result) c =
        match acc with
        | Error _ as e -> e
        | Ok done_ ->
            if Component.has_action c a then
              match Component.step c a with
              | Some c' -> Ok (c' :: done_)
              | None ->
                  if Component.is_output c a then
                    Error
                      (Fmt.str "precondition of %a fails at component %s"
                         Action.pp a (Component.name c))
                  else
                    Error
                      (Fmt.str "input %a rejected by component %s (bug)"
                         Action.pp a (Component.name c))
            else Ok (c :: done_)
      in
      match List.fold_left step_one (Ok []) t.components with
      | Ok rev -> Ok { components = List.rev rev }
      | Error _ as e -> e)

(** [replay t sched] applies a whole schedule; [Ok t'] iff [sched] is
    a schedule of [t].  This is the executable meaning of "[alpha] is
    a schedule of system A" used by the Theorem 10 checker. *)
let replay (t : t) (sched : Schedule.t) : (t, string) result =
  let rec go t i = function
    | [] -> Ok t
    | a :: rest -> (
        match apply t a with
        | Ok t' -> go t' (i + 1) rest
        | Error e -> Error (Fmt.str "at step %d: %s" i e))
  in
  go t 0 sched

(** A strategy picks the next operation among the enabled outputs. *)
type strategy = Qc_util.Prng.t -> Action.t list -> Action.t

(** Uniform choice over enabled outputs. *)
let uniform : strategy = fun rng actions -> Qc_util.Prng.choose rng actions

(** A strategy biased toward completing work: REQUEST_COMMIT / COMMIT
    operations are preferred with probability 0.7, which keeps long
    random executions from ballooning the set of live transactions. *)
let completion_biased : strategy =
 fun rng actions ->
  let finishing =
    List.filter
      (function
        | Action.Request_commit _ | Action.Commit _ -> true
        | Action.Request_create _ | Action.Create _ | Action.Abort _ -> false)
      actions
  in
  match finishing with
  | [] -> Qc_util.Prng.choose rng actions
  | _ ->
      if Qc_util.Prng.float rng < 0.7 then Qc_util.Prng.choose rng finishing
      else Qc_util.Prng.choose rng actions

type run_result = {
  final : t;
  schedule : Schedule.t;
  quiescent : bool;  (** true when the run stopped with nothing enabled *)
}

(** [run ~rng ?strategy ?max_steps ?tracer t] drives the composition
    until quiescence or the step bound, returning the schedule
    produced.  Each operation picked is validated through {!apply}, so
    the result is by construction a schedule of the composition.

    With a [tracer], every step fires an instant event (category
    "ioa", timestamped with the step index, the rendered operation in
    the args) — when a downstream check fails, the trace holds the
    exact action trail that produced the schedule. *)
let run ?(max_steps = 10_000) ?(strategy = uniform) ?tracer ~rng (t : t) :
    run_result =
  let trace_step n a menu =
    match tracer with
    | Some tr when Obs.Trace.enabled tr ->
        Obs.Trace.instant tr ~cat:"ioa" ~name:"step" ~track:"scheduler"
          ~ts:(float_of_int n)
          ~args:
            [
              ("i", Obs.Trace.Int n);
              ("action", Obs.Trace.Str (Fmt.str "%a" Action.pp a));
              ("enabled", Obs.Trace.Int menu);
            ]
          ()
    | _ -> ()
  in
  let trace_stop n reason =
    match tracer with
    | Some tr when Obs.Trace.enabled tr ->
        Obs.Trace.instant tr ~cat:"ioa" ~name:reason ~track:"scheduler"
          ~ts:(float_of_int n)
          ~args:[ ("steps", Obs.Trace.Int n) ]
          ()
    | _ -> ()
  in
  let rec go t acc n =
    if n >= max_steps then begin
      trace_stop n "step_bound";
      { final = t; schedule = List.rev acc; quiescent = false }
    end
    else
      match enabled t with
      | [] ->
          trace_stop n "quiescent";
          { final = t; schedule = List.rev acc; quiescent = true }
      | actions -> (
          let a = strategy rng actions in
          trace_step n a (List.length actions);
          match apply t a with
          | Ok t' -> go t' (a :: acc) (n + 1)
          | Error e ->
              invalid_arg
                (Fmt.str "System.run: enabled operation failed to apply: %s" e))
  in
  go t [] 0
