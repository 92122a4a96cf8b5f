(** Prefix-incremental schedule checkers.

    The paper states its lemmas "after b" for every schedule [b], so
    each checker is a state stepped one operation at a time and
    validated after every prefix.  {!fold} runs one over a finished
    schedule; the exhaustive walker threads the same state along each
    branch of the schedule tree, sharing prefixes. *)

type 'st t = {
  init : 'st;
  step : 'st -> Action.t -> ('st, string) result;
}

let fold c (sched : Schedule.t) =
  let rec go st i = function
    | [] -> Ok st
    | a :: rest -> (
        match c.step st a with
        | Ok st -> go st (i + 1) rest
        | Error e -> Error (Fmt.str "after step %d (%a): %s" i Action.pp a e))
  in
  go c.init 0 sched
