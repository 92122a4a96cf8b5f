(** The Theorem 10 simulation checker.

    Theorem 10: for every schedule [b] of replicated serial system B
    there is a schedule [a] of non-replicated serial system A such
    that (1) non-DM objects see the same operations, and (2) every
    user transaction sees the same operations.  The proof constructs
    [a] by {e erasing from b all operations of replica accesses}; the
    inductive argument shows the erased sequence replays on A.

    The checker executes that construction literally: erase, then
    {!Ioa.System.replay} on a freshly built system A.  Conditions (1)
    and (2) are additionally verified explicitly by comparing
    projections (they hold by construction of the erasure, but
    checking them guards the caller's erase predicate).  Replay
    failure on any generated B-schedule would falsify the theorem (or,
    in practice, expose a transcription bug). *)

open Ioa

let ( let* ) = Result.bind

(** [check ~erase d beta]: the paper builds [a] from [b] by removing
    the REQUEST_CREATE, CREATE, REQUEST_COMMIT, COMMIT and ABORT
    operations of every access in [acc(x)], for every item [x]
    ([erase] = {!Description.is_replica_access}).  Section 4 erases
    coordinators and reconfigure-TMs too: system A has neither. *)
let check ~erase (d : Description.t) (beta : Schedule.t) :
    (unit, string) result =
  let alpha = Schedule.erase erase beta in
  (* alpha must be a schedule of system A *)
  let* () =
    match System.replay (System_a.build d) alpha with
    | Ok _ -> Ok ()
    | Error e ->
        Error (Fmt.str "Theorem 10: projection does not replay on A: %s" e)
  in
  (* condition 1: objects outside every dm(x) see identical schedules *)
  let raw_ok =
    List.for_all
      (fun (name, _) ->
        let of_obj a =
          match Txn.obj_of (Action.txn a) with
          | Some o -> String.equal o name
          | None -> false
        in
        Schedule.equal
          (Schedule.project of_obj alpha)
          (Schedule.project of_obj beta))
      d.Description.raw_objects
  in
  let* () =
    if raw_ok then Ok ()
    else Error "Theorem 10: a non-replica object sees different schedules"
  in
  (* condition 2: every user transaction sees what it saw in beta,
     except the requests and returns of erased children (Section 4's
     reconfigure-TMs, which belong to the user's spy) *)
  let views_agree =
    List.for_all
      (fun u ->
        let seen a = Txn.equal (Action.txn a) u || not (erase (Action.txn a)) in
        Schedule.equal (Schedule.view_of u alpha)
          (Schedule.project seen (Schedule.view_of u beta)))
      (Description.user_txns d)
  in
  if views_agree then Ok ()
  else Error "Theorem 10: a user transaction's view differs"
