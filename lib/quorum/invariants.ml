(** Mechanized checkers for the paper's invariants (Lemmas 6, 7, 8).

    Each checker folds once over a schedule of system B, maintaining
    the Section 3.1 quantities incrementally, and validates the lemma
    statement after {e every} prefix (the lemmas are stated "after b"
    for schedules b, and Lemma 8 for prefixes whose access sequence
    has even length).  A successful run of thousands of randomized
    executions through these checkers is the executable counterpart of
    the paper's inductive proofs.

    - Lemma 6: [access(x, b)] alternates CREATE / REQUEST_COMMIT
      operations of TMs, starting with a CREATE, with each
      REQUEST_COMMIT for [T] immediately preceded by CREATE(T).
    - Lemma 7: the highest version number among the DM states equals
      [current-vn(x, b)].
    - Lemma 8.1a: some write-quorum has every DM at version
      [current-vn(x, b)] (checked at even access-sequence lengths).
    - Lemma 8.1b: every DM at version [current-vn(x, b)] holds
      [logical-state(x, b)] (idem).
    - Lemma 8.2: every read-TM REQUEST_COMMIT returns
      [logical-state(x, b)]. *)

open Ioa

type item_track = {
  item : Item.t;
  dm_state : (string * (int * Value.t)) list;  (** reconstructed DM states *)
  last_write_vn : (string * int) list;  (** last committed write per DM *)
  access : Logical.tracker;
}

let init_track (item : Item.t) =
  {
    item;
    dm_state = List.map (fun d -> (d, (0, item.Item.initial))) item.Item.dms;
    last_write_vn = [];
    access = Logical.tracker item;
  }

let current_vn tr =
  List.fold_left (fun m (_, vn) -> Int.max m vn) 0 tr.last_write_vn

let fail fmt = Fmt.kstr (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* Lemma 7 after any prefix. *)
let check_lemma7 tr =
  let cv = current_vn tr in
  let hi = List.fold_left (fun m (_, (vn, _)) -> Int.max m vn) 0 tr.dm_state in
  if hi = cv then Ok ()
  else
    fail "Lemma 7 violated for %s: max DM vn %d <> current-vn %d"
      tr.item.Item.name hi cv

(* Lemma 8 part 1 at even access-sequence length. *)
let check_lemma8_1 tr =
  let cv = current_vn tr in
  let at_cv dm =
    match List.assoc_opt dm tr.dm_state with
    | Some (vn, _) -> vn = cv
    | None -> false
  in
  let* () =
    if
      List.exists
        (fun q -> List.for_all at_cv q)
        tr.item.Item.config.Config.write_quorums
    then Ok ()
    else
      fail "Lemma 8.1a violated for %s: no write-quorum at current-vn %d"
        tr.item.Item.name cv
  in
  List.fold_left
    (fun acc (dm, (vn, v)) ->
      let* () = acc in
      if vn = cv && not (Value.equal v tr.access.logical) then
        fail
          "Lemma 8.1b violated for %s: DM %s at current-vn %d holds %a, \
           logical-state is %a"
          tr.item.Item.name dm cv Value.pp v Value.pp tr.access.logical
      else Ok ())
    (Ok ()) tr.dm_state

(* One step of the per-item tracker: Lemma 6 and 8.2 through the
   shared access-sequence tracker, then the DM state a committed write
   access to one of our DMs leaves behind. *)
let step_track tr (a : Action.t) : (item_track, string) result =
  let* access = Logical.track (Logical.tm_kind tr.item) tr.item tr.access a in
  let tr = { tr with access } in
  match a with
  | Action.Request_commit (t, _) when Txn.kind_of t = Some Txn.Write -> (
      match Logical.replica_access_dm tr.item t with
      | Some dm -> (
          match Txn.data_of t with
          | Some (Value.Versioned (vn, v)) ->
              Ok
                {
                  tr with
                  dm_state = (dm, (vn, v)) :: List.remove_assoc dm tr.dm_state;
                  last_write_vn =
                    (dm, vn) :: List.remove_assoc dm tr.last_write_vn;
                }
          | Some _ | None ->
              fail "write access %a to DM %s carries no versioned data"
                Txn.pp t dm)
      | None -> Ok tr)
  | _ -> Ok tr

(** Incremental interface: a checker state stepped one operation at a
    time — folded over a schedule by {!check} and threaded along every
    branch by the exhaustive walker in {!Explore}, which shares
    prefixes. *)
type state = item_track list

let step (trs : state) (a : Action.t) : (state, string) result =
  List.fold_left
    (fun acc tr ->
      let* trs = acc in
      let* tr = step_track tr a in
      let* () = check_lemma7 tr in
      let* () = if tr.access.access_len mod 2 = 0 then check_lemma8_1 tr else Ok () in
      Ok (tr :: trs))
    (Ok []) trs
  |> Result.map List.rev

let checker (d : Description.t) : state Checker.t =
  { Checker.init = List.map init_track d.Description.items; step }

(** [check d sched] folds [sched] once, validating Lemmas 6, 7 and 8
    after every prefix (8.1 at even access-sequence lengths, 8.2 at
    read-TM commits). *)
let check (d : Description.t) (sched : Schedule.t) : (unit, string) result =
  Result.map ignore (Checker.fold (checker d) sched)

(** Final logical state of each item according to the access-sequence
    tracker (operations it rejects are skipped) — used by tests to
    cross-check {!Logical.logical_state}. *)
let final_logical_states (d : Description.t) (sched : Schedule.t) :
    (string * Value.t) list =
  List.map
    (fun (i : Item.t) ->
      let track tr a =
        Result.value (Logical.track (Logical.tm_kind i) i tr a) ~default:tr
      in
      (i.Item.name, (List.fold_left track (Logical.tracker i) sched).logical))
    d.Description.items
