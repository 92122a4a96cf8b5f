(** Invariant checkers for the reconfigurable algorithm — the
    Section 4 analogues of Lemmas 6/7/8.

    Definitions carried over from the fixed case, now configuration-
    aware:
    - [current-vn(x, b)]: highest version number among the DM states;
    - [current-config(x, b)]: the configuration with the highest
      generation number among the DM states;
    - [logical-state(x, b)]: the value of the last write-TM
      REQUEST_COMMIT (reconfigure-TMs do not change logical state).

    After every complete logical operation (even access-sequence
    length, where the access sequence counts read-, write- {e and}
    reconfigure-TM operations):
    - (1a') some write-quorum of current-config has every DM at
      current-vn — reconfiguration must copy data forward to the new
      configuration before announcing it;
    - (1b') every DM at current-vn holds logical-state;
    - (2') every read-TM REQUEST_COMMIT returns logical-state. *)

open Ioa
module Config = Quorum.Config

type item_track = {
  item : Quorum.Item.t;
  dm_state : (string * Value.recon_state) list;
  access_len : int;
  pending_tm : Txn.t option;
  logical : Value.t;
}

let init_track (item : Quorum.Item.t) =
  {
    item;
    dm_state =
      List.map
        (fun d ->
          ( d,
            {
              Value.version = 0;
              data = item.initial;
              generation = 0;
              config = item.config;
            } ))
        item.dms;
    access_len = 0;
    pending_tm = None;
    logical = item.initial;
  }

let current_vn tr =
  List.fold_left (fun m (_, s) -> Int.max m s.Value.version) 0 tr.dm_state

let current_config tr =
  let _, best =
    List.fold_left
      (fun ((g, _) as acc) (_, s) ->
        if s.Value.generation > g then (s.Value.generation, s.Value.config)
        else acc)
      (-1, tr.item.config)
      tr.dm_state
  in
  best

let fail fmt = Fmt.kstr (fun s -> Error s) fmt
let ( let* ) = Result.bind

let check_even_length tr =
  let cv = current_vn tr in
  let cc = current_config tr in
  let at_cv dm =
    match List.assoc_opt dm tr.dm_state with
    | Some s -> s.Value.version = cv
    | None -> false
  in
  let* () =
    if List.exists (fun q -> List.for_all at_cv q) cc.Value.write_quorums then
      Ok ()
    else
      fail
        "recon 1a' violated for %s: no write-quorum of the current \
         configuration is at current-vn %d"
        tr.item.name cv
  in
  List.fold_left
    (fun acc (dm, s) ->
      let* () = acc in
      if s.Value.version = cv && not (Value.equal s.Value.data tr.logical)
      then
        fail "recon 1b' violated for %s: DM %s at vn %d holds %a, expected %a"
          tr.item.name dm cv Value.pp s.Value.data Value.pp tr.logical
      else Ok ())
    (Ok ()) tr.dm_state

(* Is [t] a TM of this item (read/write/reconfigure)? *)
let tm_kind_of tr (txn : Txn.t) : Tm.kind option =
  match Tm.recon_info txn with
  | Some (item_name, config, _) when String.equal item_name tr.item.name
    ->
      Some (Tm.Reconfigure config)
  | Some _ -> None
  | None -> (
      match (Txn.obj_of txn, Txn.kind_of txn) with
      | Some obj, Some k when String.equal obj tr.item.name -> (
          match k with
          | Txn.Read -> Some Tm.Read
          | Txn.Write ->
              Some
                (Tm.Write
                   (match Txn.data_of txn with Some v -> v | None -> Value.Nil)))
      | _ -> None)

(* A committed write access to one of this item's DMs. *)
let replica_write tr (txn : Txn.t) : (string * Value.t) option =
  match (Txn.obj_of txn, Txn.kind_of txn, Txn.data_of txn) with
  | Some obj, Some Txn.Write, Some payload when List.mem obj tr.item.dms
    ->
      Some (obj, payload)
  | _ -> None

let step_track tr (a : Action.t) : (item_track, string) result =
  match a with
  | Action.Create t when tm_kind_of tr t <> None -> (
      match tr.pending_tm with
      | Some p ->
          fail "recon Lemma 6 violated for %s: CREATE(%a) while %a pending"
            tr.item.name Txn.pp t Txn.pp p
      | None ->
          Ok { tr with pending_tm = Some t; access_len = tr.access_len + 1 })
  | Action.Request_commit (t, v) -> (
      match tm_kind_of tr t with
      | Some kind -> (
          match tr.pending_tm with
          | Some p when Txn.equal p t -> (
              let tr =
                { tr with pending_tm = None; access_len = tr.access_len + 1 }
              in
              match kind with
              | Tm.Write value -> Ok { tr with logical = value }
              | Tm.Read ->
                  if Value.equal v tr.logical then Ok tr
                  else
                    fail
                      "recon 2' violated for %s: read-TM %a returned %a, \
                       logical-state is %a"
                      tr.item.name Txn.pp t Value.pp v Value.pp tr.logical
              | Tm.Reconfigure _ -> Ok tr)
          | Some p ->
              fail
                "recon Lemma 6 violated for %s: REQUEST_COMMIT(%a) while %a \
                 pending"
                tr.item.name Txn.pp t Txn.pp p
          | None ->
              fail
                "recon Lemma 6 violated for %s: REQUEST_COMMIT(%a) without \
                 CREATE"
                tr.item.name Txn.pp t)
      | None -> (
          match replica_write tr t with
          | Some (dm, payload) ->
              let prev = Value.Recon_state (List.assoc dm tr.dm_state) in
              let s =
                match Dm.merge ~current:prev payload with
                | Value.Recon_state s -> s
                | merged ->
                    {
                      Value.version = 0;
                      data = merged;
                      generation = 0;
                      config = tr.item.config;
                    }
              in
              Ok
                {
                  tr with
                  dm_state = (dm, s) :: List.remove_assoc dm tr.dm_state;
                }
          | None -> Ok tr))
  | _ -> Ok tr

(** Incremental interface: folded over a schedule by {!check} and
    threaded along every branch by {!Explore}. *)
type state = item_track list

let step (trs : state) (a : Action.t) : (state, string) result =
  List.fold_left
    (fun acc tr ->
      let* trs = acc in
      let* tr = step_track tr a in
      let* () =
        if tr.access_len mod 2 = 0 then check_even_length tr else Ok ()
      in
      Ok (tr :: trs))
    (Ok []) trs
  |> Result.map List.rev

let checker (d : Description.t) : state Checker.t =
  { Checker.init = List.map init_track d.plain.items; step }

(** Fold a schedule of the reconfigurable system through all item
    trackers, checking the Section 4 invariants at every prefix. *)
let check (d : Description.t) (sched : Schedule.t) : (unit, string) result =
  Result.map ignore (Checker.fold (checker d) sched)

let final_logical_states (d : Description.t) (sched : Schedule.t) =
  List.map
    (fun (i : Quorum.Item.t) ->
      let tr =
        List.fold_left
          (fun tr a ->
            match step_track tr a with Ok tr -> tr | Error _ -> tr)
          (init_track i) sched
      in
      (i.name, tr.logical))
    d.plain.items
