(** The Theorem 11 oracle: one-copy serializability at the logical
    level.

    Given the log of a concurrent replicated run ({!Engine.run_log}),
    construct the witness serial execution and compare:

    - the serial order is the top-level commit order (strict
      two-phase locking to top-level commit guarantees conflict
      serializability in commit order);
    - within a top-level transaction, events replay in their recorded
      order (which extends the transaction's own program order);
    - only {e non-orphan} events participate: an event of a TM whose
      ancestor later aborted is excluded, exactly as Theorem 11 only
      speaks about non-orphan transactions;
    - every logical read must have returned the value the serial
      witness assigns; final replicated state must match the witness'
      final store; and the replication invariant (a write-quorum at
      the highest version number holding that value) must hold in the
      final committed DM states. *)

open Ioa
module Item = Quorum.Item
module Config = Quorum.Config
module Description = Quorum.Description

type mismatch = {
  what : string;
  detail : string;
}

let fail what fmt = Fmt.kstr (fun detail -> Error { what; detail }) fmt

(* Every ancestor of [t] (up to, excluding, the root) committed. *)
let non_orphan (log : Engine.run_log) (t : Txn.t) =
  let rec go anc =
    if Txn.is_root anc then true
    else
      match List.assoc_opt anc log.Engine.outcomes with
      | Some (Engine.Committed _) -> go (Txn.parent anc)
      | Some Engine.Aborted | None -> false
  in
  go t

let ( let* ) = Result.bind

let check (d : Description.t) (log : Engine.run_log) :
    (unit, mismatch) result =
  (* committed top-levels, in the witness serialization order the
     concurrency control guarantees (commit order for 2PL, timestamp
     order for MVTO) *)
  let tops = log.Engine.serial_order in
  (* serial witness stores *)
  let items = Hashtbl.create 8 and raws = Hashtbl.create 8 in
  List.iter
    (fun (i : Item.t) -> Hashtbl.replace items i.Item.name i.Item.initial)
    d.Description.items;
  List.iter
    (fun (o, v) -> Hashtbl.replace raws o v)
    d.Description.raw_objects;
  (* replay, top-level by top-level in commit order *)
  let replay_event ev =
    match ev with
    | Engine.ERead { tm; item; value; _ } ->
        if non_orphan log tm then
          let expected = Hashtbl.find items item in
          if Value.equal value expected then Ok ()
          else
            fail "logical read"
              "TM %a read %a from item %s; serial witness expects %a"
              Txn.pp tm Value.pp value item Value.pp expected
        else Ok ()
    | Engine.EWrite { tm; item; value; _ } ->
        if non_orphan log tm then Hashtbl.replace items item value;
        Ok ()
    | Engine.ERawRead { access; obj; value; _ } ->
        if non_orphan log access then
          let expected = Hashtbl.find raws obj in
          if Value.equal value expected then Ok ()
          else
            fail "raw read" "access %a read %a from %s; witness expects %a"
              Txn.pp access Value.pp value obj Value.pp expected
        else Ok ()
    | Engine.ERawWrite { access; obj; value; _ } ->
        if non_orphan log access then Hashtbl.replace raws obj value;
        Ok ()
  in
  let top_of = function
    | Engine.ERead { top; _ } | Engine.EWrite { top; _ }
    | Engine.ERawRead { top; _ } | Engine.ERawWrite { top; _ } ->
        top
  in
  let* () =
    List.fold_left
      (fun acc top ->
        let* () = acc in
        List.fold_left
          (fun acc ev ->
            let* () = acc in
            if Txn.equal (top_of ev) top then replay_event ev else Ok ())
          (Ok ()) log.Engine.events)
      (Ok ()) tops
  in
  (* final state: per item, the replicated value must match the
     witness, and a write-quorum must sit at the highest version *)
  let* () =
    List.fold_left
      (fun acc (i : Item.t) ->
        let* () = acc in
        let dm_states =
          List.map
            (fun dm ->
              match List.assoc_opt dm log.Engine.final_dms with
              | Some (Value.Versioned (vn, v)) -> (dm, (vn, v))
              | Some v -> (dm, (0, v))
              | None -> (dm, (0, i.Item.initial)))
            i.Item.dms
        in
        let max_vn = List.fold_left (fun m (_, (vn, _)) -> Int.max m vn) 0 dm_states in
        let expected = Hashtbl.find items i.Item.name in
        let* () =
          let at_max = List.filter (fun (_, (vn, _)) -> vn = max_vn) dm_states in
          List.fold_left
            (fun acc (dm, (_, v)) ->
              let* () = acc in
              if Value.equal v expected then Ok ()
              else
                fail "final state"
                  "item %s: DM %s at version %d holds %a; witness expects %a"
                  i.Item.name dm max_vn Value.pp v Value.pp expected)
            (Ok ()) at_max
        in
        if
          List.exists
            (fun q ->
              List.for_all
                (fun dm ->
                  match List.assoc_opt dm dm_states with
                  | Some (vn, _) -> vn = max_vn
                  | None -> false)
                q)
            i.Item.config.Config.write_quorums
        then Ok ()
        else
          fail "replication invariant"
            "item %s: no write-quorum at the highest version %d" i.Item.name
            max_vn)
      (Ok ()) d.Description.items
  in
  (* raw objects must match too *)
  List.fold_left
    (fun acc (o, initial) ->
      let* () = acc in
      let actual =
        match List.assoc_opt o log.Engine.final_raws with
        | Some v -> v
        | None -> initial
      in
      let expected = Hashtbl.find raws o in
      if Value.equal actual expected then Ok ()
      else
        fail "raw final state" "object %s holds %a; witness expects %a" o
          Value.pp actual Value.pp expected)
    (Ok ()) d.Description.raw_objects
