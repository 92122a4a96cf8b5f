(** Descriptions of reconfigurable replicated systems (Section 4).

    Section 4 redefines only system B.  Its user transactions, system
    A and the names the proof obligations speak about are Section 3's,
    so a description keeps Section 3's description of the same system
    ({!field-plain}: each item at its generation-0 configuration) and
    adds what reconfiguration needs: each item's candidate
    configurations and the spies' reconfiguration budget. *)

open Ioa
module Config = Quorum.Config

type t = {
  plain : Quorum.Description.t;
  items : Item.t list;
  max_recons_per_txn : int;
      (** how many reconfigurations each spy may fire *)
}

let make ~items ~raw_objects ~root_script ~max_recons_per_txn =
  {
    plain =
      {
        Quorum.Description.items = List.map (fun i -> i.Item.plain) items;
        raw_objects;
        root_script;
      };
    items;
    max_recons_per_txn;
  }

(** Operations to erase when projecting onto the non-replicated
    system A: everything below the logical level — replica accesses
    and coordinators — and every reconfigure-TM, requests and returns
    included, since reconfiguration does not exist in A.  (A
    reconfigure-TM's descendants are coordinators and their replica
    accesses.) *)
let erased_in_projection t txn =
  Quorum.Description.is_replica_access t.plain txn
  || Coordinator.is_coordinator txn
  || Tm.is_recon_tm txn

(** All statically-enumerable reconfigure-TM names: one per user
    transaction, item candidate, and slot. *)
let recon_tm_names (t : t) : (Txn.t * Quorum.Item.t * Config.t) list =
  List.concat_map
    (fun user ->
      List.concat_map
        (fun (i : Item.t) ->
          List.concat_map
            (fun config ->
              List.init t.max_recons_per_txn (fun slot ->
                  ( Tm.recon_name ~parent:user ~item:i.plain.name ~config ~slot,
                    i.plain,
                    config )))
            i.candidates)
        t.items)
    (Quorum.Description.user_txns t.plain)
