(** Descriptions of reconfigurable replicated systems (Section 4):
    Section 3's description of the same user transactions over the
    items at generation 0, plus each item's candidate configurations
    and how many reconfigurations each spy may fire. *)

open Ioa
module Config = Quorum.Config

type t = private {
  plain : Quorum.Description.t;
      (** the items at generation 0, the raw objects and the scripts:
          item lookup, validation, user transactions, system A *)
  items : Item.t list;
  max_recons_per_txn : int;  (** reconfigurations each spy may fire *)
}

val make :
  items:Item.t list ->
  raw_objects:(string * Value.t) list ->
  root_script:Serial.User_txn.script ->
  max_recons_per_txn:int ->
  t

val erased_in_projection : t -> Txn.t -> bool
(** What the simulation onto system A erases: replica accesses,
    coordinators, and reconfigure-TMs. *)

val recon_tm_names : t -> (Txn.t * Quorum.Item.t * Config.t) list
(** All statically-enumerable reconfigure-TM names (user x item
    candidate x slot). *)
