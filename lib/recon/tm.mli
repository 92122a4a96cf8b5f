(** Transaction managers for the reconfigurable algorithm
    (paper Section 4), built on coordinators:
    - read-TM: query, return the value;
    - write-TM: query, push (vn+1, value) to a write-quorum of the
      discovered configuration, return nil;
    - reconfigure-TM (parameterized by the new configuration): query,
      push the current data to a write-quorum of the {e new}
      configuration, push (generation+1, new-config) to a write-quorum
      of the {e old} one (the paper's footnote 6 simplification),
      return nil. *)

open Ioa
module Config = Quorum.Config

type kind = Quorum.Logical.kind =
  | Read
  | Write of Value.t
  | Reconfigure of Config.t

val recon_name :
  parent:Txn.t -> item:string -> config:Config.t -> slot:int -> Txn.t
(** The name of a reconfigure-TM child of [parent]. *)

val recon_info : Txn.t -> (string * Config.t * int) option
(** Parse a reconfigure-TM name: (item, new config, slot). *)

val is_recon_tm : Txn.t -> bool

val kind_of : Quorum.Item.t -> Txn.t -> kind option
(** Is the name a TM of the item (read, write or reconfigure), and of
    which kind? *)

val make :
  self:Txn.t -> item:Quorum.Item.t -> kind:kind -> ?max_attempts:int -> unit ->
  Component.t list
(** The TM component paired with its coordinator family. *)
