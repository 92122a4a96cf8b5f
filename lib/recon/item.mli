(** Logical items for the reconfigurable algorithm (paper Section 4):
    a Section 3 item, whose configuration is the one every replica
    holds at generation 0, plus the menu of candidate configurations
    spies may install. *)

open Ioa
module Config = Quorum.Config

type t = {
  plain : Quorum.Item.t;  (** name, dm(x), [i_x], generation-0 config *)
  candidates : Config.t list;  (** deduplicated by {!make} *)
}

val make :
  name:string ->
  dms:string list ->
  initial:Value.t ->
  initial_config:Config.t ->
  candidates:Config.t list ->
  t
(** @raise Invalid_argument on illegal or foreign-DM configurations. *)

val dm_initial : t -> Value.t
(** [Recon_state { version = 0; data = i_x; generation = 0;
    config = initial_config }]. *)
