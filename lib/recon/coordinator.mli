(** Coordinators (paper Section 4) — the extra nesting level
    separating the read, write and reconfigure tasks of the TMs.

    A {e query} coordinator reads DMs until the highest-generation
    configuration seen has a read-quorum among the DMs read, then
    returns the collected (version, value, generation, configuration)
    summary.  A {e push} coordinator writes a payload (data or
    configuration announcement) to a write-quorum of its target
    configuration.  Coordinator names carry their run-time-computed
    parameters, so they are hosted by an {!Ioa.Family} per TM. *)

open Ioa
module Config = Quorum.Config

val query_name : tm:Txn.t -> attempt:int -> Txn.t
val push_name : tm:Txn.t -> payload:Value.t -> target:Config.t -> slot:int -> Txn.t

type role = Query | Push of { payload : Value.t; target : Config.t }

val role_of : Txn.t -> role option
val is_coordinator : Txn.t -> bool

type state
(** One coordinator's automaton state (family member). *)

val family :
  tm:Txn.t -> item:Quorum.Item.t -> ?max_attempts:int -> unit -> Component.t
(** The family of all coordinators under one TM. *)
