(** Descriptions of replicated nested-transaction systems: everything
    Section 3.1 parameterizes system B over — logical items,
    non-replicated objects, and the user transaction tree (scripts).
    {!System_b} and {!System_a} are built from the same description,
    which makes the Theorem 10 comparison meaningful. *)

open Ioa

type t = {
  items : Item.t list;
  raw_objects : (string * Value.t) list;
      (** non-replicated basic objects: (name, initial value) *)
  root_script : Serial.User_txn.script;
      (** the root's script; its children are the top-level
          ("classical") transactions *)
}

val item : t -> string -> Item.t option
val all_dm_names : t -> string list

(** How a transaction name is interpreted in system B. *)
type role =
  | User
  | Tm of Item.t * Txn.kind  (** a transaction manager for an item *)
  | Replica_access of Item.t  (** an access to a DM *)
  | Raw_access

val role_of : t -> Txn.t -> role option

val is_access_b : t -> Txn.t -> bool
(** Accesses of system B: replica accesses and raw accesses. *)

val is_access_a : t -> Txn.t -> bool
(** Accesses of system A: the TM names and raw accesses. *)

val is_replica_access : t -> Txn.t -> bool
(** Exactly what the Theorem 10 projection erases in Section 3. *)

val validate : t -> (unit, string) result
(** Distinct names, pairwise-disjoint DM sets, disjoint namespaces,
    scripts referencing only known objects, legal configurations. *)

val compose : builder:string -> t -> Component.t list -> System.t
(** The serial system shared by every system built from the
    description: the serial scheduler, the user transactions, the
    given components, then the raw objects.
    @raise Invalid_argument ["builder: reason"] on an invalid
    description. *)

val user_txns : t -> Txn.t list
(** All user-transaction names (root included). *)

val tm_names : t -> (Txn.t * Item.t * Txn.kind) list
(** All logical-access (TM) names in the scripts, with their items. *)
