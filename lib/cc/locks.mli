(** Moss-style read/write locking for nested transactions ([19] in the
    paper): read locks compatible with ancestor writers, write locks
    requiring every holder to be an ancestor, lock {e inheritance} by
    the parent at commit, version-stack rollback at abort.  Locking is
    at the copy (DM) level — the granularity Theorem 11 requires. *)

open Ioa

type t

val create : unit -> t

val try_read :
  t -> obj:string -> initial:Value.t -> who:Txn.t -> (Value.t, Txn.t list) result
(** Acquire a read lock and read; [Error holders] when blocked. *)

val try_write :
  t -> obj:string -> initial:Value.t -> who:Txn.t -> Value.t ->
  (unit, Txn.t list) result
(** Acquire a write lock and push a version. *)

val read_unlocked : t -> obj:string -> initial:Value.t -> who:Txn.t -> Value.t
(** Bypass the locking rules (ablation / mutation tests only). *)

val write_unlocked : t -> obj:string -> initial:Value.t -> who:Txn.t -> Value.t -> unit

val commit : t -> Txn.t -> unit
(** Lock inheritance: every lock and version held by the transaction
    passes to its parent; a top-level commit installs its newest
    version as the base value and frees its locks. *)

val abort : t -> Txn.t -> unit
(** Drop all locks and versions of the transaction and its
    descendants, restoring previous values. *)

val committed_values : t -> (string * Value.t) list
(** Final committed (base) value of every object touched. *)

val residual_holders : t -> (string * Txn.t list) list
(** Live lock holders (empty after a clean run). *)
