(* A stand-in for the lock contract of [Store.Replica.Cell]: outside
   [Cell] a cell's fields are read-only, and only [footprint], which
   sorts by key, makes the list [lock_all] takes.  This file must
   compile; the two fixtures beside it break the contract and must
   not. *)

module Cell : sig
  type t = private { key : string; mutable lock : int }
  type footprint = private t list

  val make : string -> t
  val footprint : t list -> footprint
  val lock_all : int -> footprint -> unit
end = struct
  type t = { key : string; mutable lock : int }
  type footprint = t list

  let make key = { key; lock = -1 }
  let footprint l = List.sort_uniq (fun a b -> String.compare a.key b.key) l
  let lock_all id l = List.iter (fun c -> c.lock <- id) l
end
