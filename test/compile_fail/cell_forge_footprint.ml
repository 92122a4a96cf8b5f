(* Compile-must-fail canary: a footprint forged from an unsorted cell
   list, to hand [lock_all] cells out of key order.  ocamlc must
   reject the coercion: a [Cell.t list] is not a [Cell.footprint]. *)

open Cell_contract

let lock_unsorted id (cells : Cell.t list) =
  Cell.lock_all id (cells :> Cell.footprint)
