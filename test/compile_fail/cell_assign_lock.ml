(* Compile-must-fail canary: a lock taken by assignment, outside
   [Cell] and in whatever order the caller holds its cells.  ocamlc
   must reject it: the field belongs to a private type. *)

open Cell_contract

let lock_unsorted id (cells : Cell.t list) =
  List.iter (fun (c : Cell.t) -> c.lock <- id) cells
