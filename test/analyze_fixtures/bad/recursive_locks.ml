(* Planted lock-order bugs in recursive lock walks, and outside any
   iteration — each must be flagged by the [lock-order] pass. *)

type cell = { key : string; mutable lock : string }

(* The walk follows its list, but its caller hands it the footprint in
   the caller's own key order: flagged at the call. *)
let rec lock_walk txid = function
  | [] -> ()
  | c :: rest ->
      c.lock <- txid;
      lock_walk txid rest

let acquire_all txid cells = lock_walk txid cells

(* Started on a sorted footprint, the walk reorders what is left of it:
   flagged at the recursive call. *)
let rec lock_reordered txid = function
  | [] -> ()
  | c :: rest ->
      c.lock <- txid;
      lock_reordered txid (List.rev rest)

let acquire_reordered txid cells =
  lock_reordered txid (List.sort_uniq (fun a b -> String.compare a.key b.key) cells)

(* An acquisition in no iteration at all: flagged where it stands. *)
let acquire_one txid c = c.lock <- txid
