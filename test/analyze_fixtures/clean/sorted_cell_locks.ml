(* The clean counterpart of ../bad/unsorted_cell_locks.ml: the cells
   are canonically sorted by key and deduplicated before any lock
   field is set, so every acquirer walks one total order. *)

type cell = { key : string; mutable lock : string }

let acquire_all txid cells =
  let footprint =
    List.sort_uniq (fun a b -> String.compare a.key b.key) cells
  in
  List.iter (fun c -> c.lock <- txid) footprint

let release_all txid cells =
  List.iter (fun c -> if String.equal c.lock txid then c.lock <- "") cells
