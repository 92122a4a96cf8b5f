(* Planted lock-order bug on per-key cells: the lock is a field of the
   key's cell, and the acquisition loop walks the caller's order — must
   be flagged by the [lock-order] pass.  The release loop stores a
   constant and is free. *)

type cell = { key : string; mutable lock : string }

let acquire_all txid cells = List.iter (fun c -> c.lock <- txid) cells

let release_all txid cells =
  List.iter (fun c -> if String.equal c.lock txid then c.lock <- "") cells
