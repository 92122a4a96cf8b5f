(* The clean counterpart of ../bad/recursive_locks.ml: the walks start
   on a footprint a canonical builder made, and recurse on the tail of
   the list they matched, so every acquirer walks one total order. *)

type cell = { key : string; mutable lock : string }

let rec insert c = function
  | [] -> [ c ]
  | c' :: rest as cells ->
      let o = String.compare c.key c'.key in
      if o < 0 then c :: cells else if o = 0 then cells else c' :: insert c rest

(* sorted by key, duplicates dropped: what List.sort_uniq would give *)
let[@lint.canonical_order] rec canonical acc = function
  | [] -> acc
  | c :: rest -> canonical (insert c acc) rest

let rec lock_walk txid = function
  | [] -> ()
  | c :: rest ->
      c.lock <- txid;
      lock_walk txid rest

let acquire_all txid cells = lock_walk txid (canonical [] cells)

let acquire_bound txid cells =
  let footprint = canonical [] cells in
  lock_walk txid footprint
