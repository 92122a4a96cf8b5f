(** Queue-aware read steering: pick, among a strategy's minimal read
    quorums, the one whose slowest member looks cheapest right now.

    The cost of a replica is its recent reply latency (an [Ewma]
    estimate) plus a weighted live apply-queue depth; the cost of a
    quorum is its worst member, since a quorum completes only when its
    slowest reply lands.  Ties break deterministically by cardinality
    then by lowest mask, so steering never consults a PRNG — default
    (probe-less) runs stay byte-identical.  The queue weight is a
    constant: every tuned run uses the same one. *)

type t = { ewma : Ewma.t; queue_depth : int -> float; steer : bool }

(* the cost, in virtual time, of one queued apply entry *)
let queue_weight = 2.0

let replica_cost t i = Ewma.value t.ewma i +. (queue_weight *. t.queue_depth i)

let cost t mask =
  let rec go i m acc =
    if m = 0 then acc
    else
      let acc =
        if m land 1 <> 0 then Float.max acc (replica_cost t i) else acc
      in
      go (i + 1) (m lsr 1) acc
  in
  go 0 mask neg_infinity

let best t masks =
  match masks with
  | [] -> None
  | first :: rest ->
      let rec go bm bc bp = function
        | [] -> Some bm
        | q :: tl ->
            let c = cost t q in
            let p = Strategy.popcount q in
            let better =
              let d = Float.compare c bc in
              d < 0 || (d = 0 && (p < bp || (p = bp && q < bm)))
            in
            if better then go q c p tl else go bm bc bp tl
      in
      go first (cost t first) (Strategy.popcount first) rest
