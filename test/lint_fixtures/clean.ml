(* Fixture: a clean file — the lint reports nothing. *)

let ints = List.sort Int.compare [ 3; 1; 2 ]
let floats = List.sort Float.compare [ 3.0; 1.0; 2.0 ]
let close = Float.equal 1.0 1.0
let mention_in_string = "Hashtbl.fold and Random.int are only words here"

(* jitter from a pure integer mix of a caller-supplied seed: no
   ambient effect anywhere in the chain *)
let mix z =
  let z = Int64.of_int z in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL
  in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 29)) land max_int

let jitter ~seed base = base + (mix seed mod 10)
let backoff_ms ~seed attempt = jitter ~seed (attempt * 10)
