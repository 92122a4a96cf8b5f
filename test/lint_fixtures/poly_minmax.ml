(* Fixture: poly-minmax rule.  Violations at lines 5, 6, 7 and 8; the
   typed functions at lines 9 and 10, the written-out float comparison
   at line 11 and the record field at lines 12-13 are silent. *)

let widest a b = max a b
let clamp n i = min (n - 1) i
let newest vns = List.fold_left max 0 vns
let qualified a b = Stdlib.min a b
let typed a b = Int.max a b
let typed_min a b = Int.min a b
let float_max (x : float) y = if x >= y then x else y
type s = { max : float }
let field s = s.max
