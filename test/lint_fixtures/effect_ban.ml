(* Fixture: effect-ban rule.  Violations at lines 4, 5 and 6; the
   pragma'd site at line 9 is silent; each escape form below is a
   violation at the line where its module path enters. *)
let bad_random () = Random.int 10
let bad_unix () = Unix.gettimeofday ()
let bad_time () = Sys.time ()

(* lint: effect-ok *)
let excused () = Random.bits ()

module R = Random
let via_alias () = R.int 6
let local_open () = Random.(int 6)
let let_open () = let open Random in int 6
let unit_name () = Stdlib__Random.int 6
let qualified () = Stdlib.Random.int 6
module S = Stdlib
let via_stdlib () = S.Random.int 6
open Sys
let clock () = time ()
open Random
let opened () = int 6
