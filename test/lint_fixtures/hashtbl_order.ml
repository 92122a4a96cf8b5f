(* Fixture: hashtbl-order rule.  Violations at lines 5 and 6; the
   fold under the line-8 pragma and the fold with the same-line
   pragma at line 10 are silent. *)

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []
let dump t = Hashtbl.iter (fun _ v -> print_int v) t

(* lint: order-insensitive *)
let count t = Hashtbl.fold (fun _ _ n -> n + 1) t 0
let size t = Hashtbl.fold (fun _ _ n -> n + 1) t 0 (* lint: order-insensitive *)

(* Functor-made tables: a Hashtbl.Make / MakeSeeded instance bound in
   this file, an alias of one, a local module, and the shared Strtbl
   under any qualification.  Violations at lines 25, 26, 27, 28, 29
   and 32; the pragma at line 30 silences line 31; a Map's iteration
   (line 33) and a table's non-iterating functions (line 34) are not
   findings. *)

module Stbl = Hashtbl.Make (String)
module Alias = Stbl
module Seeded = Hashtbl.MakeSeeded (struct type t = int let equal = Int.equal let seeded_hash = Hashtbl.seeded_hash end)
module Strtbl = Qc_util.Strtbl
module Smap = Map.Make (String)

let m_keys t = Stbl.fold (fun k _ acc -> k :: acc) t []
let m_dump t = Alias.iter (fun _ v -> print_int v) t
let s_dump t = Seeded.iter (fun _ v -> print_int v) t
let q_keys t = Qc_util.Strtbl.fold (fun k _ acc -> k :: acc) t []
let u_keys t = Strtbl.fold (fun k _ acc -> k :: acc) t []
(* lint: order-insensitive *)
let m_count t = Stbl.fold (fun _ _ n -> n + 1) t 0
let local t = let module L = Hashtbl.Make (Int) in L.iter (fun _ _ -> ()) t
let map_keys m = Smap.fold (fun k _ acc -> k :: acc) m []
let m_size t = Stbl.length t + Strtbl.length t
