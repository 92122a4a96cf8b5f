(* [String.hash] is [caml_string_hash] at seed 0, the value
   [Hashtbl.hash] gives a string, so a table of this kind fills its
   buckets, and folds, exactly as a polymorphic [Hashtbl] over the
   same keys would. *)
include Hashtbl.Make (String)
