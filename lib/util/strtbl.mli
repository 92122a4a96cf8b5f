(** The string-keyed hash table of the per-message paths: a
    [Hashtbl.Make (String)] instance, so a lookup hashes and compares
    the key as a string instead of through the polymorphic [caml_hash]
    and [compare].

    Its hash is [Hashtbl.hash] on strings, so bucket placement, and
    with it [iter]/[fold] order, is the same as a polymorphic
    [(string, _) Hashtbl.t] holding the same bindings inserted in the
    same order.  That order is still implementation-defined: the
    determinism lint's hashtbl-order rule flags [Strtbl.iter] and
    [Strtbl.fold] like their [Hashtbl] counterparts. *)

include Hashtbl.S with type key = string
