(** The non-replicated serial system A (paper Section 3.2): identical
    to system B except each item is one read-write object and the TM
    names denote accesses to it.  The correspondence [7_BA] is the
    identity on names, so B is an extension of A by construction
    (Lemma 9). *)

val build : Description.t -> Ioa.System.t
(** @raise Invalid_argument on an invalid description. *)
