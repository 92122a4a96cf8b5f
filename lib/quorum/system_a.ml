(** The non-replicated serial system A (Section 3.2).

    System A is identical to system B except that the logical accesses
    (the TMs of system B) are accesses, and each logical item is
    implemented by a single read-write object [O(x)] over domain [V_x]
    with initial value [i_x].  Because TM names carry the access
    attributes (kind, and for writes the value), the same names denote
    the corresponding accesses here, so the paper's mapping [7_BA] is
    the identity and system B is an extension of system A (Lemma 9)
    by construction. *)

let build (d : Description.t) : Ioa.System.t =
  Description.compose ~builder:"System_a.build" d
    (List.map
       (fun (i : Item.t) ->
         Serial.Rw_object.make ~name:i.Item.name ~initial:i.Item.initial ())
       d.items)
