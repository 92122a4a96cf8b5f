(** The replicated serial system B (Section 3.1).

    System B is an ordinary serial system in which each logical item
    [x] is implemented by the DMs in [dm(x)] (read-write objects over
    [N x V_x]), all accesses to which are children of the TMs for [x].
    Its components are: the serial scheduler, the user transaction
    automata (from the description's scripts), one TM automaton per
    logical access in the scripts, one DM object per
    replica, and the non-replicated basic objects. *)

open Ioa

let build ?(max_attempts = 3) (d : Description.t) : System.t =
  let tms =
    List.map
      (fun (self, item) -> Tm.make ~self ~item ~max_attempts ())
      (Description.tm_names d)
  in
  let dms =
    List.concat_map
      (fun (i : Item.t) ->
        List.map
          (fun dm ->
            Serial.Rw_object.make ~name:dm ~initial:(Item.dm_initial i) ())
          i.Item.dms)
      d.items
  in
  Description.compose ~builder:"System_b.build" d (tms @ dms)
