(** The reconfigurable replicated serial system (Section 4's
    redefinition of system B).

    Components: the serial scheduler; the scripted user transactions;
    one spy per user transaction; read-/write-TMs for every scripted
    logical access and reconfigure-TMs for every spy menu entry (each
    TM paired with its coordinator family); and the reconfigurable
    DMs plus any raw basic objects.  The scheduler, the user
    transactions, the raw objects and validation are Section 3's
    ({!Quorum.Description.compose}). *)

open Ioa

let build ?(max_attempts = 3) (d : Description.t) : System.t =
  let menu =
    List.concat_map
      (fun (i : Item.t) -> List.map (fun c -> (i.plain.name, c)) i.candidates)
      d.items
  in
  let spies =
    List.map
      (fun user -> Spy.make ~user ~menu ~max_recons:d.max_recons_per_txn ())
      (Quorum.Description.user_txns d.plain)
  in
  let logical_tms =
    List.concat_map
      (fun (self, item) ->
        Tm.make ~self ~item ~kind:(Option.get (Tm.kind_of item self)) ~max_attempts ())
      (Quorum.Description.tm_names d.plain)
  in
  let recon_tms =
    List.concat_map
      (fun (name, item, config) ->
        Tm.make ~self:name ~item ~kind:(Tm.Reconfigure config) ~max_attempts ())
      (Description.recon_tm_names d)
  in
  let dms =
    List.concat_map
      (fun (i : Item.t) ->
        List.map (fun name -> Dm.make ~item:i ~name ()) i.plain.dms)
      d.items
  in
  Quorum.Description.compose ~builder:"System_b.build" d.plain
    (spies @ logical_tms @ recon_tms @ dms)
