(** Logical data items for the reconfigurable algorithm (Section 4).

    A reconfigurable item is a Section 3 item — whose configuration is
    the one all replicas hold initially, at generation 0 — plus the
    menu of candidate configurations the spies may install at run
    time.  Every candidate must be legal over [dm(x)]. *)

open Ioa
module Config = Quorum.Config

type t = {
  plain : Quorum.Item.t;  (** name, dm(x), [i_x], generation-0 config *)
  candidates : Config.t list;  (** configurations reconfiguration may install *)
}

let make ~name ~dms ~initial ~initial_config ~candidates =
  let item config = Quorum.Item.make ~name ~dms ~config ~initial in
  let plain = item initial_config in
  List.iter (fun c -> ignore (item c)) candidates;
  (* deduplicate: a repeated candidate would create duplicate
     reconfigure-TM components *)
  let candidates =
    List.fold_left
      (fun acc c -> if List.exists (Config.equal c) acc then acc else acc @ [ c ])
      [] candidates
  in
  { plain; candidates }

(** Initial replica state: version 0, [i_x], generation 0, the
    initial configuration (Section 4: "all replicas of x initially
    hold the same configuration and generation number"). *)
let dm_initial t =
  let { Quorum.Item.initial; config; _ } = t.plain in
  Value.Recon_state { version = 0; data = initial; generation = 0; config }
