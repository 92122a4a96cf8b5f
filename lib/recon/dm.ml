(** Reconfigurable data managers (Section 4).

    Each replica of [x] holds a value, a version number, a
    configuration and a generation number.  Read accesses return the
    whole state.  Write accesses update {e part} of the state,
    selected by the payload carried in the access's name:
    - a [Versioned (vn, v)] payload installs new data (a logical
      write, or the data-copying phase of a reconfiguration);
    - a [Gen_config] payload installs a new configuration and
      generation (the announcement phase of a reconfiguration);
    - a full [Recon_state] payload replaces everything (unused by the
      algorithm, kept for generality).

    The partial update is expressed through {!Serial.Rw_object}'s
    [merge] parameter, so a recon-DM is still a Section 2.3 read-write
    object. *)

open Ioa

let merge ~current written =
  match (current, written) with
  | Value.Recon_state s, Value.Versioned (version, data) ->
      Value.Recon_state { s with version; data }
  | Value.Recon_state s, Value.Gen_config { gen; cfg } ->
      Value.Recon_state { s with generation = gen; config = cfg }
  | _, w -> w

let make ~(item : Item.t) ~name () : Component.t =
  Serial.Rw_object.make ~name ~initial:(Item.dm_initial item) ~merge ()
