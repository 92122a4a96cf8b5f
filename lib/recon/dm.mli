(** Reconfigurable data managers (paper Section 4): value + version
    number + configuration + generation number, with partial-update
    write accesses (data part or configuration part), expressed via
    {!Serial.Rw_object}'s merge parameter. *)

open Ioa

val merge : current:Value.t -> Value.t -> Value.t
(** [Versioned] payloads update (version, data); [Gen_config] payloads
    update (generation, config); full [Recon_state] replaces. *)

val make : item:Item.t -> name:string -> unit -> Component.t
