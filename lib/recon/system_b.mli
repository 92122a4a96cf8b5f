(** The reconfigurable replicated serial system (Section 4's
    redefinition of system B): scheduler, user transactions, spies,
    read-/write-/reconfigure-TMs with coordinator families,
    reconfigurable DMs, raw objects. *)

val build : ?max_attempts:int -> Description.t -> Ioa.System.t
(** @raise Invalid_argument on an invalid description, with
    {!Quorum.System_b.build}'s message. *)
