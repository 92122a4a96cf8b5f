(** The replicated serial system B (paper Section 3.1): serial
    scheduler + user transactions + one TM per scripted logical access
    + one DM per replica + the non-replicated basic objects. *)

val build : ?max_attempts:int -> Description.t -> Ioa.System.t
(** @raise Invalid_argument on an invalid description. *)
