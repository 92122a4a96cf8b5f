(** The Section 4 analogues of Lemmas 6/7/8, configuration-aware:
    after every complete logical operation, some write-quorum of the
    current (highest-generation) configuration holds the data at
    current-vn; DMs at current-vn hold logical-state; read-TMs return
    logical-state. *)

open Ioa

type state
(** Incremental checker state. *)

val checker : Description.t -> state Checker.t

val check : Description.t -> Schedule.t -> (unit, string) result
val final_logical_states : Description.t -> Schedule.t -> (string * Value.t) list
