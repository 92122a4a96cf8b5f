(** Mechanized checkers for Lemmas 6, 7 and 8, validated after every
    prefix of a system-B schedule (Lemma 8 part 1 at even
    access-sequence lengths, part 2 at read-TM commits). *)

open Ioa

type state
(** Incremental checker state (one tracker per item). *)

val checker : Description.t -> state Checker.t
(** [Error] carries the violated lemma and details. *)

val check : Description.t -> Schedule.t -> (unit, string) result
(** {!Ioa.Checker.fold} the {!checker} over a whole schedule. *)

val final_logical_states : Description.t -> Schedule.t -> (string * Value.t) list
(** Final logical state of each item (cross-checkable against
    {!Logical.logical_state}). *)
