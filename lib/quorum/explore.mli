(** Exhaustive exploration of a system's schedule space: depth-first
    over every enabled output, threading an incremental checker along
    each branch.  Completion within the budget is an exhaustive proof
    for that instance. *)

open Ioa

type stats = {
  schedules : int;  (** maximal schedules reached *)
  prefixes : int;  (** prefixes visited (= operations checked) *)
  exhausted : bool;  (** false when the budget stopped the walk *)
  violation : (Schedule.t * string) option;  (** first failure found *)
}

val run :
  ?budget:int -> ?include_aborts:bool -> System.t -> 'st Checker.t -> stats
(** Walk every schedule, stopping at the first violation or after
    [budget] visited prefixes.  Unless [include_aborts], the
    scheduler's spontaneous ABORTs are left out (shrinks the space
    drastically; restricts nondeterminism only). *)

val check_description :
  ?budget:int -> ?include_aborts:bool -> ?max_attempts:int -> Description.t ->
  stats
(** Exhaustively validate Lemmas 5-8 ({!Harness.checker}) on every
    (optionally abort-free) schedule of system B for the
    description. *)
