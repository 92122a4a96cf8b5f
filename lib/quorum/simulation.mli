(** The Theorem 10 simulation checker, for both sections: erase the
    operations below the logical level from a schedule of system B,
    replay the rest on a freshly built system A, and verify the
    non-replica objects and every user transaction see the same
    operations. *)

open Ioa

val check :
  erase:(Txn.t -> bool) -> Description.t -> Schedule.t -> (unit, string) result
(** [check ~erase d beta] erases the operations of every transaction
    [erase] holds for: {!Description.is_replica_access} in Section 3;
    replica accesses, coordinators and reconfigure-TMs in Section 4. *)
