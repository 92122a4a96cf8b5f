(** Transaction managers (paper Section 3.1).  Both kinds read from a
    read-quorum of the item's DMs, keeping the highest-versioned data.
    A read-TM returns its value.  A write-TM then installs
    [(vn + 1, value(T))] at a write-quorum and returns [nil].  The
    kind and [value(T)] are read off the TM's own name.  Faithful
    subtlety: a read-access COMMIT arriving after write accesses were
    invoked no longer updates the state, preventing the TM from seeing
    its own writes. *)

open Ioa

val make : self:Txn.t -> item:Item.t -> ?max_attempts:int -> unit -> Component.t
(** The TM automaton named [self] for [item]: a write-TM when [self]
    names a write access, a read-TM otherwise.  [max_attempts] bounds
    access retries per DM and kind (a restriction of nondeterminism
    only). *)
