(** A transaction id as the transaction path carries it: an int, which
    every table on the hot path keys by (a replica's transaction
    records, a key's lock holder, the in-doubt index, the audit's
    decisions), and the name it renders as — in traces, digests, audit
    messages and the REPL.  Built once per coordinator attempt and
    shared by every message of the attempt. *)

type t = { id : int; name : string }

val make : coord:int -> coord_name:string -> int -> t
(** [make ~coord ~coord_name n] is the [n]th transaction of the
    coordinator node with id [coord] and name [coord_name]: id
    [coord lsl 32 lor n], name ["<coord_name>#t<n>"].  Two txids of
    one network differ in their ids exactly when they differ in their
    names, for [0 <= n < 2^32]. *)
