(** The decision register of one transaction under Paxos Commit (Gray
    and Lamport, "Consensus on Transaction Commit", one-instance form):
    the acceptor state every participant replica holds, the two
    acceptor steps, decide-once, the ballot discipline, and the
    majority tally a leader counts — the coordinator at ballot 0 and a
    recovery leader at a higher ballot alike.  The acceptor set is the
    union of every participant shard's replicas, in canonical order;
    an acceptor is named by its index in that order. *)

type value = bool * (string * int * int) list
(** (commit?, full write set at its final versions) *)

type accepted = int * bool * (string * int * int) list
(** (ballot, commit?, writes) — a value accepted at a ballot *)

type t
(** One acceptor's register for one transaction. *)

val create : unit -> t

val decided : t -> value option

val promise :
  t -> bal:int -> [ `Decided of value | `P1b of bool * accepted option ]
(** Phase 1b: promise [bal] unless a higher ballot was promised,
    reporting the highest accepted value.  A decided register answers
    with the decision. *)

val accept :
  t ->
  bal:int ->
  commit:bool ->
  writes:(string * int * int) list ->
  [ `Decided of value | `P2b of bool ]
(** Phase 2b: accept the value at [bal] unless a higher ballot was
    promised.  A decided register answers with the decision. *)

val decide : t -> commit:bool -> writes:(string * int * int) list -> bool
(** Record the decision; [true] only the first time.  The accepted
    value is dropped: a decided register answers every ballot from
    the decision. *)

val ballot : attempt:int -> acceptors:int -> index:int -> int
(** The recovery ballot of the [index]-th acceptor's [attempt]-th
    round (attempts count from 1) — above ballot 0, which belongs to
    the coordinator, and unique to (attempt, leader). *)

val proposal : accepted option -> value
(** What a recovery leader proposes after phase 1, given the highest
    accepted value its majority reported: that value verbatim, or
    Abort when the register is free (a missed vote aborts). *)

val higher : accepted option -> accepted option -> accepted option
(** The higher-ballot of two reported values ([None] is lowest; the
    first wins ties). *)

val index : string list -> string -> int
(** The acceptor's index in the set, [-1] if it is not a member. *)

val send_all :
  string list -> except:string -> (dst:string -> 'm -> unit) -> 'm -> unit
(** Send one frame to every acceptor but [except], in acceptor order. *)

type tally
(** A leader's count of distinct acceptors heard in one phase. *)

val tally : int -> tally
(** An empty tally over [n] acceptors; it completes at a strict
    majority of them. *)

val hear : tally -> int -> bool
(** Count acceptor [i] (ignored outside [0 .. n-1]); [true] if it was
    not counted before. *)

val complete : tally -> bool
(** A majority of distinct acceptors has been heard. *)
