(** The decision register of one transaction under Paxos Commit (Gray
    and Lamport, "Consensus on Transaction Commit", one-instance form):
    the acceptor state every participant replica holds, the two
    acceptor steps, decide-once, the ballot discipline, and the
    majority tally a leader counts — the coordinator at ballot 0 and a
    recovery leader at a higher ballot alike.  The acceptor set is the
    union of every participant shard's replicas, in canonical order;
    an acceptor is named by its index in that order. *)

type writes = (string * int * int) list
(** a full write set at its final versions: (key, vn, value) *)

type value = bool * writes
(** (commit?, writes) *)

type accepted = int * bool * writes
(** (ballot, commit?, writes) — a value accepted at a ballot *)

type decision
(** A decided value.  The decider makes it once (the coordinator's
    decision wave, its direct abort, a recovery leader's broadcast),
    the [Txn_decide] frames carry it, and every replica that learns it
    keeps that one value as its register for the txid. *)

val decision : commit:bool -> writes:writes -> decision

val aborted : decision
(** [decision ~commit:false ~writes:[]], made once for every abort. *)

val commit : decision -> bool
val writes : decision -> writes

type table
(** One acceptor's registers, by txid id.  A txid's register is open
    (promised ballot, accepted value) until it is decided; from then
    on its binding is the decision alone, so a decided txid costs the
    acceptor one table cell. *)

val table : unit -> table

val prepare : table -> int -> decision option
(** A prepare's look at the register: the txid's decision if it has
    one, else [None] — and the txid has a register from here on,
    opened if it had none, whatever the vote. *)

val promise :
  table ->
  int ->
  bal:int ->
  [ `Decided of decision | `P1b of bool * accepted option ]
(** Phase 1b: promise [bal] unless a higher ballot was promised,
    reporting the highest accepted value.  A decided register answers
    with the decision.  A txid seen for the first time gets an open
    register. *)

val accept :
  table ->
  int ->
  bal:int ->
  commit:bool ->
  writes:writes ->
  [ `Decided of decision | `P2b of bool ]
(** Phase 2b: accept the value at [bal] unless a higher ballot was
    promised.  A decided register answers with the decision.  A txid
    seen for the first time gets an open register. *)

val decide : table -> int -> decision -> bool
(** Record the decision; [true] only the first time.  The open
    register is dropped in favour of the decision itself: a decided
    register answers every ballot from the decision. *)

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
