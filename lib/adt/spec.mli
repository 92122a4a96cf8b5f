(** Sequential ADT specifications for General Quorum Consensus
    (Herlihy [12], the paper's Section 5 extension target): counter,
    last-writer register, FIFO queue — states, operations, and the
    fold defining replay semantics over timestamp-ordered logs. *)

type op =
  | Inc of int  (** counter: add n (blind mutator) *)
  | Total  (** counter: observe the total *)
  | Set of int  (** register: write *)
  | Get  (** register: read *)
  | Enq of int  (** queue: enqueue (blind mutator) *)
  | Deq  (** queue: dequeue the front (observes and mutates) *)

type result = Unit | Value of int | Empty

val mutates : op -> bool
(** Modifies the abstract state (must be logged). *)

val observes : op -> bool
(** Observes the state (needs an initial read round). *)

type state = { total : int; reg : int option; queue : int list }

val initial : state
val apply : state -> op -> state * result
val replay : op list -> state
(** Fold a timestamp-ordered operation list from the initial state. *)
