(** Abstract data type specifications for General Quorum Consensus
    (Herlihy [12], named by the paper's Section 5 as the natural next
    target for the nesting treatment).

    An ADT is a sequential specification: a state, operations, and a
    transition function.  Replication keeps a log of timestamped
    operations; the state at any point is the fold of the log in
    timestamp order.  The payoff over value/version replication is
    that operations declare {e how much} of the log they need:

    - a {e mutator} that returns nothing (counter increment, queue
      enqueue, blind append) needs {b no read round at all} — it
      appends its entry to a final quorum;
    - an {e observer} (read, total, dequeue-front) reads an initial
      quorum that intersects every mutator's final quorum, so the
      merged log contains every completed operation.

    Three classic instances are provided: a counter, a last-writer
    register, and a FIFO queue. *)

type op =
  | Inc of int  (** counter: add n *)
  | Total  (** counter: observe the total *)
  | Set of int  (** register: write *)
  | Get  (** register: read *)
  | Enq of int  (** queue: enqueue *)
  | Deq  (** queue: dequeue the front *)

type result = Unit | Value of int | Empty

(** Does the operation modify the abstract state (and therefore need
    to be logged), and does it observe it (and therefore need an
    initial read round)?

    Note [Deq] both observes and mutates: it must read the log to know
    the front, and be logged so later dequeues skip it. *)
let mutates = function
  | Inc _ | Set _ | Enq _ | Deq -> true
  | Total | Get -> false

let observes = function
  | Total | Get | Deq -> true
  | Inc _ | Set _ | Enq _ -> false

(** {1 Sequential semantics: fold a timestamp-ordered operation list} *)

type state = { total : int; reg : int option; queue : int list }

let initial = { total = 0; reg = None; queue = [] }

(** [apply st op] returns the next state and the operation's result.
    Queue semantics: [Deq] removes the oldest not-yet-dequeued
    element. *)
let apply (st : state) (op : op) : state * result =
  match op with
  | Inc n -> ({ st with total = st.total + n }, Unit)
  | Total -> (st, Value st.total)
  | Set n -> ({ st with reg = Some n }, Unit)
  | Get -> (st, (match st.reg with Some n -> Value n | None -> Empty))
  | Enq n -> ({ st with queue = st.queue @ [ n ] }, Unit)
  | Deq -> (
      match st.queue with
      | [] -> (st, Empty)
      | x :: rest -> ({ st with queue = rest }, Value x))

(** Replay a log (already sorted by timestamp) from the initial
    state; returns the final state. *)
let replay (ops : op list) : state =
  List.fold_left (fun st op -> fst (apply st op)) initial ops
